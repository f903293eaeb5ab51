package engine

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"trac/internal/codec"
	"trac/internal/crashfs"
	"trac/internal/sqlparser"
	"trac/internal/storage"
	"trac/internal/types"
)

// Directory-backed durability. A database directory holds one *epoch* of
// state — a checkpoint dump, the segment files it references, and the WAL
// carrying everything committed since — plus a tiny MANIFEST naming the
// current epoch:
//
//	dir/
//	  MANIFEST           "TRACMF01" + uvarint epoch + CRC32C   (atomic cursor)
//	  dump.<epoch>       "TRACDB02" catalog dump (schemas, spill refs, row tails)
//	  wal.<epoch>.log    "TRACWAL2" log of post-checkpoint commits
//	  seg/<table>.<epoch>.seg   "TRACSEG2" spilled columnar segments
//
// CheckpointDir writes the NEXT epoch completely (segment files, a fresh
// empty WAL, the dump — each placed with temp file + fsync + rename +
// parent-dir fsync) and only then rewrites MANIFEST, which is the single
// atomic commit point: a crash anywhere before it recovers the old epoch
// untouched; a crash anywhere after it recovers the new one. The old
// epoch's files are deleted only after the manifest is durable, so there is
// no window where the new dump coexists with the old log.
//
// OpenDir is the inverse: read MANIFEST, load the epoch's dump (schemas +
// tails eagerly, spilled segments lazily via ReadAt — recovery cost is
// O(catalog + WAL tail), not O(data)), replay the epoch's WAL, and sweep
// crash debris from dead epochs. Sniffer offsets ride along for free: the
// SnifferState table is ordinary data in the dump/WAL, so ingestion resumes
// exactly where the consistent cut left it.
const (
	manifestName  = "MANIFEST"
	manifestMagic = "TRACMF01"
	dumpMagicV2   = "TRACDB02"
	segDirName    = "seg"
)

// ckptSpillRows is the whole-segment unit CheckpointDir spills to segment
// files; the sub-unit remainder stays in the dump as a row tail. A var, not
// a const, so crash tests can shrink it and exercise the spill path without
// multi-thousand-row workloads.
var ckptSpillRows = storage.DefaultSegmentSize

// openConfig collects OpenDir options.
type openConfig struct {
	fs      crashfs.FS
	verify  bool
	syncWAL bool
}

// OpenOption configures OpenDir.
type OpenOption func(*openConfig)

// WithFS routes all durability I/O through fsys (crash-injection tests).
func WithFS(fsys crashfs.FS) OpenOption {
	return func(c *openConfig) { c.fs = fsys }
}

// WithVerify makes OpenDir eagerly hydrate every spilled segment file,
// verifying all block checksums up front and returning an error instead of
// deferring detection to first access. Recovery becomes O(data).
func WithVerify() OpenOption {
	return func(c *openConfig) { c.verify = true }
}

// WithSyncWAL enables fsync-per-commit (group-committed) on the WAL.
func WithSyncWAL() OpenOption {
	return func(c *openConfig) { c.syncWAL = true }
}

// OpenDir opens (or initializes) a durable database directory and recovers
// its state: catalog dump, lazily-loaded segment files, WAL tail replay,
// and stale-epoch cleanup. The returned DB logs every committed mutation to
// the epoch's WAL; call CheckpointDir periodically to bound the log, and
// Close when done.
func OpenDir(dir string, opts ...OpenOption) (*DB, error) {
	var cfg openConfig
	for _, o := range opts {
		o(&cfg)
	}
	db := New()
	db.fsys = cfg.fs
	fsys := db.fsRef()
	if err := fsys.MkdirAll(filepath.Join(dir, segDirName), 0o755); err != nil {
		return nil, err
	}

	epoch, found, err := readManifest(fsys, filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	if !found {
		epoch = 1 // fresh directory: epoch 1 starts empty, WAL-only
	}
	db.dir = dir
	db.epoch = epoch
	if found {
		if err := db.loadDirDump(fsys, dir, epoch); err != nil {
			return nil, err
		}
	}
	if cfg.verify {
		for _, name := range db.catalog.Names() {
			tbl, err := db.catalog.Get(name)
			if err != nil {
				return nil, err
			}
			if err := tbl.Hydrate(); err != nil {
				return nil, fmt.Errorf("engine: verifying table %s: %w", name, err)
			}
		}
	}
	cleanupStaleEpochs(fsys, dir, epoch)
	if err := db.attachWAL(filepath.Join(dir, walFileName(epoch))); err != nil {
		return nil, err
	}
	// Make the WAL's directory entry durable: fsyncing file contents later
	// is worthless if the name itself evaporates with the page cache.
	if err := fsys.SyncDir(dir); err != nil {
		_ = db.detachWAL() // the sync failure is the error that matters
		return nil, err
	}
	if cfg.syncWAL {
		db.walMu.Lock()
		db.wal.Sync = true
		db.walMu.Unlock()
	}
	return db, nil
}

// Close detaches the WAL (flush + fsync + close), reporting any error.
func (db *DB) Close() error { return db.detachWAL() }

// Epoch returns the current checkpoint epoch (0 when not opened via
// OpenDir).
func (db *DB) Epoch() uint64 { return db.epoch }

// Dir returns the durable directory (empty when not opened via OpenDir).
func (db *DB) Dir() string { return db.dir }

// CheckpointDir writes the next epoch — per-table segment files for the
// sealed bulk, a dump for schemas and row tails, a fresh WAL — and commits
// it atomically by rewriting MANIFEST. See the package comment above for
// the crash-ordering argument.
func (db *DB) CheckpointDir() error {
	if db.dir == "" {
		return errors.New("engine: database was not opened with OpenDir")
	}
	db.walMu.Lock()
	w := db.wal
	db.walMu.Unlock()
	if w == nil {
		return errors.New("engine: no WAL attached")
	}
	// Exclude in-flight commit+log pairs for the whole checkpoint (see
	// DB.ckptMu): every commit is either fully before the snapshot (in the
	// dump) or fully after the WAL swap (in the new log), never split.
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	if err := w.poisonErr(); err != nil {
		return err
	}
	fsys := db.fsRef()
	newEpoch := db.epoch + 1
	snap := db.Snapshot()

	// Phase 1: spill each table's sealed bulk to its new segment file.
	type tableCkpt struct {
		tbl       *storage.Table
		spillFile string
		spilled   int
		tail      []*storage.Row
	}
	names := db.catalog.Names()
	sort.Strings(names)
	ckpts := make([]tableCkpt, 0, len(names))
	for _, name := range names {
		if _, temp := db.temps.Load(name); temp {
			continue
		}
		tbl, err := db.catalog.Get(name)
		if err != nil {
			return err
		}
		var live []*storage.Row
		for _, r := range tbl.Rows() {
			if snap.Visible(r) {
				live = append(live, r)
			}
		}
		ck := tableCkpt{tbl: tbl, tail: live}
		if spill := len(live) - len(live)%ckptSpillRows; spill > 0 {
			segs := storage.CompactSegments(live[:spill], tbl.Schema, ckptSpillRows)
			ck.spillFile = segFileName(tbl.Name, newEpoch)
			ck.spilled = spill
			ck.tail = live[spill:]
			path := filepath.Join(db.dir, segDirName, ck.spillFile)
			err := crashfs.WriteDurable(fsys, path, func(f crashfs.File) error {
				return storage.WriteSegmentFile(f, tbl.Schema, segs)
			})
			if err != nil {
				return err
			}
		}
		ckpts = append(ckpts, ck)
	}

	// Phase 2: a fresh, empty, durable WAL for the new epoch.
	newWALPath := filepath.Join(db.dir, walFileName(newEpoch))
	neww, replayed, err := openWAL(fsys, newWALPath)
	if err != nil {
		return err
	}
	if len(replayed) != 0 {
		_ = neww.Close() // the stale-file error is the error that matters
		return fmt.Errorf("engine: new epoch WAL %s already has transactions", newWALPath)
	}
	if err := neww.f.Sync(); err != nil {
		_ = neww.Close()
		return err
	}
	if err := fsys.SyncDir(db.dir); err != nil {
		_ = neww.Close()
		return err
	}

	// Phase 3: the dump referencing the new segment files.
	var dump codec.Appender
	dump.Uvarint(newEpoch)
	dump.Uvarint(uint64(len(ckpts)))
	for _, ck := range ckpts {
		appendDirTable(&dump, ck.tbl, ck.spillFile, ck.spilled, ck.tail)
	}
	if err := writeSealed(fsys, filepath.Join(db.dir, dumpFileName(newEpoch)), dumpMagicV2, dump.B); err != nil {
		_ = neww.Close()
		return err
	}

	// Phase 4: the commit point — everything before this is invisible to
	// recovery, everything after is cleanup.
	if err := writeManifest(fsys, filepath.Join(db.dir, manifestName), newEpoch); err != nil {
		_ = neww.Close()
		return err
	}

	// Phase 5: swap the live WAL to the new epoch and sweep the old one.
	db.walMu.Lock()
	old := db.wal
	neww.Sync = old.Sync
	db.wal = neww
	db.walMu.Unlock()
	db.epoch = newEpoch
	// The old log is fully subsumed by the new dump; its close result
	// cannot change recovery.
	_ = old.Close()
	cleanupStaleEpochs(fsys, db.dir, newEpoch)
	return nil
}

// ---------------------------------------------------------------------------
// manifest

func readManifest(fsys crashfs.FS, path string) (epoch uint64, found bool, err error) {
	body, err := readSealed(fsys, path, manifestMagic, maxManifest)
	if errors.Is(err, os.ErrNotExist) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	d := codec.NewDecoder(body)
	epoch = d.Uvarint()
	if err := d.Finish(); err != nil || epoch == 0 {
		return 0, false, fmt.Errorf("engine: manifest %s corrupt epoch", path)
	}
	return epoch, true, nil
}

func writeManifest(fsys crashfs.FS, path string, epoch uint64) error {
	var a codec.Appender
	a.Uvarint(epoch)
	return writeSealed(fsys, path, manifestMagic, a.B)
}

// maxManifest bounds the manifest file: its magic, an epoch and a checksum.
const maxManifest = 64

// readSealed reads the file at path, which is at most limit bytes, and
// returns its body once codec.Open has checked its magic and checksum.
func readSealed(fsys crashfs.FS, path, magic string, limit int64) ([]byte, error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := fsys.Stat(path)
	if err != nil {
		return nil, err
	}
	if info.Size() > limit {
		return nil, fmt.Errorf("engine: %s has impossible size %d", path, info.Size())
	}
	file := make([]byte, info.Size())
	if _, err := f.ReadAt(file, 0); err != nil {
		return nil, err
	}
	body, err := codec.Open(magic, file)
	if err != nil {
		return nil, fmt.Errorf("engine: %s: %w", path, err)
	}
	return body, nil
}

// writeSealed places body, framed by codec.Seal, durably at path.
func writeSealed(fsys crashfs.FS, path, magic string, body []byte) error {
	return crashfs.WriteDurable(fsys, path, func(f crashfs.File) error {
		_, err := f.Write(codec.Seal(magic, body))
		return err
	})
}

// ---------------------------------------------------------------------------
// epoch file naming

func dumpFileName(epoch uint64) string { return fmt.Sprintf("dump.%d", epoch) }
func walFileName(epoch uint64) string  { return fmt.Sprintf("wal.%d.log", epoch) }

func segFileName(table string, epoch uint64) string {
	return fmt.Sprintf("%s.%d.seg", strings.ToLower(table), epoch)
}

// cleanupStaleEpochs removes crash debris: temp files and dump/WAL/segment
// files belonging to any epoch other than the live one. Best-effort — a
// failure here only delays reclamation until the next open or checkpoint.
func cleanupStaleEpochs(fsys crashfs.FS, dir string, epoch uint64) {
	sweep := func(sub string, stale func(name string) bool) {
		names, err := fsys.ReadDir(sub)
		if err != nil {
			return
		}
		removed := false
		for _, name := range names {
			if strings.HasSuffix(name, ".tmp") || stale(name) {
				_ = fsys.Remove(filepath.Join(sub, name))
				removed = true
			}
		}
		if removed {
			_ = fsys.SyncDir(sub)
		}
	}
	sweep(dir, func(name string) bool {
		if e, ok := parseEpochName(name, "dump.", ""); ok {
			return e != epoch
		}
		if e, ok := parseEpochName(name, "wal.", ".log"); ok {
			return e != epoch
		}
		return false
	})
	sweep(filepath.Join(dir, segDirName), func(name string) bool {
		i := strings.LastIndex(strings.TrimSuffix(name, ".seg"), ".")
		if !strings.HasSuffix(name, ".seg") || i < 0 {
			return false
		}
		e, err := strconv.ParseUint(strings.TrimSuffix(name, ".seg")[i+1:], 10, 64)
		return err == nil && e != epoch
	})
}

// parseEpochName extracts N from prefix+N+suffix, e.g. "wal.3.log".
func parseEpochName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	e, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return e, true
}

// ---------------------------------------------------------------------------
// TRACDB02 dump codec: after the magic, a uvarint epoch, a uvarint table
// count, and each table as appendDirTable lays it out.

// appendDirTable appends one table's schema, index list, spill reference,
// and row tail (the visible rows NOT covered by the segment file).
func appendDirTable(a *codec.Appender, tbl *storage.Table, spillFile string, spilled int, tail []*storage.Row) {
	a.String(tbl.Name)
	schema := tbl.Schema
	a.Uvarint(uint64(schema.NumColumns()))
	for _, col := range schema.Columns {
		a.String(col.Name)
		a.Byte(byte(col.Kind))
		a.Bool(col.PrimaryKey)
		a.Byte(byte(col.Domain.Kind))
		a.Byte(byte(col.Domain.ValueKind))
		switch col.Domain.Kind {
		case types.DomainFinite:
			a.Uvarint(uint64(len(col.Domain.Values)))
			for _, v := range col.Domain.Values {
				a.Value(v)
			}
		case types.DomainIntRange:
			a.Varint(col.Domain.MinInt)
			a.Varint(col.Domain.MaxInt)
		}
	}
	a.Varint(int64(schema.SourceColumn))
	checks := TableChecks(tbl)
	a.Uvarint(uint64(len(checks)))
	for _, c := range checks {
		a.String(c.SQL())
	}
	idxCols := tbl.IndexedColumns()
	sort.Ints(idxCols)
	a.Uvarint(uint64(len(idxCols)))
	for _, c := range idxCols {
		a.Uvarint(uint64(c))
	}
	a.String(spillFile)
	a.Uvarint(uint64(spilled))
	a.Uvarint(uint64(len(tail)))
	for _, r := range tail {
		for _, v := range r.Values {
			a.Value(v)
		}
	}
}

// decodeDomain reads a column domain appendDirTable wrote.
func decodeDomain(d *codec.Decoder) types.Domain {
	dom := types.Domain{Kind: types.DomainKind(d.Byte()), ValueKind: types.Kind(d.Byte())}
	var err error
	switch dom.Kind {
	case types.DomainFinite:
		vals := make([]types.Value, d.Count(1))
		for i := range vals {
			vals[i] = d.Value()
		}
		if d.Err() == nil {
			dom, err = types.FiniteDomain(vals...)
		}
	case types.DomainIntRange:
		min, max := d.Varint(), d.Varint()
		if d.Err() == nil {
			dom, err = types.IntRangeDomain(min, max)
		}
	}
	if err != nil {
		d.Fail("%v", err)
	}
	return dom
}

// minDirTable and minDirColumn are the fewest bytes a table and a column
// of the dump take: a table's name, column, check and index counts, source
// column, spill file, spill and row counts; a column's name, kind, key flag
// and two domain bytes.
const (
	minDirTable  = 8
	minDirColumn = 5
)

// loadDirDump reads dump.<epoch>, restoring schemas and row tails eagerly
// and registering spilled segment files for lazy hydration.
func (db *DB) loadDirDump(fsys crashfs.FS, dir string, epoch uint64) error {
	path := filepath.Join(dir, dumpFileName(epoch))
	body, err := readSealed(fsys, path, dumpMagicV2, math.MaxInt64)
	if err != nil {
		return err
	}
	d := codec.NewDecoder(body)
	if dumpEpoch := d.Uvarint(); d.Err() == nil && dumpEpoch != epoch {
		return fmt.Errorf("engine: dump %s claims epoch %d, manifest says %d", path, dumpEpoch, epoch)
	}
	for n := d.Count(minDirTable); n > 0; n-- {
		if err := db.loadDirTable(&d, fsys, dir); err != nil {
			return err
		}
	}
	if err := d.Finish(); err != nil {
		return fmt.Errorf("engine: corrupt dump %s: %w", path, err)
	}
	// Everything above bypassed Exec; settle the catalog version once so
	// plans cached against the empty pre-load catalog cannot survive.
	db.catalog.BumpVersion()
	return nil
}

// loadDirTable restores one table from the v2 dump: it decodes the whole
// table, every count held to the bytes left before anything is allocated
// for it, then builds it.
func (db *DB) loadDirTable(d *codec.Decoder, fsys crashfs.FS, dir string) error {
	name := d.String()
	cols := make([]storage.Column, d.Count(minDirColumn))
	for i := range cols {
		cols[i] = storage.Column{Name: d.String(), Kind: types.Kind(d.Byte()), PrimaryKey: d.Bool(), Domain: decodeDomain(d)}
	}
	srcCol := d.Varint()
	if srcCol >= int64(len(cols)) {
		d.Fail("source column %d of %d", srcCol, len(cols))
	}
	checks := make([]string, d.Count(1))
	for i := range checks {
		checks[i] = d.String()
	}
	idxCols := make([]int, d.Count(1))
	for i := range idxCols {
		c := d.Uvarint()
		if c >= uint64(len(cols)) {
			d.Fail("index column %d of %d", c, len(cols))
		}
		idxCols[i] = int(c)
	}
	spillFile := d.String()
	spilled := d.Uvarint()
	rows := make([][]types.Value, d.Count(max(len(cols), 1)))
	for i := range rows {
		rows[i] = make([]types.Value, len(cols))
		for j := range rows[i] {
			rows[i][j] = d.Value()
		}
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("engine: corrupt dump table %q: %w", name, err)
	}

	schema, err := storage.NewSchema(cols)
	if err != nil {
		return err
	}
	if srcCol >= 0 {
		schema.SourceColumn = int(srcCol)
	}
	for _, src := range checks {
		e, err := sqlparser.ParseExpr(src)
		if err != nil {
			return fmt.Errorf("engine: bad CHECK in dump: %w", err)
		}
		schema.Checks = append(schema.Checks, e)
	}
	tbl := storage.NewTable(name, schema)
	if err := db.catalog.Create(tbl); err != nil {
		return err
	}
	tx := db.mgr.Begin()
	for _, vals := range rows {
		if err := tx.InsertRow(tbl, storage.NewRow(vals, 0)); err != nil {
			tx.Abort()
			return err
		}
	}
	if err := tx.Commit(); err != nil {
		return err
	}

	if spillFile != "" {
		segPath := filepath.Join(dir, segDirName, spillFile)
		want := int(spilled)
		// Indexes wait for hydration; building them now would force the
		// load this laziness exists to avoid.
		tbl.SetSpill(func() ([]*storage.Segment, []*storage.Row, error) {
			segs, err := loadSegmentFile(fsys, segPath, schema, want)
			return segs, nil, err
		}, idxCols)
		return nil
	}
	for _, c := range idxCols {
		if err := tbl.CreateIndex(schema.Columns[c].Name); err != nil {
			return err
		}
	}
	return nil
}

// loadSegmentFile reads and checksums one table's spilled segments.
func loadSegmentFile(fsys crashfs.FS, path string, schema *storage.Schema, wantRows int) ([]*storage.Segment, error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := fsys.Stat(path)
	if err != nil {
		return nil, err
	}
	segs, err := storage.ReadSegmentFile(f, info.Size(), schema)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, s := range segs {
		total += s.Len()
	}
	if total != wantRows {
		return nil, fmt.Errorf("engine: segment file %s holds %d rows, dump expects %d", path, total, wantRows)
	}
	return segs, nil
}
