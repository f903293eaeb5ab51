package engine

import (
	"fmt"
	"sync"

	"trac/internal/storage"
	"trac/internal/types"
)

// Session scopes temp tables to a user interaction, matching the paper's
// behaviour: "The temporary table persists until the end of a user session.
// The user can decide whether to copy it to a permanent table before the
// end of a session or to allow it to be discarded automatically."
type Session struct {
	db *DB

	mu    sync.Mutex
	temps []string
}

// NewSession opens a session.
func (db *DB) NewSession() *Session { return &Session{db: db} }

// DB returns the owning database.
func (s *Session) DB() *DB { return s.db }

// CreateTempTable registers a fresh table named with the given prefix (e.g.
// "sys_temp_a") and returns its full name. The table is queryable with
// ordinary SQL until the session closes. Its rows are fill's tuples, made on
// the table's first read — through the same first-touch gate a recovered
// table's checkpointed segments load by (storage.Table.SetSpill) — and
// committed by the bootstrap transaction, so every snapshot sees them: a
// report's temp tables cost nothing until someone reads them, and fill runs
// at most once, never for a table dropped unread. A nil fill is an empty
// table.
//
// Temp-table churn deliberately does not bump the catalog version: names
// are globally unique (tempSeq), so no cached recency plan can ever resolve
// against the wrong table, and bumping per session interaction would evict
// the entire plan cache each time.
//
//tracvet:ignore catbump temp tables are uniquely named and session-private; bumping would evict the plan cache per interaction
func (s *Session) CreateTempTable(prefix string, cols []storage.Column, fill func() [][]types.Value) (string, error) {
	name := fmt.Sprintf("%s%d", prefix, s.db.tempSeq.Add(1))
	schema, err := storage.NewSchema(cols)
	if err != nil {
		return "", err
	}
	tbl := storage.NewTable(name, schema)
	// Read once and dropped with the session: column vectors, zone maps and
	// a distinct-source set would cost more to build than they can save.
	tbl.SetSealThreshold(-1)
	if fill != nil {
		tbl.SetSpill(func() ([]*storage.Segment, []*storage.Row, error) {
			return nil, storage.BootstrapRows(fill()), nil
		}, nil)
	}
	if err := s.db.catalog.Create(tbl); err != nil {
		return "", err
	}
	s.db.temps.Store(name, struct{}{})
	s.mu.Lock()
	s.temps = append(s.temps, name)
	s.mu.Unlock()
	return name, nil
}

// Persist renames a temp table's contents into a permanent table (the
// "copy to a permanent table" option from the paper). The temp table
// remains until the session closes.
func (s *Session) Persist(tempName, permanentName string) error {
	src, err := s.db.catalog.Get(tempName)
	if err != nil {
		return err
	}
	dst := storage.NewTable(permanentName, src.Schema)
	if err := s.db.catalog.Create(dst); err != nil {
		return err
	}
	// A permanent table under a user-chosen name is visible to every future
	// query; cached plans compiled against the narrower catalog must not
	// outlive its creation.
	s.db.catalog.BumpVersion()
	snap := s.db.Snapshot()
	tx := s.db.mgr.Begin()
	for _, r := range src.Rows() {
		if !snap.Visible(r) {
			continue
		}
		if err := tx.InsertRow(dst, storage.NewRow(r.Values, 0)); err != nil {
			tx.Abort()
			return err
		}
	}
	return tx.Commit()
}

// TempTables lists the session's temp table names in creation order.
func (s *Session) TempTables() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.temps...)
}

// Close drops all session temp tables. Like CreateTempTable, it leaves the
// catalog version alone: the dropped names can never recur, so no cached
// plan can be replayed against them.
//
//tracvet:ignore catbump dropped temp-table names never recur; see CreateTempTable
func (s *Session) Close() error {
	s.mu.Lock()
	temps := s.temps
	s.temps = nil
	s.mu.Unlock()
	var firstErr error
	for _, name := range temps {
		s.db.temps.Delete(name)
		if err := s.db.catalog.Drop(name); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
