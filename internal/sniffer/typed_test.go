package sniffer

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"trac/internal/engine"
	"trac/internal/gridsim"
	"trac/internal/types"
)

// The loader's writes as SQL text, the form the sniffer issued before it
// built statements: the reference the typed writes are held against.

func textPersistState(b *engine.Batch, sid string, offset, applied int, last time.Time) error {
	sidSQL := types.NewString(sid).SQL()
	lastSQL := "NULL"
	if !last.IsZero() {
		lastSQL = types.NewTime(last).SQL()
	}
	set := `log_offset = ` + types.NewInt(int64(offset)).SQL() +
		`, applied = ` + types.NewInt(int64(applied)).SQL() +
		`, last_ts = ` + lastSQL
	n, err := b.Exec(`UPDATE ` + SnifferStateTable + ` SET ` + set + ` WHERE sid = ` + sidSQL)
	if err != nil {
		return err
	}
	if n == 0 {
		_, err = b.Exec(`INSERT INTO ` + SnifferStateTable + ` (sid, log_offset, applied, last_ts) VALUES (` +
			sidSQL + `, ` + types.NewInt(int64(offset)).SQL() + `, ` +
			types.NewInt(int64(applied)).SQL() + `, ` + lastSQL + `)`)
	}
	return err
}

func textApplyEvent(b *engine.Batch, e gridsim.Event) error {
	src := types.NewString(e.Machine).SQL()
	ts := types.NewTime(e.Time).SQL()
	job := types.NewString(e.JobID).SQL()
	run := func(sqls ...string) error {
		for _, sql := range sqls {
			if _, err := b.Exec(sql); err != nil {
				return err
			}
		}
		return nil
	}
	logJob := func(event string) string {
		return `INSERT INTO JobLog VALUES (` + src + `, ` + job + `, '` + event + `', ` + ts + `)`
	}
	switch e.Type {
	case gridsim.StatusEvent:
		return run(`DELETE FROM Activity WHERE mach_id = `+src,
			`INSERT INTO Activity VALUES (`+src+`, `+types.NewString(e.Value).SQL()+`, `+ts+`)`)
	case gridsim.NeighborEvent:
		return run(`INSERT INTO Routing VALUES (` + src + `, ` + types.NewString(e.Neighbor).SQL() + `, ` + ts + `)`)
	case gridsim.SubmitEvent:
		return run(`INSERT INTO S VALUES (`+src+`, `+job+`, NULL, `+types.NewString(e.User).SQL()+`)`,
			logJob("submit"))
	case gridsim.RouteEvent:
		return run(`UPDATE S SET remoteMachineId = `+types.NewString(e.Remote).SQL()+
			` WHERE schedMachineId = `+src+` AND jobId = `+job, logJob("route"))
	case gridsim.StartEvent:
		return run(`INSERT INTO R VALUES (`+src+`, `+job+`)`, logJob("start"))
	case gridsim.FinishEvent:
		return run(`DELETE FROM R WHERE runningMachineId = `+src+` AND jobId = `+job, logJob("finish"))
	case gridsim.HeartbeatEvent:
		return nil
	default:
		return fmt.Errorf("unknown event type %q", e.Type)
	}
}

func textUpsertHeartbeat(b *engine.Batch, sid string, ts time.Time) error {
	sidSQL := types.NewString(sid).SQL()
	tsSQL := types.NewTime(ts).SQL()
	n, err := b.Exec(`UPDATE Heartbeat SET recency = ` + tsSQL + ` WHERE sid = ` + sidSQL)
	if err != nil {
		return err
	}
	if n == 0 {
		_, err = b.Exec(`INSERT INTO Heartbeat (sid, recency) VALUES (` + sidSQL + `, ` + tsSQL + `)`)
	}
	return err
}

// textLoader replays one source's log through the text writes, batch for
// batch as a sniffer polls it.
type textLoader struct {
	sid             string
	log             gridsim.Log
	offset, applied int
	last            time.Time
}

func (l *textLoader) poll(db *engine.DB) error {
	events, next, err := l.log.ReadFrom(l.offset)
	if err != nil || len(events) == 0 {
		return err
	}
	b := db.BeginBatch()
	defer b.Abort()
	var maxTS time.Time
	for _, e := range events {
		if err := textApplyEvent(b, e); err != nil {
			return err
		}
		if e.Time.After(maxTS) {
			maxTS = e.Time
		}
	}
	if maxTS.After(l.last) {
		l.last = maxTS
		if err := textUpsertHeartbeat(b, l.sid, maxTS); err != nil {
			return err
		}
	}
	l.applied += len(events)
	if err := textPersistState(b, l.sid, next, l.applied, l.last); err != nil {
		return err
	}
	l.offset = next
	return b.Commit()
}

// TestTypedWritesMatchTextWrites runs a fleet into a durable directory and,
// event for event and batch for batch, the text writes into another: the
// two WALs must be byte-identical, and every table equal after reopen. The
// simulation ticks every 1.5 s, so half its timestamps carry a fraction the
// WAL has to keep.
func TestTypedWritesMatchTextWrites(t *testing.T) {
	sim, err := gridsim.New(gridsim.Config{Machines: 6, Seed: 11, JobRate: 2, HeartbeatEvery: 3,
		Tick: 1500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	typedDir, textDir := t.TempDir(), t.TempDir()
	open := func(dir string) *engine.DB {
		t.Helper()
		db, err := engine.OpenDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	typed, text := open(typedDir), open(textDir)
	for _, db := range []*engine.DB{typed, text} {
		if err := InstallSchema(db); err != nil {
			t.Fatal(err)
		}
	}
	fleet := NewFleet(typed, sim)
	var loaders []*textLoader
	for _, m := range sim.Machines() {
		loaders = append(loaders, &textLoader{sid: m.Name, log: m.Log})
	}
	for round := 0; round < 30; round++ {
		if err := sim.Run(2); err != nil {
			t.Fatal(err)
		}
		// One source at a time, so both WALs commit in the same order.
		for i, s := range fleet.Sniffers {
			if _, err := s.Poll(); err != nil {
				t.Fatal(err)
			}
			if err := loaders[i].poll(text); err != nil {
				t.Fatal(err)
			}
		}
	}
	live := dumpTables(t, typed)
	if n, err := typed.Query(`SELECT COUNT(*) FROM JobLog WHERE event = 'finish'`); err != nil || n.Rows[0][0].Int() == 0 {
		t.Fatalf("the simulation finished no jobs (%v)", err)
	}
	for _, db := range []*engine.DB{typed, text} {
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	wal := func(dir string) []byte {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(dir, "wal.1.log"))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if a, b := wal(typedDir), wal(textDir); len(a) == 0 || !bytes.Equal(a, b) {
		t.Fatalf("WALs differ: typed %d bytes, text %d bytes", len(a), len(b))
	}
	typed, text = open(typedDir), open(textDir)
	defer typed.Close()
	defer text.Close()
	if got := dumpTables(t, typed); !reflect.DeepEqual(got, live) {
		t.Errorf("typed tables after reopen differ from before close")
	}
	if got := dumpTables(t, text); !reflect.DeepEqual(got, live) {
		t.Errorf("text tables after reopen differ from the typed tables")
	}
}
