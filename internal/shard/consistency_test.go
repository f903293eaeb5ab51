package shard_test

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"trac/internal/core/report"
	"trac/internal/engine"
	"trac/internal/types"
	"trac/internal/workload"
)

// TestSnapshotConsistencyUnderConcurrentLoad is the report package's test of
// the same name over three shards: while a writer commits Tao1's events,
// each with the Heartbeat advance to that event's time, as one event across
// every shard, each report's user result and recency rows come from one
// cut, so the newest Tao1 event a report returns is Tao1's reported
// recency. The point form runs its two legs one after the other, the idle
// form side by side.
func TestSnapshotConsistencyUnderConcurrentLoad(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	r, err := workload.BuildSharded(workload.Spec{TotalRows: 600, DataSources: 30}, 3)
	if err != nil {
		t.Fatal(err)
	}
	const sid = "Tao1"
	owner := r.Shard(r.ShardOf(types.NewString(sid)))
	base := time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)
	advance := func(i int) error {
		ts := base.Add(time.Duration(i) * time.Second).Format(types.TimeLayout)
		return r.Atomic(func(db *engine.DB) error {
			b := db.BeginBatch()
			if db == owner {
				if _, err := b.Exec(`INSERT INTO Activity VALUES ('` + sid + `', 'idle', '` + ts + `')`); err != nil {
					return err
				}
			}
			if _, err := b.Exec(`UPDATE Heartbeat SET recency = '` + ts + `' WHERE sid = '` + sid + `'`); err != nil {
				return err
			}
			return b.Commit()
		})
	}
	// From here on Tao1's newest event and its recency are equal.
	if err := advance(0); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := advance(i); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	for _, sql := range []string{
		`SELECT mach_id, event_time FROM Activity WHERE mach_id = '` + sid + `'`,
		`SELECT mach_id, event_time FROM Activity WHERE value = 'idle'`,
	} {
		for iter := 0; iter < 100; iter++ {
			sess := r.Shard(0).NewSession()
			rep, err := r.RecencyReport(sess, sql, report.Config{SkipTempTables: true})
			sess.Close()
			if err != nil {
				t.Fatal(err)
			}
			var recency, newest time.Time
			for _, sr := range append(rep.Normal, rep.Exceptional...) {
				if sr.Sid == sid {
					recency = sr.Recency
				}
			}
			for _, row := range rep.Result.Rows {
				if et := row[1].Time(); row[0].String() == sid && et.After(newest) {
					newest = et
				}
			}
			if recency.IsZero() || !newest.Equal(recency) {
				t.Fatalf("%s: newest %s event %v, reported recency %v", sql, sid, newest, recency)
			}
		}
	}
}
