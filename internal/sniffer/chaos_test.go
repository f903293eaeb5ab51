package sniffer

import (
	"fmt"
	"os"
	"sort"
	"testing"
	"time"

	"trac/internal/engine"
	"trac/internal/gridsim"
	"trac/internal/types"
)

// dumpTables renders every ingestion-visible table as a sorted list of
// rows, so two databases can be compared for exact equality: a timestamp in
// nanoseconds, so that no rendering of its fraction can hide a difference.
func dumpTables(t *testing.T, db *engine.DB) []string {
	t.Helper()
	var out []string
	for _, table := range []string{"Activity", "Routing", "S", "R", "JobLog", "Heartbeat", SnifferStateTable} {
		res, err := db.Query(`SELECT * FROM ` + table)
		if err != nil {
			t.Fatalf("dump %s: %v", table, err)
		}
		for _, row := range res.Rows {
			line := table
			for _, v := range row {
				if v.Kind() == types.KindTime {
					line += fmt.Sprintf(" | %dns", v.Time().UnixNano())
				} else {
					line += " | " + v.SQL()
				}
			}
			out = append(out, line)
		}
	}
	sort.Strings(out)
	return out
}

func chaosFaults() gridsim.Faults {
	f := gridsim.Faults{ReadError: 0.15, Timeout: 0.05, TimeoutDelay: 50 * time.Microsecond,
		ShortRead: 0.2, Duplicate: 0.15}
	if os.Getenv("TRAC_CHAOS") != "" {
		f = gridsim.Faults{ReadError: 0.3, Timeout: 0.1, TimeoutDelay: 100 * time.Microsecond,
			ShortRead: 0.3, Duplicate: 0.3}
	}
	return f
}

func chaosTune(f *Fleet) {
	f.DrainStallLimit = 500
	for _, s := range f.Sniffers {
		s.Retry = RetryPolicy{MaxAttempts: 6, BaseDelay: 100 * time.Microsecond, MaxDelay: time.Millisecond}
		s.sleep = func(time.Duration) {}
		s.breaker = NewBreaker(8, 2*time.Millisecond)
	}
}

// TestChaosDrainExactlyOnce is the acceptance test for fault-tolerant
// ingestion: every source's log injects transient read errors, timeouts,
// short reads, and duplicated records, one sniffer is "crashed" and
// restarted mid-stream from its durable offset, and the drained database
// must still be byte-for-byte identical to a fault-free reference run —
// zero lost events, zero duplicated events.
func TestChaosDrainExactlyOnce(t *testing.T) {
	simCfg := gridsim.Config{Machines: 6, Schedulers: 2, Seed: 77, JobRate: 1.2, HeartbeatEvery: 3}

	// Reference: same simulated grid, no faults, plain drain.
	refDB := newDB(t)
	refSim, err := gridsim.New(simCfg)
	if err != nil {
		t.Fatal(err)
	}
	refFleet := NewFleet(refDB, refSim)
	if err := refSim.Run(60); err != nil {
		t.Fatal(err)
	}
	if err := refFleet.DrainAll(); err != nil {
		t.Fatal(err)
	}
	want := dumpTables(t, refDB)
	if len(want) == 0 {
		t.Fatal("reference run produced no rows")
	}

	// Chaos: identical grid, every log wrapped in a FaultyLog.
	var faulty []*gridsim.FaultyLog
	chaosCfg := simCfg
	chaosCfg.NewLog = func(machine string) (gridsim.Log, error) {
		f := chaosFaults()
		f.Seed = int64(1000 + len(faulty)) // distinct per source, deterministic across runs
		fl := gridsim.NewFaultyLog(gridsim.NewMemoryLog(), f)
		faulty = append(faulty, fl)
		return fl, nil
	}
	db := newDB(t)
	sim, err := gridsim.New(chaosCfg)
	if err != nil {
		t.Fatal(err)
	}
	fleet := NewFleet(db, sim)
	chaosTune(fleet)

	// First half of the stream, partially drained under faults.
	if err := sim.Run(30); err != nil {
		t.Fatal(err)
	}
	if err := fleet.DrainAll(); err != nil {
		t.Fatalf("mid-stream drain: %v", err)
	}

	// Crash Tao1's sniffer: its in-memory offset is lost. A brand-new
	// sniffer over the same DB must resume from the durable offset.
	m0 := sim.Machines()[0]
	crashed := fleet.Sniffers[0].Health() // counters die with the process
	fleet.Sniffers[0] = New(db, m0.Name, m0.Log)
	chaosTune(fleet)

	// Second half, then the final drain.
	if err := sim.Run(30); err != nil {
		t.Fatal(err)
	}
	if err := fleet.DrainAll(); err != nil {
		t.Fatalf("final drain: %v", err)
	}

	got := dumpTables(t, db)
	if len(got) != len(want) {
		t.Fatalf("chaos run has %d rows, reference has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d differs:\nchaos: %s\nref:   %s", i, got[i], want[i])
		}
	}

	// Prove the run actually exercised the fault paths.
	var st gridsim.FaultStats
	for _, fl := range faulty {
		s := fl.Stats()
		st.ReadErrors += s.ReadErrors
		st.Timeouts += s.Timeouts
		st.ShortReads += s.ShortReads
		st.Duplicates += s.Duplicates
	}
	if st.Total() == 0 {
		t.Fatal("chaos run injected zero faults; the test proved nothing")
	}
	t.Logf("injected faults: %+v", st)
	retries, dups := crashed.Retries, crashed.DuplicatesDropped
	for _, h := range fleet.Health() {
		retries += h.Retries
		dups += h.DuplicatesDropped
	}
	t.Logf("fleet absorbed: retries=%d duplicates_dropped=%d", retries, dups)
	if st.Duplicates > 0 && dups == 0 {
		t.Error("duplicates were injected but none were dropped")
	}
}
