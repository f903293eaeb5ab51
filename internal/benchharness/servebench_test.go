package benchharness

import (
	"testing"
	"time"

	tracclient "trac/client/trac"
	"trac/internal/server"
)

// TestServeBenchSmall runs the full servebench shape at toy scale and
// checks the report's structural guarantees: every cell present, no hard
// errors, the overload section showing real shedding with bounded p99.
func TestServeBenchSmall(t *testing.T) {
	rep, err := RunServeBench(2000, 100, 64, []int{1, 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantCells := 4 * 2 // scenarios × client counts
	if len(rep.Results) != wantCells {
		t.Fatalf("got %d cells, want %d", len(rep.Results), wantCells)
	}
	for _, r := range rep.Results {
		if r.OK == 0 {
			t.Errorf("%s @ %d clients: no successful requests", r.Scenario, r.Clients)
		}
		if r.Errors != 0 {
			t.Errorf("%s @ %d clients: %d hard errors", r.Scenario, r.Clients, r.Errors)
		}
		if r.P99Ms < r.P50Ms {
			t.Errorf("%s @ %d clients: p99 %.3f < p50 %.3f", r.Scenario, r.Clients, r.P99Ms, r.P50Ms)
		}
		if r.Clients > 1 && r.GoMaxProcs < 2 && !r.Degenerate {
			t.Errorf("%s @ %d clients on GOMAXPROCS=%d must be labeled degenerate",
				r.Scenario, r.Clients, r.GoMaxProcs)
		}
	}
	win := rep.PreparedWin
	if win == nil {
		t.Fatal("no prepared-win section")
	}
	// The wall ratio is wire-overhead-diluted and noisy at toy scale, but the
	// server-reported generation component must show the plan-cache win: a
	// prepared execute is a cache lookup, an unprepared report a full
	// parse + classification + generation.
	if win.GenSpeedup < 1.5 {
		t.Errorf("prepared gen speedup %.2fx (prepared %.1fµs, unprepared %.1fµs); plan cache not engaging",
			win.GenSpeedup, win.PreparedGenP50Us, win.UnpreparedGenP50Us)
	}
	ov := rep.Overload
	if ov == nil {
		t.Fatal("no overload section")
	}
	if ov.Shed == 0 || ov.SchedShed == 0 {
		t.Errorf("overload never shed: client-side %d, sched %d", ov.Shed, ov.SchedShed)
	}
	if ov.OK == 0 {
		t.Error("overload starved every request; admitted work should still complete")
	}
	// Bounded p99: an admitted request waits at most ~queue/workers query
	// times + the admission timeout; 250ms is an order of magnitude of slack
	// over that for a point query on 2000 rows even on a loaded 1-core CI
	// box. Unbounded queueing would blow far past this.
	if ov.P99Ms > 250 {
		t.Errorf("overload p99 %.1fms not bounded (queue=%d workers=%d admit=%s)",
			ov.P99Ms, ov.QueueDepth, ov.Workers, ov.AdmitTimeout)
	}
	if _, err := MarshalServeBench(rep); err != nil {
		t.Fatal(err)
	}
}

// benchServeOp measures one wire round trip per iteration.
func benchServeOp(b *testing.B, setup func(c *tracclient.Client) (func() error, error)) {
	b.Helper()
	_, addr, stop, err := launchServeBench(2000, 100, server.SchedConfig{AdmissionTimeout: time.Minute})
	if err != nil {
		b.Fatal(err)
	}
	defer stop()
	c, err := tracclient.Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	op, err := setup(c)
	if err != nil {
		b.Fatal(err)
	}
	if err := op(); err != nil { // warm up
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServePointQuery(b *testing.B) {
	benchServeOp(b, serveScenarios(100)[0].Setup)
}

func BenchmarkServePreparedReport(b *testing.B) {
	benchServeOp(b, serveScenarios(100)[1].Setup)
}

func BenchmarkServeUnpreparedReport(b *testing.B) {
	benchServeOp(b, serveScenarios(100)[2].Setup)
}
