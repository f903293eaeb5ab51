package planner

import (
	"strings"
	"testing"

	"trac/internal/exec"
)

// TestExplainReportsSegmentPruning seals a clustered table and checks the
// vectorized-scan note: EXPLAIN reports how many sealed segments the scan
// predicate prunes via zone maps and how many unsealed tail rows remain.
func TestExplainReportsSegmentPruning(t *testing.T) {
	p, mgr := fixture(t)
	tbl, err := p.Catalog.Get("Activity")
	if err != nil {
		t.Fatal(err)
	}
	// The fixture loads 20 rows with event_time 1s..20s in order: sealing
	// in 5-row chunks yields 4 segments with disjoint time ranges.
	tbl.SetSealThreshold(5)
	if tbl.Seal(); tbl.NumSegments() != 4 {
		t.Fatalf("sealed %d segments, want 4", tbl.NumSegments())
	}

	// event_time < 6s admits only the first segment: 3 of 4 pruned.
	pl := plan(t, p, mgr, `SELECT value FROM Activity WHERE event_time < '1970-01-01 00:00:06'`)
	desc := pl.Describe()
	if !strings.Contains(desc, "segments 3/4 pruned, tail 0 rows") {
		t.Errorf("explain lacks pruning note:\n%s", desc)
	}
	rows, err := exec.Drain(pl.Root)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Errorf("pruned plan returned %d rows, want 5", len(rows))
	}

	// An unprunable predicate still reports the segment layout, 0 pruned.
	pl = plan(t, p, mgr, `SELECT value FROM Activity WHERE value <> 'zzz'`)
	if desc := pl.Describe(); !strings.Contains(desc, "segments 0/4 pruned") {
		t.Errorf("explain lacks 0-pruned note:\n%s", desc)
	}

	// An index scan reads no segment by segment: its note never mentions
	// them.
	pl = plan(t, p, mgr, `SELECT value FROM Activity WHERE mach_id = 'm3'`)
	if desc := pl.Describe(); !strings.Contains(desc, "index scan") || strings.Contains(desc, "segments") {
		t.Errorf("index-scan explain:\n%s", desc)
	}
}
