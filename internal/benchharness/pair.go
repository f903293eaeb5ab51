package benchharness

import (
	"fmt"
	"runtime"
	"time"

	"trac/internal/exec"
	"trac/internal/sqlparser"
)

// PairScenario is one baseline-vs-optimized measurement, the unit of the
// storage and aggregation microbenchmarks. Each side runs the same logical
// pipeline to completion and returns its output row count (a correctness
// cross-check between the two sides).
type PairScenario struct {
	Name      string
	InputRows int // rows entering the pipeline per run
	Workers   int // >0 when the optimized side fans out across goroutines
	Base, Opt func() (int, error)
}

// PairResult is one measured pair. A parallel scenario measured on a box
// that cannot run its workers concurrently is labeled degenerate rather than
// silently reported as a ~1x "speedup".
type PairResult struct {
	Name         string
	InputRows    int
	OutputRows   int
	GoMaxProcs   int
	Workers      int
	Degenerate   bool
	Label        string
	BaseNsPerRow float64
	OptNsPerRow  float64
	Speedup      float64
}

// DegenerateParallel reports whether a scenario that wants `workers`
// concurrent goroutines cannot get any real concurrency at the current
// GOMAXPROCS, and the label to attach to its measurement if so.
func DegenerateParallel(workers int) (bool, string) {
	procs := runtime.GOMAXPROCS(0)
	if workers > 1 && procs < 2 {
		return true, fmt.Sprintf("degenerate: %d workers time-sliced on GOMAXPROCS=%d; measures fan-out overhead, not scaling", workers, procs)
	}
	return false, ""
}

func compileExpr(src string, layout *exec.Layout) (exec.Evaluator, error) {
	e, err := sqlparser.ParseExpr(src)
	if err != nil {
		return nil, err
	}
	return exec.Compile(e, layout)
}

// countBatches drains an operator, counting selected rows.
func countBatches(op exec.BatchOperator) (int, error) {
	if err := op.Open(); err != nil {
		return 0, err
	}
	defer op.Close()
	n := 0
	for {
		b, err := op.NextBatch()
		if err != nil {
			return 0, err
		}
		if b == nil {
			return n, nil
		}
		n += b.Len()
		exec.PutBatch(b)
	}
}

// MeasurePair times both sides of a scenario and cross-checks that they
// produced the same output cardinality. The sides are interleaved — GC
// settle, one baseline run, one optimized run, per iteration, keeping each
// side's fastest — so both sides see the same heap state; timing one side to
// completion first hands the other a grown heap and a different GC pacing,
// which skews allocation-heavy scenarios by tens of ns/row.
func MeasurePair(sc *PairScenario, iterations int) (*PairResult, error) {
	baseOut, optOut := 0, 0
	var baseTime, optTime time.Duration
	// Untimed warm-up of each side.
	if _, err := sc.Base(); err != nil {
		return nil, err
	}
	if _, err := sc.Opt(); err != nil {
		return nil, err
	}
	run := func(side func() (int, error), out *int, best *time.Duration) error {
		runtime.GC()
		start := time.Now()
		n, err := side()
		d := time.Since(start)
		if err != nil {
			return err
		}
		*out = n
		if *best == 0 || d < *best {
			*best = d
		}
		return nil
	}
	for i := 0; i < iterations; i++ {
		if err := run(sc.Base, &baseOut, &baseTime); err != nil {
			return nil, err
		}
		if err := run(sc.Opt, &optOut, &optTime); err != nil {
			return nil, err
		}
	}
	if baseOut != optOut {
		return nil, fmt.Errorf("output mismatch: baseline %d vs optimized %d", baseOut, optOut)
	}
	perRow := func(d time.Duration) float64 { return float64(d) / float64(sc.InputRows) }
	degenerate, label := DegenerateParallel(sc.Workers)
	return &PairResult{
		Name: sc.Name, InputRows: sc.InputRows, OutputRows: baseOut,
		GoMaxProcs: runtime.GOMAXPROCS(0), Workers: sc.Workers,
		Degenerate: degenerate, Label: label,
		BaseNsPerRow: perRow(baseTime), OptNsPerRow: perRow(optTime),
		Speedup: float64(baseTime) / float64(optTime),
	}, nil
}
