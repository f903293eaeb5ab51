package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"trac"
	"trac/internal/core/report"
	"trac/internal/gridsim"
	"trac/internal/sniffer"
)

// ingest_durable: a durable database directory fed by the grid simulator
// through one sniffer per machine, with dashboard refreshes over what was
// just written. The truth is counted from the machines' event logs, which
// are the benchmark's inputs, never from the database.

const (
	gridSeed         = 1
	ingestMachines   = 200
	ingestTicks      = 3   // simulator ticks per cycle
	ingestPreload    = 800 // ticks loaded during set-up, so refreshes never see empty tables
	checkpointEvery  = 20  // cycles
	ingestPerLeg     = 4
	ingestCounted    = 48 // blocks the counted metrics cover
	ingestDirPattern = "ingest-*"
)

// The statement forms of an ingest_durable refresh.
const (
	kJobsOf      stmtKind = iota + 16 // JobLog rows of one recently written machine
	kBusy                             // machines whose current state is busy
	kEventCounts                      // JobLog rows per event, over the growing tail
	kBusyJoin                         // JobLog rows of busy machines
)

type ingestDriver struct {
	dir   string
	db    *trac.DB
	sim   *gridsim.Simulator
	fleet *sniffer.Fleet
	door  *embeddedDoor
	stage *stagedPipeline
	rng   *rand.Rand

	// The truth, from the event logs.
	offsets    []int
	jobEvents  []int32 // per machine, 1-based
	busy       []bool
	eventCount map[gridsim.EventType]int64
	recent     []int // machines with job events in the last cycle
	cycles     int

	stmts [][]gstmt // this block's refreshes
	runner

	seen  []uint32 // stamp per machine, for set checks without clearing
	stamp uint32

	applied        int64
	walBytes       int64 // over every epoch's log
	diskBytes      int64 // the directory, after the final close
	pollMS, ckptMS []float64
	lagMax         int
	reopenMS       float64
}

func setupIngest(o options) (driver, error) {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.out, ingestDirPattern)
	if err != nil {
		return nil, err
	}
	machines, preload := ingestMachines, ingestPreload
	if o.tiny {
		machines, preload = 20, 40
	}
	g := &ingestDriver{dir: dir, rng: rand.New(rand.NewSource(o.seed)),
		offsets: make([]int, machines+1), jobEvents: make([]int32, machines+1), busy: make([]bool, machines+1),
		seen:       make([]uint32, machines+1),
		eventCount: make(map[gridsim.EventType]int64)}
	if g.db, err = trac.OpenDir(filepath.Join(dir, "db")); err != nil {
		return nil, err
	}
	if err := sniffer.InstallSchema(g.db.Engine()); err != nil {
		return nil, err
	}
	// The grid's history is the same for every seed: across simulator seeds
	// the event mix, and with it every timed metric, moved by 8 %. The
	// seed picks the machines the refreshes ask about.
	if g.sim, err = gridsim.New(gridsim.Config{Machines: machines, Seed: gridSeed, JobRate: 4, HeartbeatEvery: 4}); err != nil {
		return nil, err
	}
	g.fleet = sniffer.NewFleet(g.db.Engine(), g.sim)
	g.door = &embeddedDoor{db: g.db, opts: []trac.Option{trac.WithoutTempTables()}}
	if o.trace {
		g.stage = newStagedPipeline(g.db.Engine(), nil, report.Config{SkipTempTables: true})
	}
	if err := g.sim.Run(preload); err != nil {
		return nil, err
	}
	if err := g.fleet.DrainAll(); err != nil {
		return nil, err
	}
	if err := g.readLogs(); err != nil {
		return nil, err
	}
	g.makeRefreshes()
	return g, nil
}

func (g *ingestDriver) perLeg() int      { return ingestPerLeg }
func (g *ingestDriver) countBlocks() int { return ingestCounted }
func (g *ingestDriver) flushPolicy() string {
	return "OpenDir default: every commit written to the OS, fsync only at checkpoint and close"
}

// readLogs advances the truth over what the machines logged since the last
// call. It runs after every poll, when the sniffers have applied all of it.
func (g *ingestDriver) readLogs() error {
	g.recent = g.recent[:0]
	for i, m := range g.sim.Machines() {
		n := i + 1
		events, next, err := m.Log.ReadFrom(g.offsets[n])
		if err != nil {
			return err
		}
		g.offsets[n] = next
		wrote := false
		for _, e := range events {
			switch e.Type {
			case gridsim.StatusEvent:
				g.busy[n] = e.Value == "busy"
			case gridsim.SubmitEvent, gridsim.RouteEvent, gridsim.StartEvent, gridsim.FinishEvent:
				g.jobEvents[n]++
				g.eventCount[e.Type]++
				wrote = true
			}
		}
		if wrote {
			g.recent = append(g.recent, n)
		}
	}
	return nil
}

func (g *ingestDriver) walSize() int64 {
	info, err := os.Stat(filepath.Join(g.db.Engine().Dir(), fmt.Sprintf("wal.%d.log", g.db.Engine().Epoch())))
	if err != nil {
		return 0
	}
	return info.Size()
}

// ingest is one cycle: the grid runs a few ticks, every sniffer polls once,
// and every checkpointEvery-th cycle a checkpoint is taken. All three are
// timed as ingest.
func (g *ingestDriver) ingest(int) (int, time.Duration, error) {
	t0 := time.Now()
	if err := g.sim.Run(ingestTicks); err != nil {
		return 0, 0, err
	}
	p0 := time.Now()
	n, err := g.fleet.PollAll()
	g.pollMS = append(g.pollMS, ms(time.Since(p0)))
	if err != nil {
		return n, time.Since(t0), err
	}
	g.cycles++
	if g.cycles%checkpointEvery == 0 {
		g.walBytes += g.walSize()
		c0 := time.Now()
		if err := g.db.CheckpointDir(); err != nil {
			return n, time.Since(t0), err
		}
		g.ckptMS = append(g.ckptMS, ms(time.Since(c0)))
	}
	d := time.Since(t0)
	g.applied += int64(n)
	for _, s := range g.fleet.Sniffers {
		lag, err := s.Lag()
		if err != nil {
			return n, d, err
		}
		g.lagMax = max(g.lagMax, lag)
	}
	if err := g.readLogs(); err != nil {
		return n, d, err
	}
	g.makeRefreshes()
	return n, d, nil
}

// makeRefreshes writes this block's refreshes: the point statement of each
// names a machine that wrote in the last cycle.
func (g *ingestDriver) makeRefreshes() {
	g.stmts = g.stmts[:0]
	for i := 0; i < ingestPerLeg; i++ {
		m := 1 + g.rng.Intn(len(g.busy)-1)
		if len(g.recent) > 0 {
			m = g.recent[g.rng.Intn(len(g.recent))]
		}
		g.stmts = append(g.stmts, []gstmt{
			{kind: kJobsOf, srcs: []int{m}, sql: `SELECT job_id, event FROM JobLog WHERE mach_id = '` + gridsim.MachineName(m) + `'`},
			{kind: kBusy, sql: `SELECT mach_id, value FROM Activity WHERE value = 'busy'`},
			{kind: kEventCounts, sql: `SELECT event, COUNT(*) FROM JobLog GROUP BY event`},
			{kind: kBusyJoin, sql: `SELECT COUNT(*) FROM JobLog J, Activity A WHERE J.mach_id = A.mach_id AND A.value = 'busy'`},
		})
	}
}

func (g *ingestDriver) refresh(id int, reports bool) error {
	return g.run(g.door, g.stmts[id%ingestPerLeg], reports)
}

func (g *ingestDriver) hasReference() bool  { return false }
func (g *ingestDriver) reference(int) error { return nil }
func (g *ingestDriver) probe() error        { return nil }

func (g *ingestDriver) staged(id int, tr *tracer) error {
	return g.stage.refresh(tr, g.stmts[id%ingestPerLeg])
}

// check: row counts from the logs; relevant sources by Definitions 1 and 2.
// Any machine can log a busy status or a job event, so every machine is
// relevant to kBusy and kEventCounts. For kBusyJoin a machine is relevant
// through JobLog if its Activity row says busy, and through Activity if it
// has JobLog rows a busy status would join.
func (g *ingestDriver) check(acc *truth) error {
	machines := len(g.busy) - 1
	for i, st := range g.lastSt {
		a := &g.last[i]
		// relevant says whether machine n is relevant to this statement.
		relevant := func(int) bool { return true }
		switch st.kind {
		case kJobsOf:
			if got, want := len(a.rows), int(g.jobEvents[st.srcs[0]]); got != want {
				return fmt.Errorf("%s: %d rows, want %d", st.sql, got, want)
			}
			relevant = func(n int) bool { return n == st.srcs[0] }
		case kBusy:
			want := 0
			for n := 1; n <= machines; n++ {
				if g.busy[n] {
					want++
				}
			}
			if len(a.rows) != want {
				return fmt.Errorf("%s: %d rows, want %d", st.sql, len(a.rows), want)
			}
		case kEventCounts:
			if len(a.rows) != len(g.eventCount) {
				return fmt.Errorf("%s: %d groups, want %d", st.sql, len(a.rows), len(g.eventCount))
			}
			for _, r := range a.rows {
				if want := g.eventCount[gridsim.EventType(r[0].Str())]; r[1].Int() != want {
					return fmt.Errorf("%s: %s count %d, want %d", st.sql, r[0].Str(), r[1].Int(), want)
				}
			}
		case kBusyJoin:
			want := int64(0)
			for n := 1; n <= machines; n++ {
				if g.busy[n] {
					want += int64(g.jobEvents[n])
				}
			}
			if got := countOf(a.rows); got != want {
				return fmt.Errorf("%s: count %d, want %d", st.sql, got, want)
			}
			relevant = func(n int) bool { return g.busy[n] || g.jobEvents[n] > 0 }
		}
		if a.emb == nil {
			continue
		}
		g.stamp++
		reported := 0
		a.eachSource(func(sid string) {
			if n := sourceNumber(sid); n >= 1 && n <= machines {
				g.seen[n] = g.stamp
			}
			reported++
		})
		want, missing := 0, 0
		for n := 1; n <= machines; n++ {
			if relevant(n) {
				want++
				if g.seen[n] != g.stamp {
					missing++
				}
			}
		}
		if missing > 0 {
			return fmt.Errorf("%s: %d of %d relevant sources missing from the report", st.sql, missing, want)
		}
		acc.note(reported, want, a.timing())
	}
	return nil
}

// finish closes the database, opens the directory again and compares what
// recovery produced with what the sniffers were told was applied.
func (g *ingestDriver) finish() error {
	g.walBytes += g.walSize()
	if err := g.db.Close(); err != nil {
		return err
	}
	g.diskBytes = dirBytes(g.db.Engine().Dir())
	t0 := time.Now()
	db, err := trac.OpenDir(g.db.Engine().Dir())
	if err != nil {
		return err
	}
	g.reopenMS = ms(time.Since(t0))
	g.db = db
	jobRows := int64(0)
	for _, n := range g.eventCount {
		jobRows += n
	}
	for _, c := range []struct {
		table string
		want  int64
	}{
		{"JobLog", jobRows},
		{"S", g.eventCount[gridsim.SubmitEvent]},
		{"Activity", int64(len(g.busy) - 1)},
		{"Heartbeat", int64(len(g.busy) - 1)},
	} {
		res, err := db.Query(`SELECT COUNT(*) FROM ` + c.table)
		if err != nil {
			return err
		}
		if got := countOf(res.Rows); got != c.want {
			return fmt.Errorf("after reopen %s has %d rows, %d were acknowledged", c.table, got, c.want)
		}
	}
	return nil
}

func (g *ingestDriver) close() error {
	err := g.db.Close()
	if rmErr := os.RemoveAll(g.dir); err == nil {
		err = rmErr
	}
	return err
}

func (g *ingestDriver) layerStats(m map[string]float64, _, _ float64) {
	retries := 0
	for _, h := range g.fleet.Health() {
		retries += h.Retries
	}
	rows := float64(g.applied)
	m["sniffer.pollall_ms"] = median(g.pollMS)
	m["sniffer.rows_applied"] = rows
	m["sniffer.retries"] = float64(retries)
	m["sniffer.lag_rows"] = float64(g.lagMax)
	m["engine.wal_bytes_per_row"] = ratio(float64(g.walBytes), rows)
	m["engine.checkpoint_ms"] = median(g.ckptMS)
	m["engine.checkpoint_count"] = float64(len(g.ckptMS))
	m["engine.reopen_ms"] = g.reopenMS
	m["engine.disk_bytes_per_row"] = ratio(float64(g.diskBytes), rows)
	g.stage.layerStats(m)
}
