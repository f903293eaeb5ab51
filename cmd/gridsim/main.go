// Command gridsim runs the full monitoring pipeline end to end: a simulated
// grid writes per-machine event logs (to files under -logdir, or in memory),
// a fleet of sniffers loads them into a TRAC database, and monitoring
// queries with recency reports print as the simulation progresses.
//
//	gridsim -machines 50 -ticks 200 -fail Tao7:60 -fail Tao9:100
//
// fails Tao7 at tick 60 and Tao9 at tick 100 (they stop logging), which the
// final report surfaces as exceptional data sources.
//
// With -faults RATE every machine's log injects transient read errors, short
// reads, and duplicated records at roughly that rate; the sniffers absorb
// them with retry, circuit breakers, and in-batch dedup, and a per-source
// health table prints at the end. Poll errors degrade the run instead of
// aborting it.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"trac"
	"trac/internal/gridsim"
	"trac/internal/sniffer"
)

type failFlag struct {
	machine string
	tick    int
}

type failList []failFlag

func (f *failList) String() string { return fmt.Sprint([]failFlag(*f)) }

func (f *failList) Set(s string) error {
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		return fmt.Errorf("expected machine:tick, got %q", s)
	}
	tick, err := strconv.Atoi(parts[1])
	if err != nil {
		return err
	}
	*f = append(*f, failFlag{machine: parts[0], tick: tick})
	return nil
}

func main() {
	machines := flag.Int("machines", 20, "number of grid machines")
	schedulers := flag.Int("schedulers", 2, "number of scheduler machines")
	ticks := flag.Int("ticks", 120, "virtual ticks to simulate")
	seed := flag.Int64("seed", 2006, "simulation seed")
	jobRate := flag.Float64("jobs", 1.0, "expected job submissions per tick")
	logdir := flag.String("logdir", "", "write machine logs to files in this directory (default: in memory)")
	dir := flag.String("dir", "", "keep the database in this durable directory (recovers what it holds)")
	pollEvery := flag.Int("poll", 5, "sniffers poll every N ticks")
	reportEvery := flag.Int("report", 40, "print a monitoring report every N ticks")
	faultRate := flag.Float64("faults", 0, "inject transient log faults at this rate per read (0 disables)")
	faultSeed := flag.Int64("faultseed", 1, "base seed for fault injection")
	var fails failList
	flag.Var(&fails, "fail", "machine:tick to fail (repeatable)")
	flag.Parse()

	db := trac.Open()
	if *dir != "" {
		var err error
		if db, err = trac.OpenDir(*dir); err != nil {
			fatal(err)
		}
		defer func() {
			if err := db.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "gridsim: close:", err)
			}
		}()
	}
	// Idempotent: a recovered directory already holds the tables, and the
	// API-level source-column and domain metadata is re-applied either way.
	if err := sniffer.InstallSchema(db.Engine()); err != nil {
		fatal(err)
	}

	cfg := gridsim.Config{
		Machines:       *machines,
		Schedulers:     *schedulers,
		Seed:           *seed,
		JobRate:        *jobRate,
		HeartbeatEvery: 4,
	}
	if *logdir != "" {
		if err := os.MkdirAll(*logdir, 0o755); err != nil {
			fatal(err)
		}
		cfg.NewLog = func(machine string) (gridsim.Log, error) {
			return gridsim.NewFileLog(*logdir, machine)
		}
	}
	var faulty []*gridsim.FaultyLog
	if *faultRate > 0 {
		base := cfg.NewLog
		if base == nil {
			base = func(string) (gridsim.Log, error) { return gridsim.NewMemoryLog(), nil }
		}
		cfg.NewLog = func(machine string) (gridsim.Log, error) {
			inner, err := base(machine)
			if err != nil {
				return nil, err
			}
			fl := gridsim.NewFaultyLog(inner, gridsim.Faults{
				ReadError: *faultRate,
				ShortRead: *faultRate,
				Duplicate: *faultRate / 2,
				Seed:      *faultSeed + int64(len(faulty)),
			})
			faulty = append(faulty, fl)
			return fl, nil
		}
	}
	sim, err := gridsim.New(cfg)
	if err != nil {
		fatal(err)
	}
	defer sim.Close()
	fleet := sniffer.NewFleet(db.Engine(), sim)

	failAt := map[int][]string{}
	for _, f := range fails {
		failAt[f.tick] = append(failAt[f.tick], f.machine)
	}

	for tick := 1; tick <= *ticks; tick++ {
		for _, m := range failAt[tick] {
			if err := sim.Fail(m); err != nil {
				fatal(err)
			}
			fmt.Printf("-- tick %d: machine %s FAILED (stops logging)\n", tick, m)
		}
		if err := sim.Tick(); err != nil {
			fatal(err)
		}
		if tick%*pollEvery == 0 {
			// A failing source degrades the fleet (retry, breaker, health
			// surface); it must not abort the run.
			if _, err := fleet.PollAll(); err != nil {
				fmt.Printf("-- tick %d: degraded poll: %v\n", tick, err)
			}
		}
		if tick%*reportEvery == 0 {
			printReport(db, tick)
		}
	}
	if err := fleet.DrainAll(); err != nil {
		fmt.Printf("-- degraded drain (some sources still behind): %v\n", err)
	}
	fmt.Printf("\n=== final state after %d ticks ===\n", *ticks)
	printReport(db, *ticks)

	// Job accounting.
	res, err := db.Query(`SELECT COUNT(*) FROM JobLog WHERE event = 'finish'`)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("finished jobs recorded: %v (of %d submitted)\n", res.Rows[0][0], len(sim.Jobs()))

	printHealth(fleet, faulty)
}

// printHealth renders the fleet's per-source ingestion health, plus the
// injected-fault totals when fault injection was on.
func printHealth(fleet *sniffer.Fleet, faulty []*gridsim.FaultyLog) {
	fmt.Printf("\n%-10s %-13s %-8s %-8s %-8s %-6s %-5s %s\n",
		"source", "status", "offset", "applied", "retries", "trips", "dups", "recency")
	for _, h := range fleet.Health() {
		rec := "-"
		if !h.LastRecency.IsZero() {
			rec = h.LastRecency.Format("2006-01-02 15:04:05")
		}
		fmt.Printf("%-10s %-13s %-8d %-8d %-8d %-6d %-5d %s\n",
			h.Source, h.Status, h.Offset, h.Applied, h.Retries, h.Trips, h.DuplicatesDropped, rec)
	}
	if len(faulty) > 0 {
		var st gridsim.FaultStats
		for _, fl := range faulty {
			s := fl.Stats()
			st.ReadErrors += s.ReadErrors
			st.Timeouts += s.Timeouts
			st.ShortReads += s.ShortReads
			st.Duplicates += s.Duplicates
			st.AppendErrors += s.AppendErrors
		}
		fmt.Printf("injected faults: %d read errors, %d timeouts, %d short reads, %d duplicates\n",
			st.ReadErrors, st.Timeouts, st.ShortReads, st.Duplicates)
	}
}

func printReport(db *trac.DB, tick int) {
	sess := db.NewSession()
	defer sess.Close()
	rep, err := sess.RecencyReport(`SELECT mach_id, value FROM Activity WHERE value = 'busy'`,
		trac.WithoutTempTables())
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\n--- tick %d: busy machines = %d, relevant sources = %d",
		tick, len(rep.Result.Rows), len(rep.Normal)+len(rep.Exceptional))
	if len(rep.Exceptional) > 0 {
		var ids []string
		for _, sr := range rep.Exceptional {
			ids = append(ids, sr.Sid)
		}
		fmt.Printf(", EXCEPTIONAL: %v", ids)
	}
	if len(rep.Normal) > 0 {
		fmt.Printf(", bound of inconsistency %v", rep.Bound)
	}
	fmt.Println()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gridsim:", err)
	os.Exit(1)
}
