// Command tracbench regenerates the paper's evaluation:
//
//	tracbench -figure 1            # Figure 1: overhead vs data ratio, Q1–Q4
//	tracbench -figure 2            # Figure 2: absolute times for Q1/Q3
//	tracbench -fpr                 # the §5.2 false-positive-rate table
//	tracbench -storagebench        # zone-map pruning vs unpruned scan microbench
//	tracbench -aggbench            # aggregation pushdown/parallelism microbench
//	tracbench -recoverybench       # durable-directory recovery microbench
//	tracbench -shardbench          # sharded scatter-gather vs single-shard microbench
//	tracbench -servebench          # wire-protocol serving latency/QPS + overload shedding
//	tracbench -all                 # everything
//
// The sweep defaults to 1,000,000 Activity rows (the paper used 10,000,000
// on 2006 hardware); pass -total 10000000 to match the paper exactly.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"trac/internal/benchharness"
)

func main() {
	figure := flag.Int("figure", 0, "which figure to regenerate (1 or 2); 0 skips")
	fpr := flag.Bool("fpr", false, "regenerate the false-positive-rate table")
	all := flag.Bool("all", false, "regenerate every figure and table")
	total := flag.Int("total", 1_000_000, "total Activity rows (paper: 10000000)")
	iters := flag.Int("iterations", 3, "measurement iterations per point (paper: 10)")
	ratios := flag.String("ratios", "", "comma-separated data ratios (default: powers of 10)")
	fprSources := flag.Int("fpr-sources", 100_000, "source count for the fpr table (paper: 100000)")
	quiet := flag.Bool("quiet", false, "suppress progress output")
	csv := flag.Bool("csv", false, "emit machine-readable CSV instead of tables")
	chart := flag.Bool("chart", false, "also draw ASCII log-log charts for Figure 1")
	storagebench := flag.Bool("storagebench", false, "run the zone-map pruning storage microbenchmarks")
	storageOut := flag.String("storage-o", "BENCH_storage.json", "output path for the -storagebench report")
	segSize := flag.Int("segment-size", 0, "segment size for -storagebench/-aggbench (0 = storage default)")
	aggbench := flag.Bool("aggbench", false, "run the aggregation pushdown/parallelism microbenchmarks")
	aggOut := flag.String("agg-o", "BENCH_agg.json", "output path for the -aggbench report")
	recoverybench := flag.Bool("recoverybench", false, "run the durable-directory recovery microbenchmarks")
	recoveryOut := flag.String("recovery-o", "BENCH_recovery.json", "output path for the -recoverybench report")
	tailRows := flag.Int("tail-rows", 0, "post-checkpoint WAL tail rows for -recoverybench (0 = total/100)")
	shardbench := flag.Bool("shardbench", false, "run the sharded scatter-gather microbenchmarks")
	shardOut := flag.String("shard-o", "BENCH_shard.json", "output path for the -shardbench report")
	shardCounts := flag.String("shard-counts", "1,4,8", "comma-separated shard counts for -shardbench (first must be 1)")
	servebench := flag.Bool("servebench", false, "run the wire-protocol serving benchmarks")
	serveOut := flag.String("serve-o", "BENCH_serve.json", "output path for the -servebench report")
	serveClients := flag.String("serve-clients", "1,8,64,256", "comma-separated client counts for -servebench")
	serveRequests := flag.Int("serve-requests", 0, "requests per -servebench cell (0 = default 1024)")
	flag.Parse()

	if *all {
		*figure = 1
		*fpr = true
		*storagebench = true
		*aggbench = true
		*recoverybench = true
		*shardbench = true
		*servebench = true
	}
	if *figure == 0 && !*fpr && !*storagebench && !*aggbench && !*recoverybench && !*shardbench && !*servebench {
		flag.Usage()
		os.Exit(2)
	}

	var ratioList []int
	if *ratios != "" {
		for _, s := range strings.Split(*ratios, ",") {
			r, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fmt.Fprintf(os.Stderr, "bad ratio %q: %v\n", s, err)
				os.Exit(2)
			}
			ratioList = append(ratioList, r)
		}
	}

	if *figure == 1 || *figure == 2 || *all {
		cfg := benchharness.SweepConfig{
			TotalRows:  *total,
			Ratios:     ratioList,
			Iterations: *iters,
		}
		if !*quiet {
			cfg.Progress = os.Stderr
		}
		points, err := benchharness.RunSweep(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sweep failed:", err)
			os.Exit(1)
		}
		if *csv {
			fmt.Print(benchharness.CSV(points))
		} else {
			if *figure == 1 || *all {
				fmt.Println(benchharness.RenderFigure1(points))
				if *chart {
					fmt.Println(benchharness.RenderFigure1Chart(points))
				}
			}
			if *figure == 2 || *all {
				fmt.Println(benchharness.RenderFigure2(points, 0))
			}
		}
	}

	if *storagebench {
		progress := func(string) {}
		if !*quiet {
			progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
		}
		report, err := benchharness.RunStorageBench(*total, 1_000, *segSize, *iters, progress)
		if err != nil {
			fmt.Fprintln(os.Stderr, "storagebench failed:", err)
			os.Exit(1)
		}
		out, err := benchharness.MarshalStorageBench(report)
		if err != nil {
			fmt.Fprintln(os.Stderr, "storagebench marshal failed:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*storageOut, out, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "storagebench write failed:", err)
			os.Exit(1)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "wrote %s\n", *storageOut)
		}
	}

	if *aggbench {
		progress := func(string) {}
		if !*quiet {
			progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
		}
		report, err := benchharness.RunAggBench(*total, 1_000, *segSize, *iters, progress)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aggbench failed:", err)
			os.Exit(1)
		}
		out, err := benchharness.MarshalAggBench(report)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aggbench marshal failed:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*aggOut, out, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "aggbench write failed:", err)
			os.Exit(1)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "wrote %s\n", *aggOut)
		}
	}

	if *recoverybench {
		progress := func(string) {}
		if !*quiet {
			progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
		}
		report, err := benchharness.RunRecoveryBench(*total, *tailRows, *iters, progress)
		if err != nil {
			fmt.Fprintln(os.Stderr, "recoverybench failed:", err)
			os.Exit(1)
		}
		out, err := benchharness.MarshalRecoveryBench(report)
		if err != nil {
			fmt.Fprintln(os.Stderr, "recoverybench marshal failed:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*recoveryOut, out, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "recoverybench write failed:", err)
			os.Exit(1)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "wrote %s\n", *recoveryOut)
		}
	}

	if *shardbench {
		progress := func(string) {}
		if !*quiet {
			progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
		}
		var counts []int
		for _, s := range strings.Split(*shardCounts, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fmt.Fprintf(os.Stderr, "bad shard count %q: %v\n", s, err)
				os.Exit(2)
			}
			counts = append(counts, n)
		}
		report, err := benchharness.RunShardBench(*total, 1_000, *iters, counts, progress)
		if err != nil {
			fmt.Fprintln(os.Stderr, "shardbench failed:", err)
			os.Exit(1)
		}
		out, err := benchharness.MarshalShardBench(report)
		if err != nil {
			fmt.Fprintln(os.Stderr, "shardbench marshal failed:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*shardOut, out, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "shardbench write failed:", err)
			os.Exit(1)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "wrote %s\n", *shardOut)
		}
	}

	if *servebench {
		progress := func(string) {}
		if !*quiet {
			progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
		}
		var counts []int
		for _, s := range strings.Split(*serveClients, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fmt.Fprintf(os.Stderr, "bad client count %q: %v\n", s, err)
				os.Exit(2)
			}
			counts = append(counts, n)
		}
		// The serving workload sizes its own dataset (default 20k rows); the
		// sweep's -total is the figure-1 scale, far too slow per request here.
		report, err := benchharness.RunServeBench(0, 0, *serveRequests, counts, progress)
		if err != nil {
			fmt.Fprintln(os.Stderr, "servebench failed:", err)
			os.Exit(1)
		}
		out, err := benchharness.MarshalServeBench(report)
		if err != nil {
			fmt.Fprintln(os.Stderr, "servebench marshal failed:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*serveOut, out, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "servebench write failed:", err)
			os.Exit(1)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "wrote %s\n", *serveOut)
		}
	}

	if *fpr {
		// The fpr does not depend on rows per source; 10 keeps it fast even
		// at the paper's 100,000 sources.
		rows, err := benchharness.RunFPRTable(*fprSources, 10)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fpr run failed:", err)
			os.Exit(1)
		}
		if *csv {
			fmt.Print(benchharness.FPRCSV(rows))
		} else {
			fmt.Println(benchharness.RenderFPRTable(rows))
		}
	}
}
