// Command tracbench regenerates the paper's evaluation:
//
//	tracbench -figure 1            # Figure 1: overhead vs data ratio, Q1–Q4
//	tracbench -figure 2            # Figure 2: absolute times for Q1/Q3
//	tracbench -fpr                 # the §5.2 false-positive-rate table
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
	flag.Parse()

	if *all {
		*figure = 1
		*fpr = true
	}
	if *figure == 0 && !*fpr {
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
