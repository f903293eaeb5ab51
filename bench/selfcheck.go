package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// benchmarkJSON is the part of BENCHMARK.json the selfcheck reads.
type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runOnce runs this binary on one workload and returns the result it
// printed. A process of its own keeps peak RSS and the allocation counters
// of one run out of the next.
func runOnce(o options, workload string, seconds int) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-out", o.out, "-workload", workload,
		"-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.Itoa(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("%s: %d of %d operations failed", workload, res.Failed, res.Attempted)
	}
	return &res, nil
}

// runSelfcheck runs the whole benchmark sets x runs times on this binary
// and prints, per workload and end-to-end metric, each set's median, how
// far the later sets' medians are from the first's in the worse direction,
// the bound, and whether the difference is inside it.
func runSelfcheck(o options, sets, runs int) error {
	// BENCHMARK.json sits two levels above the out directory (bench/out).
	raw, err := os.ReadFile(filepath.Join(filepath.Dir(filepath.Dir(o.out)), "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(raw, &spec); err != nil {
		return err
	}
	// medians[workload][metric] holds one median per set.
	medians := map[string]map[string][]float64{}
	for set := 0; set < sets; set++ {
		for _, w := range spec.Workloads {
			samples := map[string][]float64{}
			for run := 0; run < runs; run++ {
				res, err := runOnce(o, w.Name, spec.RunSeconds)
				if err != nil {
					return err
				}
				for name, m := range res.Metrics {
					samples[name] = append(samples[name], m.Value)
				}
				fmt.Fprintf(os.Stderr, "set %d %s run %d done\n", set+1, w.Name, run+1)
			}
			if medians[w.Name] == nil {
				medians[w.Name] = map[string][]float64{}
			}
			for name, xs := range samples {
				medians[w.Name][name] = append(medians[w.Name][name], median(xs))
			}
		}
	}
	fmt.Printf("seed %d, %d sets of %d runs, %d s each\n\n", o.seed, sets, runs, spec.RunSeconds)
	fmt.Println("| workload | metric | set medians | worse by | bound | |")
	fmt.Println("|---|---|---|---|---|---|")
	failed := false
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			ms := medians[w.Name][m.Name]
			worse := 0.0
			for _, later := range ms[1:] {
				diff := (later - ms[0]) / ms[0]
				if m.Better == "higher" {
					diff = -diff
				}
				worse = max(worse, diff)
			}
			verdict := "PASS"
			if worse > m.Bound {
				verdict, failed = "FAIL", true
			}
			fmt.Printf("| %s | %s | %.6g | %.4f | %.3f | %s |\n", w.Name, m.Name, ms, worse, m.Bound, verdict)
		}
	}
	if failed {
		return fmt.Errorf("selfcheck: a set median moved by more than its bound")
	}
	return nil
}
