package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke runs every workload, untraced and traced, on tiny datasets for a
// fraction of a second, and holds what they emit against BENCHMARK.json: the
// same workload names, and per mode exactly the declared metrics, with the
// declared units, well-formed names and finite values.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []declared `json:"workloads"`
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(spec.Workloads), len(workloadNames))
	}
	out := t.TempDir()
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, w.Name, workloadNames[i])
		}
		for _, mode := range []struct {
			trace bool
			want  []declared
		}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
			res, prov, err := measure(options{workload: w.Name, seed: 7, seconds: 0.1, trace: mode.trace, out: out, tiny: true})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, mode.trace, err)
			}
			// res.Correct is not asserted: on a dataset this small the
			// traced run's coverage check has nothing steady to compare.
			if res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %s",
					w.Name, mode.trace, res.Failed, res.Attempted, prov.FirstError)
			}
			if len(res.Metrics) != len(mode.want) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w.Name, mode.trace, len(res.Metrics), len(mode.want))
			}
			for _, d := range mode.want {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: declared metric %s not emitted", w.Name, mode.trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s: %s has unit %q, declared %q", w.Name, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: %s is %v", w.Name, d.Name, m.Value)
				case !nameRE.MatchString(d.Name):
					t.Errorf("metric name %q is malformed", d.Name)
				}
			}
		}
	}
}
