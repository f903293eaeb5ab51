package benchharness

import "testing"

func aggScenarioNamed(b *testing.B, name string) *aggScenario {
	b.Helper()
	scenarios, err := storageDataset(b).AggScenarios()
	if err != nil {
		b.Fatal(err)
	}
	for _, sc := range scenarios {
		if sc.Name == name {
			return sc
		}
	}
	b.Fatalf("no scenario %q", name)
	return nil
}

func BenchmarkStatAggregate(b *testing.B) {
	sc := aggScenarioNamed(b, "stat-covered")
	runSide(b, sc.InputRows, sc.Opt)
}

func BenchmarkSerialGroupByMerge(b *testing.B) {
	sc := aggScenarioNamed(b, "parallel-merge")
	runSide(b, sc.InputRows, sc.Base)
}

func BenchmarkParallelGroupByMerge(b *testing.B) {
	sc := aggScenarioNamed(b, "parallel-merge")
	runSide(b, sc.InputRows, sc.Opt)
}

// TestAggScenariosAgree is the correctness gate for the aggregation
// benchmark pairs: identical cardinalities on both sides, and the covered
// scenario must actually answer every segment from stats (a silent
// fall-back to scanning would measure nothing while still "passing").
func TestAggScenariosAgree(t *testing.T) {
	d, err := BuildStorageDataset(20_000, 100, 1_024)
	if err != nil {
		t.Fatal(err)
	}
	scenarios, err := d.AggScenarios()
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scenarios {
		baseN, err := sc.Base()
		if err != nil {
			t.Fatalf("%s baseline side: %v", sc.Name, err)
		}
		aggN, err := sc.Opt()
		if err != nil {
			t.Fatalf("%s optimized side: %v", sc.Name, err)
		}
		if baseN != aggN {
			t.Errorf("%s: baseline %d rows, optimized %d", sc.Name, baseN, aggN)
		}
		if baseN == 0 {
			t.Errorf("%s: empty result, scenario measures nothing", sc.Name)
		}
		if sc.StatSegments != nil {
			if *sc.StatSegments == 0 || *sc.Scanned != 0 {
				t.Errorf("%s: %d segments from stats, %d scanned; want all folded",
					sc.Name, *sc.StatSegments, *sc.Scanned)
			}
		}
	}
}
