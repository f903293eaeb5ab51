package benchharness

import (
	"sync"
	"testing"
)

// Shared 200k-row source-clustered dataset, sealed into default-size
// segments: 1k sources at 200 rows each, ~49 segments.
var (
	storageBenchOnce sync.Once
	storageBenchData *StorageDataset
	storageBenchErr  error
)

func storageDataset(b *testing.B) *StorageDataset {
	b.Helper()
	storageBenchOnce.Do(func() {
		storageBenchData, storageBenchErr = BuildStorageDataset(200_000, 1_000, 0)
	})
	if storageBenchErr != nil {
		b.Fatal(storageBenchErr)
	}
	return storageBenchData
}

func storageScenarioNamed(b *testing.B, name string) *storageScenario {
	b.Helper()
	scenarios, err := storageDataset(b).StorageScenarios()
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

// runSide times one side of a scenario, reporting ns per input row.
func runSide(b *testing.B, inputRows int, fn func() (int, error)) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fn(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*inputRows), "ns/row")
}

func BenchmarkColumnarSourceProbe(b *testing.B) {
	sc := storageScenarioNamed(b, "source-probe")
	runSide(b, sc.InputRows, sc.Opt)
}

func BenchmarkColumnarTimeRange(b *testing.B) {
	sc := storageScenarioNamed(b, "time-range")
	runSide(b, sc.InputRows, sc.Opt)
}

func BenchmarkColumnarHalfFilter(b *testing.B) {
	sc := storageScenarioNamed(b, "half-filter")
	runSide(b, sc.InputRows, sc.Opt)
}

// TestStorageScenariosAgree is the correctness gate for the storage
// benchmark pairs: identical cardinalities, and the selective scenarios
// must actually engage zone-map pruning (a silent 0-pruned run would
// measure nothing interesting while still "passing").
func TestStorageScenariosAgree(t *testing.T) {
	d, err := BuildStorageDataset(20_000, 100, 1_024)
	if err != nil {
		t.Fatal(err)
	}
	scenarios, err := d.StorageScenarios()
	if err != nil {
		t.Fatal(err)
	}
	wantPruned := map[string]bool{
		"source-probe": true, "source-set": true, "time-range": true,
		"half-filter": false,
	}
	for _, sc := range scenarios {
		baseN, err := sc.Base()
		if err != nil {
			t.Fatalf("%s unpruned side: %v", sc.Name, err)
		}
		segN, err := sc.Opt()
		if err != nil {
			t.Fatalf("%s pruned side: %v", sc.Name, err)
		}
		if baseN != segN {
			t.Errorf("%s: unpruned %d rows, pruned %d", sc.Name, baseN, segN)
		}
		if baseN == 0 {
			t.Errorf("%s: empty result, scenario measures nothing", sc.Name)
		}
		if want := wantPruned[sc.Name]; (*sc.Pruned > 0) != want {
			t.Errorf("%s: pruned %d segments (scanned %d), want pruning=%v",
				sc.Name, *sc.Pruned, *sc.Scanned, want)
		}
	}
}
