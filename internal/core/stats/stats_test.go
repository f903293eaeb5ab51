package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if !approx(Mean([]float64{1, 2, 3}), 2) {
		t.Error("Mean wrong")
	}
	if !approx(Mean([]float64{-1, 1}), 0) {
		t.Error("Mean of symmetric set")
	}
}

func TestStdDev(t *testing.T) {
	if StdDev(nil) != 0 {
		t.Error("StdDev(nil) != 0")
	}
	if !approx(StdDev([]float64{5, 5, 5}), 0) {
		t.Error("constant set stddev != 0")
	}
	// Population stddev of {2,4,4,4,5,5,7,9} is exactly 2.
	if !approx(StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}), 2) {
		t.Errorf("StdDev = %v, want 2", StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}))
	}
}

func TestZScores(t *testing.T) {
	zs := ZScores([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if !approx(zs[0], -1.5) { // (2-5)/2
		t.Errorf("z[0] = %v, want -1.5", zs[0])
	}
	if !approx(zs[7], 2) { // (9-5)/2
		t.Errorf("z[7] = %v, want 2", zs[7])
	}
	// Constant data: all zeros, no division by zero.
	for _, z := range ZScores([]float64{3, 3, 3}) {
		if z != 0 {
			t.Error("constant data should have zero z-scores")
		}
	}
	if len(ZScores(nil)) != 0 {
		t.Error("ZScores(nil) should be empty")
	}
}

func TestRange(t *testing.T) {
	if Range(nil) != 0 {
		t.Error("Range(nil) != 0")
	}
	if !approx(Range([]float64{3, 9, 1, 4}), 8) {
		t.Error("Range wrong")
	}
}

func TestOutliers(t *testing.T) {
	// 99 values near 100, one at 0: the zero is the outlier.
	xs := make([]float64, 100)
	for i := 0; i < 99; i++ {
		xs[i] = 100 + float64(i%3)
	}
	xs[99] = 0
	normal, exceptional := Outliers(xs, DefaultZThreshold)
	if len(exceptional) != 1 || exceptional[0] != 99 {
		t.Errorf("exceptional = %v", exceptional)
	}
	if len(normal) != 99 {
		t.Errorf("normal = %d", len(normal))
	}
	// No outliers in tight data.
	n2, e2 := Outliers([]float64{1, 2, 3}, DefaultZThreshold)
	if len(e2) != 0 || len(n2) != 3 {
		t.Errorf("tight data: normal=%v exceptional=%v", n2, e2)
	}
}

func TestOutliersPartitionProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, math.Mod(x, 1e6))
			}
		}
		normal, exceptional := Outliers(xs, DefaultZThreshold)
		if len(normal)+len(exceptional) != len(xs) {
			return false
		}
		// Chebyshev: less than 1/9 of values may be exceptional at k=3
		// (strictly: at most 1/k^2).
		if len(xs) > 0 && float64(len(exceptional)) > float64(len(xs))/9.0+1 {
			return false
		}
		seen := make(map[int]bool)
		for _, i := range append(append([]int{}, normal...), exceptional...) {
			if seen[i] {
				return false
			}
			seen[i] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestChebyshevBound(t *testing.T) {
	if !approx(ChebyshevBound(3), 8.0/9.0) {
		t.Errorf("ChebyshevBound(3) = %v", ChebyshevBound(3))
	}
	if ChebyshevBound(1) != 0 || ChebyshevBound(0.5) != 0 {
		t.Error("k<=1 should bound at 0")
	}
}

func TestMedianAndMAD(t *testing.T) {
	if Median(nil) != 0 || MAD(nil) != 0 {
		t.Error("empty input should yield 0")
	}
	if !approx(Median([]float64{3, 1, 2}), 2) {
		t.Errorf("Median odd = %v", Median([]float64{3, 1, 2}))
	}
	if !approx(Median([]float64{4, 1, 2, 3}), 2.5) {
		t.Errorf("Median even = %v", Median([]float64{4, 1, 2, 3}))
	}
	// MAD of {1,2,3,4,100}: median 3, deviations {2,1,0,1,97}, MAD 1.
	if !approx(MAD([]float64{1, 2, 3, 4, 100}), 1) {
		t.Errorf("MAD = %v", MAD([]float64{1, 2, 3, 4, 100}))
	}
	// Median must not mutate input.
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 {
		t.Error("Median mutated its input")
	}
}

func TestOutliersMADDetectsSmallSampleOutlier(t *testing.T) {
	// Ten tight values and one dead source: classical z-score CANNOT flag
	// it (max |z| = 10/sqrt(11) < 3 is the paper's own 11-source edge), but
	// MAD does.
	xs := []float64{100, 101, 102, 100, 101, 102, 100, 101, 102, 101, 0}
	_, excZ := Outliers(xs, DefaultZThreshold)
	normal, excMAD := OutliersMAD(xs, 0)
	if len(excMAD) != 1 || excMAD[0] != 10 {
		t.Errorf("MAD exceptional = %v, want [10]", excMAD)
	}
	if len(normal) != 10 {
		t.Errorf("MAD normal = %d", len(normal))
	}
	// Demonstrate the masking contrast for a 10-sample variant.
	xs10 := xs[1:]
	_, excZ10 := Outliers(xs10, DefaultZThreshold)
	if len(excZ10) != 0 {
		t.Errorf("z-score in N=10 cannot flag anything at threshold 3, got %v", excZ10)
	}
	_ = excZ
}

func TestOutliersMADDegenerateSpread(t *testing.T) {
	// Majority constant: MAD = 0; the deviant is exceptional.
	normal, exc := OutliersMAD([]float64{5, 5, 5, 5, 9}, 0)
	if len(exc) != 1 || exc[0] != 4 || len(normal) != 4 {
		t.Errorf("normal=%v exceptional=%v", normal, exc)
	}
	// All constant: nothing exceptional.
	normal, exc = OutliersMAD([]float64{5, 5, 5}, 0)
	if len(exc) != 0 || len(normal) != 3 {
		t.Errorf("constant: normal=%v exceptional=%v", normal, exc)
	}
}

// TestOutliersMatchesZScores: Outliers classifies as the |z| of ZScores
// does, each index once, both lists ascending.
func TestOutliersMatchesZScores(t *testing.T) {
	f := func(raw []float64, dead uint8) bool {
		xs := make([]float64, 0, len(raw)+int(dead%4))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, math.Mod(x, 1e3))
			}
		}
		for i := 0; i < int(dead%4); i++ {
			xs = append(xs, -1e6) // dead sources, far below the rest
		}
		normal, exceptional := Outliers(xs, DefaultZThreshold)
		var wantN, wantE []int
		for i, z := range ZScores(xs) {
			if math.Abs(z) >= DefaultZThreshold {
				wantE = append(wantE, i)
			} else {
				wantN = append(wantN, i)
			}
		}
		return slices.Equal(normal, wantN) && slices.Equal(exceptional, wantE)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestOutliersAllocatesOnce: classifying a wide report's 5,000 recencies
// makes one slice for both index lists, whatever their split.
func TestOutliersAllocatesOnce(t *testing.T) {
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = 1e9 + float64(i%97)
	}
	for i := 0; i < 40; i++ {
		xs[i*100] = 0 // forty dead sources
	}
	if n := testing.AllocsPerRun(20, func() { Outliers(xs, DefaultZThreshold) }); n > 1 {
		t.Errorf("Outliers over %d values: %v allocations, want 1", len(xs), n)
	}
	if n := testing.AllocsPerRun(20, func() { OutliersMAD(xs, 0) }); n > 4 {
		t.Errorf("OutliersMAD over %d values: %v allocations, want at most 4 (three for the two medians, one for the indexes)", len(xs), n)
	}
	normal, exceptional := Outliers(xs, DefaultZThreshold)
	if len(exceptional) != 40 || len(normal) != len(xs)-40 {
		t.Errorf("%d normal, %d exceptional, want %d and 40", len(normal), len(exceptional), len(xs)-40)
	}
}
