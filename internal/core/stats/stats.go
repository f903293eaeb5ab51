// Package stats implements the descriptive statistics the TRAC reporter
// attaches to query results (§4.3 of the paper): minimum/maximum recency,
// the range ("bound of inconsistency"), and z-score based detection of
// exceptionally out-of-date data sources, justified by the Chebyshev
// theorem (≥ 8/9 of any data set lies within 3 standard deviations).
package stats

import (
	"math"
	"slices"
	"sort"
)

// DefaultZThreshold is the |z| cutoff for flagging an exceptional source,
// the value the paper adopts.
const DefaultZThreshold = 3.0

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation (the paper's σ with
// divisor N).
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	mu := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - mu
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// ZScores returns (x-μ)/σ for each x. When σ is zero every z-score is zero.
func ZScores(xs []float64) []float64 {
	out := make([]float64, len(xs))
	if len(xs) == 0 {
		return out
	}
	mu := Mean(xs)
	sigma := StdDev(xs)
	if sigma == 0 {
		return out
	}
	for i, x := range xs {
		out[i] = (x - mu) / sigma
	}
	return out
}

// Range returns max-min (0 for empty input).
func Range(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	min, max := xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return max - min
}

// Outliers partitions indexes into normal and exceptional by |z| ≥
// threshold. It is the paper's exceptional-data-source detector: recency
// timestamps far below the mean indicate sources suffering a hard
// disconnect or failure, which would otherwise distort the descriptive
// statistics reported for the healthy majority. The z-scores are those of
// ZScores, classified as they are computed.
func Outliers(xs []float64, threshold float64) (normal, exceptional []int) {
	mu, sigma := Mean(xs), StdDev(xs)
	return partition(len(xs), func(i int) bool {
		z := 0.0
		if sigma != 0 {
			z = (xs[i] - mu) / sigma
		}
		return math.Abs(z) >= threshold
	})
}

// partition splits the indexes 0..n-1 into those out rejects and those it
// flags, each ascending, in one allocation: normal fills it from the front,
// exceptional from the back.
func partition(n int, out func(int) bool) (normal, exceptional []int) {
	if n == 0 {
		return nil, nil
	}
	idx := make([]int, n)
	lo, hi := 0, n
	for i := 0; i < n; i++ {
		if out(i) {
			hi--
			idx[hi] = i
		} else {
			idx[lo] = i
			lo++
		}
	}
	slices.Reverse(idx[hi:])
	if lo > 0 {
		normal = idx[:lo:lo]
	}
	if hi < n {
		exceptional = idx[hi:]
	}
	return normal, exceptional
}

// ChebyshevBound returns the minimum fraction of any data set guaranteed to
// lie within k standard deviations of the mean (1 - 1/k²), the bound the
// paper cites to justify the z-score rule.
func ChebyshevBound(k float64) float64 {
	if k <= 1 {
		return 0
	}
	return 1 - 1/(k*k)
}

// Median returns the middle value (average of the two middle values for
// even-sized input); 0 for empty input.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[mid]
	}
	return (sorted[mid-1] + sorted[mid]) / 2
}

// MAD returns the median absolute deviation from the median.
func MAD(xs []float64) float64 {
	return madAround(xs, Median(xs))
}

// madAround is the median absolute deviation of xs from med, its median.
func madAround(xs []float64, med float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	devs := make([]float64, len(xs))
	for i, x := range xs {
		devs[i] = math.Abs(x - med)
	}
	return Median(devs)
}

// DefaultMADThreshold is the conventional modified-z-score cutoff.
const DefaultMADThreshold = 3.5

// madConsistency scales MAD to estimate σ under normality (Iglewicz &
// Hoaglin's 0.6745 factor).
const madConsistency = 0.6745

// OutliersMAD partitions indexes by the modified z-score
// 0.6745·(x−median)/MAD ≥ threshold. The paper notes "there are many
// methods that could be used" for exceptional-source detection; MAD is the
// robust alternative this library offers. Unlike the classical z-score —
// whose maximum attainable value in a sample of N is (N−1)/√N, so a single
// dead source can never be flagged among fewer than ~12 — the MAD detector
// is not masked by the outlier's own contribution to the spread.
func OutliersMAD(xs []float64, threshold float64) (normal, exceptional []int) {
	if threshold == 0 {
		threshold = DefaultMADThreshold
	}
	med := Median(xs)
	mad := madAround(xs, med)
	return partition(len(xs), func(i int) bool {
		if mad == 0 {
			// Degenerate spread: anything not exactly at the median of a
			// constant-majority set is exceptional.
			return xs[i] != med
		}
		return madConsistency*math.Abs(xs[i]-med)/mad >= threshold
	})
}
