// Package stats provides the small statistical helpers the experiment
// harness needs: means, quantiles, and sample collections.
package stats

import (
	"math"
	"sort"

	"tcplp/internal/blocks"
)

// Sample is a collection of float64 observations, kept in a blocks.List:
// a long run's latency sample allocates about what it holds, and a sample
// of a few observations is as small as a slice of them. The zero value is
// empty and ready to use.
type Sample struct {
	obs    blocks.List[float64]
	sorted bool
}

// Add appends an observation.
func (s *Sample) Add(x float64) {
	s.obs.Push(x)
	s.sorted = false
}

// Reset empties the sample and keeps its blocks, so refilling it
// allocates nothing until it outgrows them.
func (s *Sample) Reset() {
	s.obs.Reset()
	s.sorted = false
}

// N returns the number of observations.
func (s *Sample) N() int { return s.obs.Len() }

// Mean returns the arithmetic mean (0 for an empty sample). It sums in
// storage order: Add order, or ascending once a Quantile has sorted the
// observations in place.
func (s *Sample) Mean() float64 {
	n := s.obs.Len()
	if n == 0 {
		return 0
	}
	sum := 0.0
	for b := 0; b < s.obs.Blocks(); b++ {
		for _, x := range s.obs.Block(b) {
			sum += x
		}
	}
	return sum / float64(n)
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) by nearest-rank. The
// first call after an Add sorts the blocks in place, as one array.
func (s *Sample) Quantile(q float64) float64 {
	n := s.obs.Len()
	if n == 0 {
		return 0
	}
	if !s.sorted {
		sort.Sort(ascending{&s.obs})
		s.sorted = true
	}
	idx := int(q * float64(n-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return s.obs.At(idx)
}

// ascending sorts a Sample's observations across its blocks.
type ascending struct{ *blocks.List[float64] }

func (a ascending) Less(i, j int) bool { return a.At(i) < a.At(j) }
func (a ascending) Swap(i, j int) {
	x, y := a.Ptr(i), a.Ptr(j)
	*x, *y = *y, *x
}

// Median returns the 0.5 quantile.
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// Max returns the largest observation.
func (s *Sample) Max() float64 { return s.Quantile(1) }

// JainIndex returns Jain's fairness index (Σx)² / (n·Σx²) for the given
// allocations: 1.0 when all shares are equal, approaching 1/n as one
// flow starves the rest. An empty or all-zero input returns 0.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// MeanStdDev returns the arithmetic mean and population standard
// deviation of xs in one pass (0, 0 for an empty input).
func MeanStdDev(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	sum := 0.0
	for _, x := range xs {
		d := x - mean
		sum += d * d
	}
	return mean, math.Sqrt(sum / float64(len(xs)))
}

// CI95 returns the half-width of the 95% confidence interval of the
// mean of xs, t₀.₉₇₅(n−1)·s/√n with s the sample (n−1) standard
// deviation. The Student-t quantile matters exactly where the harness
// lives — 3-5 seeds per point — where the normal approximation's 1.96
// understates the interval by 40% and more. Fewer than two
// observations carry no spread information, so the result is 0.
func CI95(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	_, sd := MeanStdDev(xs)
	// MeanStdDev returns the population σ (divide by n); rescale to the
	// sample standard deviation the t-interval is defined over.
	sample := sd * math.Sqrt(float64(n)/float64(n-1))
	return TQuantile975(n-1) * sample / math.Sqrt(float64(n))
}

// t975 holds t₀.₉₇₅ for 1-30 degrees of freedom.
var t975 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// TQuantile975 returns the 97.5th-percentile Student-t quantile for df
// degrees of freedom: tabulated through df 30, then the asymptotic
// expansion around the normal quantile (accurate to ~1e-4 there).
func TQuantile975(df int) float64 {
	if df < 1 {
		return 0
	}
	if df <= len(t975) {
		return t975[df-1]
	}
	const z = 1.959963984540054 // Φ⁻¹(0.975)
	v := float64(df)
	z3 := z * z * z
	z5 := z3 * z * z
	return z + (z3+z)/(4*v) + (5*z5+16*z3+3*z)/(96*v*v)
}
