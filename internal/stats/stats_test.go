package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestBasics(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Median() != 0 {
		t.Fatal("empty sample not zero")
	}
	for _, v := range []float64{4, 1, 3, 2, 5} {
		s.Add(v)
	}
	if s.N() != 5 || s.Mean() != 3 || s.Median() != 3 {
		t.Fatalf("n=%d mean=%v median=%v", s.N(), s.Mean(), s.Median())
	}
	if s.Quantile(0) != 1 || s.Max() != 5 {
		t.Fatalf("min=%v max=%v", s.Quantile(0), s.Max())
	}
}

func TestQuantiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if q := s.Quantile(0.9); q < 89 || q > 91 {
		t.Fatalf("p90 = %v", q)
	}
	// Adding after sorting must keep results correct.
	s.Add(1000)
	if s.Max() != 1000 {
		t.Fatalf("max after late add = %v", s.Max())
	}
}

func TestJainIndex(t *testing.T) {
	if j := JainIndex(nil); j != 0 {
		t.Fatalf("empty = %v", j)
	}
	if j := JainIndex([]float64{0, 0}); j != 0 {
		t.Fatalf("all-zero = %v", j)
	}
	if j := JainIndex([]float64{5, 5, 5}); math.Abs(j-1) > 1e-12 {
		t.Fatalf("equal shares = %v", j)
	}
	// One flow takes everything: index falls to 1/n.
	if j := JainIndex([]float64{10, 0, 0, 0}); math.Abs(j-0.25) > 1e-12 {
		t.Fatalf("starved = %v", j)
	}
	// 2:1 split of two flows: (3)²/(2·5) = 0.9.
	if j := JainIndex([]float64{2, 1}); math.Abs(j-0.9) > 1e-12 {
		t.Fatalf("2:1 = %v", j)
	}
}

func TestMeanStdDev(t *testing.T) {
	if m, sd := MeanStdDev(nil); m != 0 || sd != 0 {
		t.Fatalf("empty = %v, %v", m, sd)
	}
	if m, sd := MeanStdDev([]float64{7}); m != 7 || sd != 0 {
		t.Fatalf("single = %v, %v", m, sd)
	}
	m, sd := MeanStdDev([]float64{4, 1, 3, 2, 5})
	if m != 3 || math.Abs(sd-math.Sqrt(2)) > 1e-12 {
		t.Fatalf("mean=%v std=%v", m, sd)
	}
	// Must agree with the Sample methods on the same data.
	var s Sample
	for _, v := range []float64{4, 1, 3, 2, 5} {
		s.Add(v)
	}
	if s.Mean() != m {
		t.Fatalf("Sample disagrees: %v vs %v", s.Mean(), m)
	}
}

func TestCI95(t *testing.T) {
	if ci := CI95(nil); ci != 0 {
		t.Fatalf("empty = %v", ci)
	}
	// A single observation has no spread information.
	if ci := CI95([]float64{42}); ci != 0 {
		t.Fatalf("single = %v", ci)
	}
	// Sample variance s² = 2.5, n = 5, df = 4: half-width
	// t₀.₉₇₅(4)·√2.5/√5.
	xs := []float64{4, 1, 3, 2, 5}
	want := 2.776 * math.Sqrt(2.5) / math.Sqrt(5)
	if ci := CI95(xs); math.Abs(ci-want) > 1e-12 {
		t.Fatalf("ci = %v, want %v", ci, want)
	}
	// Identical observations: zero-width interval.
	if ci := CI95([]float64{3, 3, 3, 3}); ci != 0 {
		t.Fatalf("constant sample ci = %v", ci)
	}
}

func TestTQuantile975(t *testing.T) {
	// The Student-t quantile must dominate the normal quantile and
	// shrink toward it: at 2 seeds (df 1) the honest interval is 6.5x
	// the normal one, exactly the regime the multi-seed tables run in.
	if got := TQuantile975(1); got != 12.706 {
		t.Fatalf("df=1: %v", got)
	}
	if got := TQuantile975(4); got != 2.776 {
		t.Fatalf("df=4: %v", got)
	}
	prev := math.Inf(1)
	for df := 1; df <= 200; df++ {
		q := TQuantile975(df)
		if q > prev+1e-9 {
			t.Fatalf("df=%d: quantile %v not monotone (prev %v)", df, q, prev)
		}
		if q < 1.9599 {
			t.Fatalf("df=%d: quantile %v below the normal limit", df, q)
		}
		prev = q
	}
	// Continuity across the table/expansion boundary and convergence to
	// the normal quantile.
	if d := TQuantile975(30) - TQuantile975(31); d < 0 || d > 0.01 {
		t.Fatalf("table→expansion step = %v", d)
	}
	if q := TQuantile975(10000); math.Abs(q-1.95996) > 1e-3 {
		t.Fatalf("df=10000: %v, want ≈1.96", q)
	}
	if q := TQuantile975(0); q != 0 {
		t.Fatalf("df=0: %v", q)
	}
	// Spot-check the expansion against the published df=60 value 2.000.
	if q := TQuantile975(60); math.Abs(q-2.000) > 2e-3 {
		t.Fatalf("df=60: %v, want ≈2.000", q)
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var s Sample
		for i := 0; i < int(n%50)+2; i++ {
			s.Add(rng.NormFloat64() * 100)
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := s.Quantile(q)
			if v < prev || v < s.Quantile(0) || v > s.Max() {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// sampleSizes are the sizes the property test fills: empty, one, either
// side of the first and last boundary of blocks.List's doubling ramp (16
// and 496 observations) and of its first full block (1008), and many
// blocks, past the 64th too.
var sampleSizes = []int{
	0, 1, 15, 16, 17,
	495, 496, 497,
	1007, 1008, 1009,
	496 + 7*512 + 3, 496 + 70*512 + 3,
}

// checkAgainstSlice compares s with a plain slice of the same
// observations in Add order: Mean sums in that order until the first
// quantile, Quantile is the nearest rank of the sorted slice, and after
// it Mean sums in sorted order. s must not have been sorted since its
// last Add.
func checkAgainstSlice(t *testing.T, s *Sample, xs []float64) {
	t.Helper()
	mean := func(v []float64) float64 {
		if len(v) == 0 {
			return 0
		}
		sum := 0.0
		for _, x := range v {
			sum += x
		}
		return sum / float64(len(v))
	}
	if s.N() != len(xs) {
		t.Fatalf("N() = %d, want %d", s.N(), len(xs))
	}
	if got, want := s.Mean(), mean(xs); got != want {
		t.Fatalf("n=%d: Mean() = %v before sorting, want %v", len(xs), got, want)
	}
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	nearest := func(q float64) float64 {
		if len(sorted) == 0 {
			return 0
		}
		return sorted[min(max(int(q*float64(len(sorted)-1)), 0), len(sorted)-1)]
	}
	for _, q := range []float64{0, 0.01, 0.1, 0.25, 0.5, 0.9, 0.99, 1} {
		if got, want := s.Quantile(q), nearest(q); got != want {
			t.Fatalf("n=%d: Quantile(%v) = %v, want %v", len(xs), q, got, want)
		}
	}
	if s.Median() != nearest(0.5) || s.Max() != nearest(1) {
		t.Fatalf("n=%d: Median %v / Max %v, want %v / %v", len(xs), s.Median(), s.Max(), nearest(0.5), nearest(1))
	}
	if got, want := s.Mean(), mean(sorted); got != want {
		t.Fatalf("n=%d: Mean() = %v after sorting, want %v", len(xs), got, want)
	}
}

// TestSampleMatchesSortedSlice checks Sample against a plain slice at
// every size of sampleSizes, with distinct values and with many ties,
// after a Reset and refill to a different size, and with Adds after a
// Quantile.
func TestSampleMatchesSortedSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	draws := map[string]func() float64{
		"distinct": func() float64 { return rng.ExpFloat64() * 1e3 },
		"ties":     func() float64 { return float64(rng.Intn(5)) / 4 },
	}
	for name, draw := range draws {
		fill := func(s *Sample, n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = draw()
				s.Add(xs[i])
			}
			return xs
		}
		var reused Sample
		for i, n := range sampleSizes {
			var s Sample
			checkAgainstSlice(t, &s, fill(&s, n))

			// Reset keeps the blocks; refilled to a neighbouring size
			// the sample is the new observations alone.
			reused.Reset()
			checkAgainstSlice(t, &reused, fill(&reused, sampleSizes[len(sampleSizes)-1-i]))

			// Adds after a quantile land behind the sorted ones.
			xs := fill(&s, n/2+1)
			all := make([]float64, 0, s.N())
			for k := 0; k < s.N(); k++ {
				all = append(all, s.obs.At(k))
			}
			if !slices.Equal(all[len(all)-len(xs):], xs) {
				t.Fatalf("%s n=%d: late Adds not stored in order behind the sorted sample", name, n)
			}
			checkAgainstSlice(t, &s, all)
		}
	}
}

// TestSampleAllocs: a Reset sample refilled to its old size, sorted and
// averaged, allocates nothing. (That a Sample allocates only when it
// opens a block is blocks.List's, and tested there.)
func TestSampleAllocs(t *testing.T) {
	var s Sample
	const n = 496 + 2*512 + 5
	for i := 0; i < n; i++ {
		s.Add(float64(i))
	}
	if a := testing.AllocsPerRun(20, func() {
		s.Reset()
		for i := 0; i < n; i++ {
			s.Add(float64(n - i))
		}
		s.Quantile(0.9)
		s.Mean()
	}); a != 0 {
		t.Fatalf("Reset and a same-size refill allocate %v per run", a)
	}
}
