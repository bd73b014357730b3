package stats

import (
	"math"
	"math/rand"
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
