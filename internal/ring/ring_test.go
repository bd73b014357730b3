package ring

import (
	"math/rand"
	"testing"
)

// TestRingMatchesSlice drives a ring and a plain slice queue with the
// same random pushes and pops across several growths and wrap-arounds,
// reading a random position through At after each.
func TestRingMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var r Ring[int]
	var want []int
	for i := 0; i < 10000; i++ {
		if len(want) > 0 && rng.Intn(100) < 48 {
			if got := r.Pop(); got != want[0] {
				t.Fatalf("step %d: popped %d, want %d", i, got, want[0])
			}
			want = want[1:]
		} else {
			r.Push(i)
			want = append(want, i)
		}
		if r.Len() != len(want) {
			t.Fatalf("step %d: len %d, want %d", i, r.Len(), len(want))
		}
		if len(want) > 0 {
			if k := rng.Intn(len(want)); *r.At(k) != want[k] {
				t.Fatalf("step %d: At(%d) = %d, want %d", i, k, *r.At(k), want[k])
			}
		}
	}
}

func TestRingSteadyStateAllocs(t *testing.T) {
	var r Ring[[4]int]
	for i := 0; i < 5; i++ {
		r.Push([4]int{i})
	}
	if n := testing.AllocsPerRun(100, func() {
		r.Push([4]int{})
		r.Pop()
	}); n != 0 {
		t.Fatalf("%v allocations per push/pop at steady depth", n)
	}
}

func TestRingPopClearsSlot(t *testing.T) {
	var r Ring[*int]
	r.Push(new(int))
	r.Pop()
	if r.buf[0] != nil {
		t.Fatal("popped slot still references its value")
	}
}
