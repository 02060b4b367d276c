package container

import (
	"math/rand"
	"testing"
)

// seqInt is a bare sequence number as a ring element.
type seqInt uint64

func (s seqInt) Seq() uint64 { return uint64(s) }

func ringOf(cap int, seqs ...uint64) *Ring[seqInt] {
	r := &Ring[seqInt]{}
	r.Init(cap)
	for _, s := range seqs {
		r.Push(seqInt(s))
	}
	return r
}

func seqs(r *Ring[seqInt]) []uint64 {
	out := make([]uint64, r.Len())
	for i := range out {
		out[i] = uint64(r.At(i))
	}
	return out
}

func equal(x, y []uint64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

func TestRingFIFO(t *testing.T) {
	r := ringOf(4, 1, 2, 3)
	if r.Len() != 3 || r.Head() != 1 || r.At(2) != 3 {
		t.Fatalf("ring state: len=%d head=%d", r.Len(), r.Head())
	}
	if v := r.PopFront(); v != 1 {
		t.Fatalf("PopFront = %d, want 1", v)
	}
	r.Push(seqInt(4))
	r.Push(seqInt(5)) // wraps
	if !equal(seqs(r), []uint64{2, 3, 4, 5}) {
		t.Fatalf("after wrap: %v", seqs(r))
	}
	if !r.Full() {
		t.Fatal("ring should be full")
	}
}

func TestRingFlushFrom(t *testing.T) {
	r := ringOf(8, 1, 2, 5, 9)
	r.FlushFrom(5)
	if !equal(seqs(r), []uint64{1, 2}) {
		t.Fatalf("after FlushFrom(5): %v", seqs(r))
	}
	r.FlushFrom(0)
	if r.Len() != 0 {
		t.Fatalf("FlushFrom(0) left %d entries", r.Len())
	}
}

func TestRingSelectOldest(t *testing.T) {
	r := ringOf(8, 1, 2, 3, 4)
	var visited []uint64
	r.SelectOldest(func(v seqInt) Verdict {
		visited = append(visited, uint64(v))
		if v == 3 {
			return Keep // a kept head blocks everything younger
		}
		return Take
	})
	if !equal(visited, []uint64{1, 2, 3}) {
		t.Fatalf("visited %v, want [1 2 3]", visited)
	}
	if !equal(seqs(r), []uint64{3, 4}) {
		t.Fatalf("survivors %v, want [3 4]", seqs(r))
	}
}

// TestRingSelectWindowMatchesMask pins SelectWindow against the
// RemoveMarked-style reference compaction it replaces: random take sets
// over random window/occupancy/wrap states must leave identical rings.
func TestRingSelectWindowMatchesMask(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 2000; trial++ {
		cap := 1 + rng.Intn(12)
		n := rng.Intn(cap + 1)
		rot := rng.Intn(cap) // exercise wrapped layouts
		r := ringOf(cap)
		for i := 0; i < rot; i++ {
			r.Push(seqInt(0))
			r.PopFront()
		}
		var model []uint64
		for i := 0; i < n; i++ {
			s := uint64(trial*100 + i)
			r.Push(seqInt(s))
			model = append(model, s)
		}
		window := rng.Intn(n + 2)
		if window > n {
			window = n
		}
		take := make(map[uint64]bool)
		stopAt := -1
		for i := 0; i < window; i++ {
			if rng.Intn(4) == 0 && stopAt < 0 && rng.Intn(3) == 0 {
				stopAt = i
			}
			take[model[i]] = rng.Intn(2) == 0
		}
		var visited int
		r.SelectWindow(window, func(v seqInt) Verdict {
			if visited == stopAt {
				visited++
				return Stop
			}
			visited++
			if take[uint64(v)] {
				return Take
			}
			return Keep
		})
		// Reference: drop taken entries among the examined prefix.
		examined := window
		if stopAt >= 0 && stopAt < window {
			examined = stopAt
		}
		var want []uint64
		for i, s := range model {
			if i < examined && take[s] {
				continue
			}
			want = append(want, s)
		}
		if !equal(seqs(r), want) {
			t.Fatalf("trial %d: ring %v, want %v (window %d, stop %d)", trial, seqs(r), want, window, stopAt)
		}
	}
}

func TestRingSelectWindowZeroAlloc(t *testing.T) {
	r := ringOf(64)
	for i := 0; i < 48; i++ {
		r.Push(seqInt(uint64(i)))
	}
	allocs := testing.AllocsPerRun(100, func() {
		n := 0
		r.SelectWindow(8, func(v seqInt) Verdict {
			n++
			if n%3 == 0 {
				return Take
			}
			return Keep
		})
		for r.Len() < 48 {
			r.Push(seqInt(uint64(r.Len())))
		}
	})
	if allocs != 0 {
		t.Fatalf("SelectWindow allocates %.1f per run, want 0", allocs)
	}
}
