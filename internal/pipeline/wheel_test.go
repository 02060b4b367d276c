package pipeline

import (
	"slices"
	"testing"

	"repro/internal/isa"
	"repro/internal/sched"
)

// mkUOp builds a bare μop carrying just the identity and due cycle the
// wheel reads.
func mkUOp(seq, done uint64) *sched.UOp {
	return &sched.UOp{D: &isa.DynInst{Seq: seq}, CompleteCycle: done}
}

// drainBucket pops one due-cycle bucket the way processCompletions does,
// returning the events in their linked order.
func drainBucket(w *completionWheel, cycle uint64) []*sched.UOp {
	u := w.take(cycle)
	var out []*sched.UOp
	for u != nil {
		next := u.WheelNext
		u.WheelNext = nil
		out = append(out, u)
		u = next
	}
	return out
}

func seqs(us []*sched.UOp) []uint64 {
	out := make([]uint64, len(us))
	for i, u := range us {
		out[i] = u.Seq()
	}
	return out
}

// TestWheelNearFIFO: events due the same cycle pop in push order.
func TestWheelNearFIFO(t *testing.T) {
	var w completionWheel
	a, b, c := mkUOp(1, 10), mkUOp(2, 10), mkUOp(3, 10)
	w.push(a, 10, 0)
	w.push(b, 10, 0)
	w.push(c, 10, 0)
	got := drainBucket(&w, 10)
	if len(got) != 3 || got[0] != a || got[1] != b || got[2] != c {
		t.Fatalf("bucket order = %v, want [1 2 3]", seqs(got))
	}
}

// TestWheelFarRehome: an event beyond the near horizon waits in the far
// chain and lands in its bucket at the first rotation that brings its
// due cycle inside the horizon — not earlier, not later.
func TestWheelFarRehome(t *testing.T) {
	var w completionWheel
	done := uint64(2*wheelSpan + 37)
	u := mkUOp(9, done)
	w.push(u, done, 0)
	if w.farHead != u {
		t.Fatal("far event not chained")
	}
	// The rotation at wheelSpan does not cover done ≥ 2*wheelSpan.
	w.rotate(wheelSpan)
	if w.farHead != u {
		t.Fatal("event rehomed a full horizon early")
	}
	w.rotate(2 * wheelSpan)
	if w.farHead != nil || w.farTail != nil {
		t.Fatal("event not rehomed by the covering rotation")
	}
	if got := drainBucket(&w, done); len(got) != 1 || got[0] != u {
		t.Fatalf("bucket = %v, want [9]", seqs(got))
	}
}

// TestWheelOverflowChain: events many horizons out wait in the far chain
// across however many rotations they take, then pop exactly at their due
// cycle, in push order within it — an event pushed from further out stays
// ahead of one pushed later for the same cycle.
func TestWheelOverflowChain(t *testing.T) {
	var w completionWheel
	pin := mkUOp(1, wheelSpan)
	w.push(pin, wheelSpan, 0)
	done := uint64(24 * wheelSpan)
	early := mkUOp(2, done)
	w.push(early, done, 0)
	late := mkUOp(3, done)
	popped := map[uint64][]uint64{}
	for c := uint64(0); c <= done; c++ {
		if c&(wheelSpan-1) == 0 {
			w.rotate(c)
		}
		if c == done-2*wheelSpan {
			w.push(late, done, c)
		}
		for _, got := range drainBucket(&w, c) {
			popped[c] = append(popped[c], got.Seq())
		}
	}
	if w.farHead != nil {
		t.Fatal("far chain never drained")
	}
	if got := popped[wheelSpan]; len(got) != 1 || got[0] != 1 {
		t.Errorf("pin popped at wrong cycle: %v", popped)
	}
	if got := popped[done]; len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("far events popped out of place: %v", popped)
	}
	if len(popped) != 2 {
		t.Errorf("spurious pops: %v", popped)
	}
}

// TestWheelSameCycleOrderAcrossPaths: a far event due cycle D pops ahead
// of a near event pushed for D after the rehoming rotation — rotation
// precedes the cycle's pushes, so rehomed events head the bucket.
func TestWheelSameCycleOrderAcrossPaths(t *testing.T) {
	var w completionWheel
	due := uint64(2*wheelSpan + 5)
	farU := mkUOp(1, due)
	w.push(farU, due, 0)
	w.rotate(wheelSpan)
	w.rotate(2 * wheelSpan) // rehomes farU into the bucket
	nearU := mkUOp(2, due)
	w.push(nearU, due, 2*wheelSpan+1)
	got := drainBucket(&w, due)
	if len(got) != 2 || got[0] != farU || got[1] != nearU {
		t.Fatalf("bucket order = %v, want [1 2]", seqs(got))
	}
}

// TestWheelRandomizedSchedule drives the wheel like the pipeline does —
// rotate at every wheelSpan boundary, then drain the cycle's bucket —
// with a deterministic pseudo-random event stream whose latencies reach
// 16 horizons, so far events wait several rotations. Every event must
// pop exactly once, exactly at its due cycle, and in bucket-filing order:
// near events file at push time, far events at the rotation that rehomes
// them, in push order — the order the goldens pin.
func TestWheelRandomizedSchedule(t *testing.T) {
	var w completionWheel

	const farLat = 8 * wheelSpan
	const end = 3 * farLat
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}

	type farEv struct{ seq, due uint64 }
	var myFar []farEv                    // mirror of the far chain
	expectOrder := map[uint64][]uint64{} // due → seqs in filing order
	var seq uint64
	pushed, poppedN := 0, 0

	for c := uint64(0); c <= end+2*farLat; c++ {
		if c&(wheelSpan-1) == 0 {
			w.rotate(c)
			// Mirror the rehoming: entries entering the horizon file
			// into their buckets now, in chain order.
			rest := myFar[:0]
			for _, e := range myFar {
				if e.due < c+wheelSpan {
					expectOrder[e.due] = append(expectOrder[e.due], e.seq)
				} else {
					rest = append(rest, e)
				}
			}
			myFar = rest
		}
		var got []uint64
		for _, u := range drainBucket(&w, c) {
			if u.CompleteCycle != c {
				t.Fatalf("seq %d popped at cycle %d, due %d", u.Seq(), c, u.CompleteCycle)
			}
			poppedN++
			got = append(got, u.Seq())
		}
		if exp := expectOrder[c]; !slices.Equal(got, exp) {
			t.Fatalf("cycle %d: pop order %v, want %v", c, got, exp)
		}
		delete(expectOrder, c)
		if c > end {
			continue // drain-only tail
		}
		// A few events per cycle with a latency mix: mostly near, some
		// far, a rare tail past 8 horizons (mimicking DRAM queueing).
		for i := uint64(0); i < next()%3; i++ {
			var lat uint64
			switch next() % 8 {
			case 0, 1, 2, 3, 4:
				lat = 1 + next()%(wheelSpan-1) // near bucket
			case 5, 6:
				lat = wheelSpan + next()%(farLat-wheelSpan)
			default:
				lat = farLat + next()%farLat
			}
			seq++
			w.push(mkUOp(seq, c+lat), c+lat, c)
			if lat >= wheelSpan {
				myFar = append(myFar, farEv{seq, c + lat})
			} else {
				expectOrder[c+lat] = append(expectOrder[c+lat], seq)
			}
			pushed++
		}
	}
	if poppedN != pushed {
		t.Fatalf("popped %d of %d events", poppedN, pushed)
	}
	if pushed < 10_000 {
		t.Fatalf("stream too small to be meaningful: %d events", pushed)
	}
}
