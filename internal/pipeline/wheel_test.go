package pipeline

import (
	"sort"
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
	w.init(16)
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
// queue and lands in its bucket at the first rotation that brings its
// due cycle inside the horizon — not earlier, not later.
func TestWheelFarRehome(t *testing.T) {
	var w completionWheel
	w.init(16)
	done := uint64(2*wheelSpan + 37)
	u := mkUOp(9, done)
	w.push(u, done, 0)
	if w.far.Empty() {
		t.Fatal("far event not queued")
	}
	// The rotation at wheelSpan does not cover done ≥ 2*wheelSpan.
	w.rotate(wheelSpan)
	if w.far.Empty() {
		t.Fatal("event rehomed a full horizon early")
	}
	w.rotate(2 * wheelSpan)
	if !w.far.Empty() {
		t.Fatal("event not rehomed by the covering rotation")
	}
	if got := drainBucket(&w, done); len(got) != 1 || got[0] != u {
		t.Fatalf("bucket = %v, want [9]", seqs(got))
	}
}

// TestWheelPushRebase: when the far window has gone stale (farBase far
// behind now), a push beyond farBase+wheelFarSpan slides the window to
// now instead of overflowing, and queued events survive the slide.
func TestWheelPushRebase(t *testing.T) {
	var w completionWheel
	w.init(16)
	early := mkUOp(1, wheelSpan+1)
	w.push(early, wheelSpan+1, 0) // pins farBase at 0
	now := uint64(100)
	done := now + wheelFarSpan - 1 // in range only after sliding to now
	late := mkUOp(2, done)
	w.push(late, done, now)
	if w.ovCount != 0 {
		t.Fatalf("rebase-able push overflowed (ovCount=%d)", w.ovCount)
	}
	if w.farBase != now {
		t.Fatalf("farBase = %d, want %d", w.farBase, now)
	}
	// Both events still pop at their exact due cycles.
	w.rotate(wheelSpan)
	if got := drainBucket(&w, wheelSpan+1); len(got) != 1 || got[0] != early {
		t.Fatalf("early bucket = %v", seqs(got))
	}
	for c := uint64(2 * wheelSpan); c <= done; c += wheelSpan {
		w.rotate(c)
	}
	if got := drainBucket(&w, done); len(got) != 1 || got[0] != late {
		t.Fatalf("late bucket = %v", seqs(got))
	}
}

// TestWheelOverflowChain: an event past even the far horizon waits in
// the counted overflow chain across however many rotations it takes,
// then pops exactly at its due cycle.
func TestWheelOverflowChain(t *testing.T) {
	var w completionWheel
	w.init(16)
	// Pin the window at 0 with a queued far event so the overflow path
	// (not the rebase path) triggers.
	pin := mkUOp(1, wheelSpan)
	w.push(pin, wheelSpan, 0)
	done := uint64(3 * wheelFarSpan)
	u := mkUOp(2, done)
	w.push(u, done, 0)
	if w.ovCount != 1 {
		t.Fatalf("ovCount = %d, want 1", w.ovCount)
	}
	popped := map[uint64][]uint64{}
	for c := uint64(0); c <= done; c++ {
		if c&(wheelSpan-1) == 0 {
			w.rotate(c)
		}
		for _, got := range drainBucket(&w, c) {
			popped[c] = append(popped[c], got.Seq())
		}
	}
	if w.ovCount != 0 {
		t.Fatalf("overflow chain never drained (ovCount=%d)", w.ovCount)
	}
	if got := popped[wheelSpan]; len(got) != 1 || got[0] != 1 {
		t.Errorf("pin popped at wrong cycle: %v", popped)
	}
	if got := popped[done]; len(got) != 1 || got[0] != 2 {
		t.Errorf("overflow event popped at wrong cycle: %v", popped)
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
	w.init(16)
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
// with a deterministic pseudo-random event stream whose latencies cross
// the near horizon, the far horizon and the overflow chain. Every event
// must pop exactly once, exactly at its due cycle, and bitmap-path
// events must pop in bucket-filing order: near events file at push
// time, far events file at the rotation that rehomes them (ascending
// due, FIFO within a due cycle) — the order the chain-based wheel
// produced, which the goldens pin.
func TestWheelRandomizedSchedule(t *testing.T) {
	var w completionWheel
	w.init(4096)

	const end = 3 * wheelFarSpan
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}

	type farEv struct{ seq, due uint64 }
	var myFar []farEv                    // mirror of the far queue, insertion order
	expectOrder := map[uint64][]uint64{} // due → bitmap-path seqs in filing order
	overflowSeqs := map[uint64]bool{}
	var seq uint64
	pushed, poppedN := 0, 0

	for c := uint64(0); c <= end+2*wheelFarSpan; c++ {
		if c&(wheelSpan-1) == 0 {
			w.rotate(c)
			// Mirror the rehoming: entries entering the horizon file
			// into their buckets now, ascending by due, FIFO within.
			limit := c + wheelSpan
			var rest, rehomed []farEv
			for _, e := range myFar {
				if e.due < limit {
					rehomed = append(rehomed, e)
				} else {
					rest = append(rest, e)
				}
			}
			myFar = rest
			sort.SliceStable(rehomed, func(i, j int) bool { return rehomed[i].due < rehomed[j].due })
			for _, e := range rehomed {
				expectOrder[e.due] = append(expectOrder[e.due], e.seq)
			}
		}
		var gotBitmap []uint64
		for _, u := range drainBucket(&w, c) {
			if u.CompleteCycle != c {
				t.Fatalf("seq %d popped at cycle %d, due %d", u.Seq(), c, u.CompleteCycle)
			}
			poppedN++
			if !overflowSeqs[u.Seq()] {
				gotBitmap = append(gotBitmap, u.Seq())
			}
		}
		exp := expectOrder[c]
		if len(gotBitmap) != len(exp) {
			t.Fatalf("cycle %d: popped bitmap seqs %v, want %v", c, gotBitmap, exp)
		}
		for i := range exp {
			if gotBitmap[i] != exp[i] {
				t.Fatalf("cycle %d: bitmap pop order %v, want %v", c, gotBitmap, exp)
			}
		}
		if c > end {
			continue // drain-only tail
		}
		// A few events per cycle with a latency mix: mostly near, some
		// far, a rare overflow-range tail (mimicking DRAM queueing).
		for i := uint64(0); i < next()%3; i++ {
			var lat uint64
			switch next() % 8 {
			case 0, 1, 2, 3, 4:
				lat = 1 + next()%(wheelSpan-1) // near bucket
			case 5, 6:
				lat = wheelSpan + next()%(wheelFarSpan-wheelSpan) // far queue
			default:
				lat = wheelFarSpan + next()%wheelFarSpan // may overflow
			}
			seq++
			u := mkUOp(seq, c+lat)
			before := w.ovCount
			w.push(u, c+lat, c)
			switch {
			case w.ovCount > before:
				overflowSeqs[seq] = true
			case lat >= wheelSpan:
				myFar = append(myFar, farEv{seq, c + lat})
			default:
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
