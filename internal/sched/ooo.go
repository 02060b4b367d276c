package sched

import (
	"math/bits"

	"repro/internal/rename"
)

// OoO is the baseline unified out-of-order issue queue of §II-A / Figure 2:
// CAM-based wakeup over a non-compacting random queue, per-port prefix-sum
// select circuits, and a payload RAM. Optionally it selects oldest-first
// (Figure 11's variant): the compacting form of the same queue, whose
// entries sit in age order and whose issued entries collapse out.
//
// Both forms keep each resident μop's SrcReady in an array parallel to
// their slots (at), filled in by Woken, so select skips the μops whose
// register sources are not ready without touching them.
type OoO struct {
	// slots holds the μops at their positions. The random queue's are
	// fixed (nil = free); the oldest-first queue's are its first n
	// entries, in dispatch order — the pipeline dispatches in program
	// order (a flush's refetched μops carry seqs above every survivor),
	// so slot 0 is the oldest.
	slots []*UOp
	at    []uint64 // SrcReady of the μop in each slot
	n     int      // oldest-first: live entries

	free []int // random queue: free slot indices
	// occ mirrors the random queue's slot occupancy as a bitmap so Issue
	// can enumerate live entries in position order without scanning the
	// nil slots.
	occ []uint64

	capacity    int
	width       int
	oldestFirst bool

	events EnergyEvents
	issued uint64
	ports  PortMask

	// selecting records that this cycle's Issue found the queue occupied:
	// the select circuits then evaluate every input, which Tick charges.
	selecting bool
}

// NewOoO returns a unified out-of-order IQ with the given entry count and
// issue width. oldestFirst selects by age (Figure 11's "OoO w/ oldest-first
// selection" variant); otherwise selection priority follows physical
// position, as a prefix-sum circuit over a random queue does.
func NewOoO(capacity, width int, oldestFirst bool) *OoO {
	s := &OoO{capacity: capacity, width: width, oldestFirst: oldestFirst}
	s.slots = make([]*UOp, capacity)
	s.at = make([]uint64, capacity)
	if oldestFirst {
		return s
	}
	s.free = make([]int, 0, capacity)
	s.occ = make([]uint64, (capacity+63)/64)
	for i := capacity - 1; i >= 0; i-- {
		s.free = append(s.free, i)
	}
	return s
}

// Name implements Scheduler.
func (s *OoO) Name() string {
	if s.oldestFirst {
		return "OoO-oldest"
	}
	return "OoO"
}

// Capacity implements Scheduler.
func (s *OoO) Capacity() int { return s.capacity }

// Occupancy implements Scheduler.
func (s *OoO) Occupancy() int {
	if s.oldestFirst {
		return s.n
	}
	return s.capacity - len(s.free)
}

// Dispatch implements Scheduler.
func (s *OoO) Dispatch(u *UOp, _ uint64) bool {
	var idx int
	if s.oldestFirst {
		if s.n == s.capacity {
			return false
		}
		idx = s.n
		s.n++
	} else {
		if len(s.free) == 0 {
			return false
		}
		idx = s.free[len(s.free)-1]
		s.free = s.free[:len(s.free)-1]
		s.occ[idx>>6] |= 1 << (uint(idx) & 63)
	}
	s.slots[idx], s.at[idx], u.Slot = u, u.SrcReady, idx
	s.events.QueueWrites++
	return true
}

// Woken implements Waker.
func (s *OoO) Woken(u *UOp) { s.at[u.Slot] = u.SrcReady }

// Issue implements Scheduler: per issue port, the prefix-sum circuit grants
// the highest-priority requesting entry.
func (s *OoO) Issue(cycle uint64, ctx *IssueCtx) {
	if s.Occupancy() == 0 {
		return
	}
	s.selecting = true
	s.ports.Reset()
	if s.oldestFirst {
		s.issueOldest(cycle, ctx)
		return
	}

	// Position order: enumerate the occupancy bitmap directly.
	granted := 0
	for w, word := range s.occ {
		for word != 0 {
			if granted >= s.width {
				return
			}
			idx := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if s.at[idx] > cycle {
				if ctx.Waiting != nil {
					ctx.Waiting(s.slots[idx])
				}
				continue
			}
			u := s.slots[idx]
			if s.ports.Used(u.Port) {
				if ctx.PortBlocked != nil {
					ctx.PortBlocked(u)
				}
				continue
			}
			if !ctx.Ready(u) {
				continue
			}
			ctx.Grant(u)
			s.events.PayloadReads++
			s.ports.Set(u.Port)
			s.slots[idx] = nil
			s.occ[idx>>6] &^= 1 << (uint(idx) & 63)
			s.free = append(s.free, idx)
			s.issued++
			granted++
		}
	}
}

// issueOldest is the compacting queue's select: one walk from the oldest
// entry, granting until width; the survivors close up behind the head.
func (s *OoO) issueOldest(cycle uint64, ctx *IssueCtx) {
	granted, w, i := 0, 0, 0
	for ; i < s.n && granted < s.width; i++ {
		u, at := s.slots[i], s.at[i]
		switch {
		case at > cycle:
			if ctx.Waiting != nil {
				ctx.Waiting(u)
			}
		case s.ports.Used(u.Port):
			if ctx.PortBlocked != nil {
				ctx.PortBlocked(u)
			}
		case ctx.Ready(u):
			ctx.Grant(u)
			s.events.PayloadReads++
			s.ports.Set(u.Port)
			s.issued++
			granted++
			continue
		}
		s.keep(w, i)
		w++
	}
	if w == i {
		return // nothing granted: nothing moves
	}
	for ; i < s.n; i++ {
		s.keep(w, i)
		w++
	}
	clear(s.slots[w:s.n])
	s.n = w
}

// keep moves the oldest-first queue's entry at position from to position
// to (to ≤ from).
func (s *OoO) keep(to, from int) {
	if to != from {
		u := s.slots[from]
		s.slots[to], s.at[to], u.Slot = u, s.at[from], to
	}
}

// Tick implements Scheduler: each port's prefix-sum circuit evaluates all
// N inputs every cycle the queue is active.
func (s *OoO) Tick(n uint64) {
	if s.selecting {
		s.events.SelectInputs += n * uint64(s.width*s.capacity)
		s.selecting = false
	}
}

// Wake implements Scheduler: the queue acts only on pipeline events.
func (s *OoO) Wake(uint64) uint64 { return NoWake }

// Complete implements Scheduler: a destination-tag broadcast compares
// against both source fields of every live entry.
func (s *OoO) Complete(dst rename.PhysReg, _ uint64) {
	if dst == rename.PhysNone {
		return
	}
	s.events.WakeupBroadcasts++
	s.events.WakeupCompares += uint64(2 * s.capacity)
}

// Flush implements Scheduler.
func (s *OoO) Flush(seq uint64) {
	if s.oldestFirst {
		for i := 0; i < s.n; i++ {
			if s.slots[i].Seq() >= seq {
				clear(s.slots[i:s.n])
				s.n = i
				return
			}
		}
		return
	}
	for i, u := range s.slots {
		if u != nil && u.Seq() >= seq {
			s.slots[i] = nil
			s.occ[i>>6] &^= 1 << (uint(i) & 63)
			s.free = append(s.free, i)
		}
	}
}

// Queues implements Scheduler: one queue. The oldest-first variant lists
// it oldest first as a FIFO, so the auditor checks that μops enter in
// program order; the random queue lists its physical slots in order.
func (s *OoO) Queues(dst []QueueSnapshot) []QueueSnapshot {
	return s.appendQueue(dst[:0])
}

// appendQueue appends the queue's snapshot to qs.
func (s *OoO) appendQueue(qs []QueueSnapshot) []QueueSnapshot {
	qs, q := NextQueue(qs, "IQ", s.oldestFirst, s.capacity)
	for _, u := range s.slots {
		if u != nil {
			q.Seqs = append(q.Seqs, u.Seq())
		}
	}
	return qs
}

// Energy implements Scheduler.
func (s *OoO) Energy() EnergyEvents { return s.events }

// Counters implements Scheduler.
func (s *OoO) Counters() map[string]uint64 {
	return map[string]uint64{"issued": s.issued}
}

var (
	_ Scheduler = (*OoO)(nil)
	_ Waker     = (*OoO)(nil)
)
