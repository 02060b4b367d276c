package sched

import (
	"math/bits"

	"repro/internal/container"
	"repro/internal/rename"
)

// OoO is the baseline unified out-of-order issue queue of §II-A / Figure 2:
// CAM-based wakeup over a non-compacting random queue, per-port prefix-sum
// select circuits, and a payload RAM. Optionally it selects oldest-first
// (Figure 11's variant): the compacting form of the same queue, whose
// entries sit in age order and whose issued entries collapse out.
type OoO struct {
	slots []*UOp // fixed positions; nil = free (random queue, no compaction)
	free  []int  // free slot indices

	// occ mirrors slot occupancy as a bitmap so Issue can enumerate live
	// entries in position order without scanning the nil slots.
	occ []uint64

	// aged is the oldest-first variant's compacting queue, in dispatch
	// order. The pipeline dispatches in program order (a flush's refetched
	// μops carry seqs above every survivor), so the head is the oldest.
	aged container.Ring[*UOp]

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
	if oldestFirst {
		s.aged.Init(capacity)
		return s
	}
	s.slots = make([]*UOp, capacity)
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
		return s.aged.Len()
	}
	return s.capacity - len(s.free)
}

// Dispatch implements Scheduler.
func (s *OoO) Dispatch(u *UOp, _ uint64) bool {
	if s.oldestFirst {
		if s.aged.Full() {
			return false
		}
		s.aged.Push(u)
	} else {
		if len(s.free) == 0 {
			return false
		}
		idx := s.free[len(s.free)-1]
		s.free = s.free[:len(s.free)-1]
		s.slots[idx] = u
		s.occ[idx>>6] |= 1 << (uint(idx) & 63)
	}
	s.events.QueueWrites++
	return true
}

// Issue implements Scheduler: per issue port, the prefix-sum circuit grants
// the highest-priority requesting entry.
func (s *OoO) Issue(cycle uint64, ctx *IssueCtx) {
	if s.Occupancy() == 0 {
		return
	}
	s.selecting = true
	s.ports.Reset()
	if s.oldestFirst {
		s.issueOldest(ctx)
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

// issueOldest is the compacting queue's select: one walk from the head,
// oldest first, granting until width; granted entries collapse out. It is
// its own method because its closure captures granted by reference, which
// inside Issue would keep the position-first loop's counter in memory.
func (s *OoO) issueOldest(ctx *IssueCtx) {
	granted := 0
	s.aged.SelectWindow(s.aged.Len(), func(u *UOp) container.Verdict {
		if granted >= s.width {
			return container.Stop
		}
		if s.ports.Used(u.Port) {
			if ctx.PortBlocked != nil {
				ctx.PortBlocked(u)
			}
			return container.Keep
		}
		if !ctx.Ready(u) {
			return container.Keep
		}
		ctx.Grant(u)
		s.events.PayloadReads++
		s.ports.Set(u.Port)
		s.issued++
		granted++
		return container.Take
	})
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
		s.aged.FlushFrom(seq)
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
func (s *OoO) Queues() []QueueSnapshot {
	var seqs []uint64
	if s.oldestFirst {
		for i := 0; i < s.aged.Len(); i++ {
			seqs = append(seqs, s.aged.At(i).Seq())
		}
	} else {
		for _, u := range s.slots {
			if u != nil {
				seqs = append(seqs, u.Seq())
			}
		}
	}
	return []QueueSnapshot{{Name: "IQ", FIFO: s.oldestFirst, Cap: s.capacity, Seqs: seqs}}
}

// Energy implements Scheduler.
func (s *OoO) Energy() EnergyEvents { return s.events }

// Counters implements Scheduler.
func (s *OoO) Counters() map[string]uint64 {
	return map[string]uint64{"issued": s.issued}
}

var _ Scheduler = (*OoO)(nil)
