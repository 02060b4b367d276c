package sched

import (
	"math/bits"

	"repro/internal/container"
	"repro/internal/rename"
)

// oooSeqSpan is the age-index window of the oldest-first select structure:
// the spread between the oldest and youngest buffered μop's sequence
// numbers must fit in it. In-flight μops occupy a contiguous ROB range, so
// the spread is bounded by the ROB size — 8K covers every realistic
// configuration with room to spare, and the base slides forward as the
// window drains.
const oooSeqSpan = 1 << 13

// OoO is the baseline unified out-of-order issue queue of §II-A / Figure 2:
// CAM-based wakeup over a non-compacting random queue, per-port prefix-sum
// select circuits, and a payload RAM. Optionally it selects oldest-first
// (compaction/age-matrix behaviour) instead of position-first.
type OoO struct {
	slots       []*UOp // fixed positions; nil = free (random queue, no compaction)
	free        []int  // free slot indices
	width       int
	oldestFirst bool

	// occ mirrors slot occupancy as a bitmap so Issue can enumerate live
	// entries in position order without scanning the nil slots.
	occ []uint64

	// seqq indexes occupied slots by age for the oldest-first variant: a
	// hierarchical-bitmap priority queue keyed by seq − seqBase, walked in
	// ascending order at select — the software form of an age-ordered
	// select circuit, replacing the per-cycle insertion sort. handles[i]
	// names slot i's queue entry so Flush can unlink in place. seqBase
	// slides forward (Rebase) when a dispatched seq outruns the span.
	seqq    *container.QuantumQueue[int32]
	handles []container.Handle
	seqBase uint64

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
	s := &OoO{
		slots:       make([]*UOp, capacity),
		free:        make([]int, 0, capacity),
		occ:         make([]uint64, (capacity+63)/64),
		width:       width,
		oldestFirst: oldestFirst,
	}
	if oldestFirst {
		s.seqq = container.NewQuantumQueue[int32](oooSeqSpan, capacity)
		s.handles = make([]container.Handle, capacity)
		for i := range s.handles {
			s.handles[i] = container.None
		}
	}
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
func (s *OoO) Capacity() int { return len(s.slots) }

// Occupancy implements Scheduler.
func (s *OoO) Occupancy() int { return len(s.slots) - len(s.free) }

// Dispatch implements Scheduler.
func (s *OoO) Dispatch(u *UOp, _ uint64) bool {
	if len(s.free) == 0 {
		return false
	}
	idx := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	s.slots[idx] = u
	s.occ[idx>>6] |= 1 << (uint(idx) & 63)
	if s.oldestFirst {
		s.indexByAge(u, idx)
	}
	s.events.QueueWrites++
	return true
}

// indexByAge files slot idx in the age index, sliding the base when the
// new seq falls outside the current window. In the pipeline dispatch seqs
// never run backwards relative to buffered entries (a flush's refetched
// μops carry seqs above every survivor), so only the forward slide is hot;
// the backward slide keeps the scheduler correct for arbitrary callers.
func (s *OoO) indexByAge(u *UOp, idx int) {
	seq := u.Seq()
	if s.seqq.Empty() {
		s.seqBase = seq
	} else if seq < s.seqBase {
		s.seqq.Rebase(-int(s.seqBase - seq))
		s.seqBase = seq
	} else if seq-s.seqBase >= oooSeqSpan {
		_, min, _ := s.seqq.PeepMin()
		s.seqq.Rebase(min)
		s.seqBase += uint64(min)
	}
	rel := seq - s.seqBase
	if rel >= oooSeqSpan {
		panic("sched: OoO in-flight seq window exceeds the age-index span")
	}
	s.handles[idx] = s.seqq.Insert(int(rel), int32(idx))
}

// Issue implements Scheduler: per issue port, the prefix-sum circuit grants
// the highest-priority requesting entry.
func (s *OoO) Issue(cycle uint64, ctx *IssueCtx) {
	if s.Occupancy() == 0 {
		return
	}
	s.selecting = true

	s.ports.Reset()
	portUsed := &s.ports
	granted := 0

	if s.oldestFirst {
		// Age order: one CLZ walk over the seq-indexed bitmap, oldest
		// first, unlinking granted entries in place.
		s.seqq.Scan(func(slot int32, _ int) container.Verdict {
			if granted >= s.width {
				return container.Stop
			}
			u := s.slots[slot]
			if portUsed.Used(u.Port) {
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
			portUsed.Set(u.Port)
			s.slots[slot] = nil
			s.occ[slot>>6] &^= 1 << (uint(slot) & 63)
			s.handles[slot] = container.None
			s.free = append(s.free, int(slot))
			s.issued++
			granted++
			return container.Take
		})
		return
	}

	// Position order: enumerate the occupancy bitmap directly.
	for w, word := range s.occ {
		for word != 0 {
			if granted >= s.width {
				return
			}
			idx := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			u := s.slots[idx]
			if portUsed.Used(u.Port) {
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
			portUsed.Set(u.Port)
			s.slots[idx] = nil
			s.occ[idx>>6] &^= 1 << (uint(idx) & 63)
			s.free = append(s.free, idx)
			s.issued++
			granted++
		}
	}
}

// Tick implements Scheduler: each port's prefix-sum circuit evaluates all
// N inputs every cycle the queue is active.
func (s *OoO) Tick(n uint64) {
	if s.selecting {
		s.events.SelectInputs += n * uint64(s.width*len(s.slots))
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
	s.events.WakeupCompares += uint64(2 * len(s.slots))
}

// Flush implements Scheduler.
func (s *OoO) Flush(seq uint64) {
	for i, u := range s.slots {
		if u != nil && u.Seq() >= seq {
			s.slots[i] = nil
			s.occ[i>>6] &^= 1 << (uint(i) & 63)
			if s.oldestFirst {
				s.seqq.Unlink(s.handles[i])
				s.handles[i] = container.None
			}
			s.free = append(s.free, i)
		}
	}
}

// Queues implements Inspector: one random-access (non-FIFO) queue whose
// entries are listed in physical slot order.
func (s *OoO) Queues() []QueueSnapshot {
	var seqs []uint64
	for _, u := range s.slots {
		if u != nil {
			seqs = append(seqs, u.Seq())
		}
	}
	return []QueueSnapshot{{Name: "IQ", FIFO: false, Cap: len(s.slots), Seqs: seqs}}
}

// Energy implements Scheduler.
func (s *OoO) Energy() EnergyEvents { return s.events }

// Counters implements Scheduler.
func (s *OoO) Counters() map[string]uint64 {
	return map[string]uint64{"issued": s.issued}
}

var _ Scheduler = (*OoO)(nil)
