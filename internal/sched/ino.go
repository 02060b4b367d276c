package sched

import (
	"repro/internal/container"
	"repro/internal/rename"
)

// InO is the stall-on-use in-order scoreboard core of Table II: a single
// FIFO issue queue from whose head consecutive ready μops issue strictly in
// program order; the first non-ready μop blocks everything younger.
type InO struct {
	entries container.Ring[*UOp] // FIFO, At(0) is the oldest
	width   int
	events  EnergyEvents
	issued  uint64
	ports   PortMask
	stalls  uint64 // cycles the head was blocked while μops waited

	// blocked records that this cycle's Issue stopped at a head it read
	// but could not issue; Tick charges the read and the stall.
	blocked bool
}

// NewInO returns an in-order scheduler with the given queue capacity and
// issue width.
func NewInO(capacity, width int) *InO {
	s := &InO{width: width}
	s.entries.Init(capacity)
	return s
}

// Name implements Scheduler.
func (s *InO) Name() string { return "InO" }

// Capacity implements Scheduler.
func (s *InO) Capacity() int { return s.entries.Cap() }

// Occupancy implements Scheduler.
func (s *InO) Occupancy() int { return s.entries.Len() }

// Dispatch implements Scheduler.
func (s *InO) Dispatch(u *UOp, _ uint64) bool {
	if s.entries.Full() {
		return false
	}
	s.entries.Push(u)
	s.events.QueueWrites++
	return true
}

// Issue implements Scheduler: grant ready μops from the head, in order,
// stopping at the first that cannot issue.
func (s *InO) Issue(cycle uint64, ctx *IssueCtx) {
	s.ports.Reset()
	portUsed := &s.ports
	granted := 0
	s.entries.SelectOldest(func(u *UOp) container.Verdict {
		if granted >= s.width {
			return container.Stop
		}
		if portUsed.Used(u.Port) {
			ctx.PassOver(u)
			s.blocked = true
			return container.Stop
		}
		if !ctx.CanIssue(u) {
			s.blocked = true
			return container.Stop
		}
		ctx.Grant(u)
		s.events.QueueReads++
		s.events.PSCBReads += 2
		s.events.PayloadReads++
		portUsed.Set(u.Port)
		s.issued++
		granted++
		return container.Take
	})
}

// Tick implements Scheduler: a blocked head is read, and stalls, every
// cycle until it issues.
func (s *InO) Tick(n uint64) {
	if s.blocked {
		s.events.QueueReads += n
		s.events.PSCBReads += 2 * n
		s.stalls += n
		s.blocked = false
	}
}

// Wake implements Scheduler: the queue acts only on pipeline events.
func (s *InO) Wake(uint64) uint64 { return NoWake }

// Complete implements Scheduler. The scoreboard core re-reads readiness at
// the head; no CAM broadcast energy.
func (s *InO) Complete(rename.PhysReg, uint64) {}

// Flush implements Scheduler.
func (s *InO) Flush(seq uint64) {
	s.entries.FlushFrom(seq)
}

// Queues implements Scheduler: the single in-order FIFO.
func (s *InO) Queues(dst []QueueSnapshot) []QueueSnapshot {
	qs, q := NextQueue(dst[:0], "IQ", true, s.entries.Cap())
	q.Seqs = appendSeqs(q.Seqs, &s.entries)
	return qs
}

// Energy implements Scheduler.
func (s *InO) Energy() EnergyEvents { return s.events }

// Counters implements Scheduler.
func (s *InO) Counters() map[string]uint64 {
	return map[string]uint64{
		"issued":      s.issued,
		"head_stalls": s.stalls,
	}
}

var _ Scheduler = (*InO)(nil)
