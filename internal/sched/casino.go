package sched

import (
	"fmt"

	"repro/internal/container"
	"repro/internal/rename"
)

// CASINO is the cascaded in-order scheduler of §II-B2: one or more
// speculative in-order IQs (S-IQs) ahead of a final in-order IQ. Each cycle
// every S-IQ examines a speculative scheduling window at its head, issues
// the ready μops immediately, and passes the preceding non-ready μops to
// the next queue. The final queue issues strictly in program order.
type CASINO struct {
	queues []container.Ring[*UOp] // queues[0] is S-IQ0 (dispatch target); last is the in-order IQ
	names  []string               // the queues' snapshot names
	window int                    // μops examined per S-IQ per cycle (read ports)
	pass   int                    // μops passed to the next queue per cycle (write ports)
	width  int

	events EnergyEvents
	ports  PortMask
	issued uint64
	passed uint64

	// blocked counts this cycle's examined μops that neither issued nor
	// moved on; Tick charges their reads. moved records a pass.
	blocked uint64
	moved   bool
}

// NewCASINO builds the cascade. sizes lists every queue's capacity in
// front-to-back order (Table II 8-wide: 8, 40, 40, 8). window and pass are
// the per-queue read/write port counts (4 at 8-wide).
func NewCASINO(sizes []int, window, pass, width int) *CASINO {
	s := &CASINO{
		queues: make([]container.Ring[*UOp], len(sizes)),
		window: window, pass: pass, width: width,
	}
	for i, n := range sizes {
		s.queues[i].Init(n)
		name := fmt.Sprintf("S-IQ%d", i)
		if i == len(sizes)-1 {
			name = "IQ"
		}
		s.names = append(s.names, name)
	}
	return s
}

// Name implements Scheduler.
func (s *CASINO) Name() string { return "CASINO" }

// Capacity implements Scheduler.
func (s *CASINO) Capacity() int {
	n := 0
	for i := range s.queues {
		n += s.queues[i].Cap()
	}
	return n
}

// Occupancy implements Scheduler.
func (s *CASINO) Occupancy() int {
	n := 0
	for i := range s.queues {
		n += s.queues[i].Len()
	}
	return n
}

// Dispatch implements Scheduler: μops enter the first S-IQ in order.
func (s *CASINO) Dispatch(u *UOp, _ uint64) bool {
	if s.queues[0].Full() {
		return false
	}
	s.queues[0].Push(u)
	s.events.QueueWrites++
	return true
}

// Issue implements Scheduler. Queues are processed back to front so that
// older μops get issue-port priority and same-cycle passes cannot teleport
// a μop through several queues.
func (s *CASINO) Issue(cycle uint64, ctx *IssueCtx) {
	s.ports.Reset()
	portUsed := &s.ports
	granted := 0

	// Final in-order IQ: strict program-order issue from the head.
	last := &s.queues[len(s.queues)-1]
	examined := 0
	last.SelectOldest(func(u *UOp) container.Verdict {
		if examined >= s.window || granted >= s.width {
			return container.Stop
		}
		examined++
		if portUsed.Used(u.Port) {
			if ctx.PortBlocked != nil {
				ctx.PortBlocked(u)
			}
			s.blocked++
			return container.Stop // in-order: the head blocks everything younger
		}
		if !ctx.CanIssue(u) {
			s.blocked++
			return container.Stop // in-order: the head blocks everything younger
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

	// S-IQs, oldest (deepest) first: one windowed walk per queue performs
	// both the speculative issue and the pass-ahead — a μop that cannot
	// issue (width exhausted, port taken, or not ready) instead consumes
	// pass bandwidth toward the next queue if any remains. The next queue
	// was already processed this cycle (back-to-front order), so its free
	// space is stable across the walk and grants land in age order exactly
	// as the separate issue-then-pass phases did.
	for qi := len(s.queues) - 2; qi >= 0; qi-- {
		q := &s.queues[qi]
		next := &s.queues[qi+1]
		examine := s.window
		if q.Len() < examine {
			examine = q.Len()
		}
		passedHere := 0
		q.SelectWindow(examine, func(u *UOp) container.Verdict {
			issue := false
			if granted >= s.width {
				// all issue ports consumed; fall through to pass
			} else if portUsed.Used(u.Port) {
				if ctx.PortBlocked != nil {
					ctx.PortBlocked(u)
				}
			} else if ctx.CanIssue(u) {
				issue = true
			}
			if issue {
				ctx.Grant(u)
				s.events.QueueReads++
				s.events.PSCBReads += 2
				s.events.PayloadReads++
				portUsed.Set(u.Port)
				s.issued++
				granted++
				return container.Take
			}
			if passedHere < s.pass && !next.Full() {
				next.Push(u)
				s.events.QueueReads += 2 // examined, then read out for the copy
				s.events.PSCBReads += 2
				s.events.QueueWrites++ // the copy the paper charges CASINO for
				s.passed++
				passedHere++
				s.moved = true
				return container.Take
			}
			s.blocked++
			return container.Keep
		})
	}
}

// Tick implements Scheduler: every queue's select circuits evaluate their
// whole window each cycle, and a μop that stays put is read again.
func (s *CASINO) Tick(n uint64) {
	s.events.SelectInputs += n * uint64(s.width*s.window*len(s.queues))
	s.events.QueueReads += n * s.blocked
	s.events.PSCBReads += 2 * n * s.blocked
	s.blocked = 0
	s.moved = false
}

// Wake implements Scheduler: a μop passed on this cycle is examined afresh
// in its new queue next cycle.
func (s *CASINO) Wake(now uint64) uint64 {
	if s.moved {
		return now + 1
	}
	return NoWake
}

// Complete implements Scheduler. Readiness is re-examined at queue heads.
func (s *CASINO) Complete(rename.PhysReg, uint64) {}

// Flush implements Scheduler. μops are ordered oldest-last-queue, but each
// individual queue is in program order, so truncate each.
func (s *CASINO) Flush(seq uint64) {
	for i := range s.queues {
		s.queues[i].FlushFrom(seq)
	}
}

// Queues implements Scheduler: each cascade stage is an in-order queue.
func (s *CASINO) Queues(dst []QueueSnapshot) []QueueSnapshot {
	qs := dst[:0]
	for i := range s.queues {
		var q *QueueSnapshot
		qs, q = NextQueue(qs, s.names[i], true, s.queues[i].Cap())
		q.Seqs = appendSeqs(q.Seqs, &s.queues[i])
	}
	return qs
}

// Energy implements Scheduler.
func (s *CASINO) Energy() EnergyEvents { return s.events }

// Counters implements Scheduler.
func (s *CASINO) Counters() map[string]uint64 {
	return map[string]uint64{
		"issued": s.issued,
		"passed": s.passed,
	}
}

var _ Scheduler = (*CASINO)(nil)
