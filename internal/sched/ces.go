package sched

import (
	"fmt"

	"repro/internal/container"
	"repro/internal/isa"
	"repro/internal/mdp"
	"repro/internal/rename"
)

// CES is the complexity-effective superscalar scheduler of §II-B1:
// a cluster of parallel in-order queues (P-IQs), each holding one
// dependence chain, with steering at dispatch and per-queue-head issue.
//
// With MDA enabled it additionally applies Ballerino's M-dependence-aware
// steering (the "CES + MDA steering" bar of Figure 13).
type CES struct {
	iqs   []container.Ring[*UOp]
	names []string // the P-IQs' snapshot names
	rn    *rename.Renamer
	mdp   *mdp.MDP
	mda   bool
	width int

	events EnergyEvents
	ports  PortMask

	// probe, when non-nil, reports steering outcomes to the observability
	// layer.
	probe Probe

	// Figure 4 counters: steering outcomes split by dispatch readiness.
	steerDC       uint64
	steerM        uint64
	allocReady    uint64
	allocNonReady uint64
	stallReady    uint64
	stallNonReady uint64
	issued        uint64

	// Figure 6a counters: what P-IQ heads do each cycle.
	headIssue    uint64 // head issued
	headStallM   uint64 // head is a load/store blocked by a predicted M-dep
	headStallDep uint64 // head waits for register data
	headEmpty    uint64 // queue empty

	// This cycle's charges for Tick: heads that did not issue, and a
	// refused dispatch (refusedReady: its sources were ready).
	idle                  headStalls
	refused, refusedReady bool
}

// headStalls tallies one cycle's dependence-head examinations that did
// not issue: queues found empty, heads held by a predicted M-dependence,
// and heads waiting on data or on a port granted to another head.
type headStalls struct{ empty, mdep, dep uint64 }

// NewCES builds a CES scheduler with n P-IQs of the given depth. rn is the
// shared physical-register scoreboard; m (with mda=true) enables
// M-dependence-aware steering.
func NewCES(n, depth, width int, rn *rename.Renamer, m *mdp.MDP, mda bool) *CES {
	s := &CES{
		rn: rn, mdp: m, mda: mda, width: width,
		iqs: make([]container.Ring[*UOp], n),
	}
	for i := range s.iqs {
		s.iqs[i].Init(depth)
		s.names = append(s.names, fmt.Sprintf("P-IQ%d", i))
	}
	return s
}

// Name implements Scheduler.
func (s *CES) Name() string {
	if s.mda {
		return "CES+MDA"
	}
	return "CES"
}

// Capacity implements Scheduler.
func (s *CES) Capacity() int {
	n := 0
	for i := range s.iqs {
		n += s.iqs[i].Cap()
	}
	return n
}

// Occupancy implements Scheduler.
func (s *CES) Occupancy() int {
	n := 0
	for i := range s.iqs {
		n += s.iqs[i].Len()
	}
	return n
}

// readyAtDispatch reports whether all register sources are available.
func readyAtDispatch(rn *rename.Renamer, u *UOp, cycle uint64) bool {
	return rn.Ready(u.Src[0], cycle) && rn.Ready(u.Src[1], cycle)
}

// SetProbe implements Probed.
func (s *CES) SetProbe(p Probe) { s.probe = p }

// Dispatch implements Scheduler: steer along M/R-dependences, allocating a
// new P-IQ for dependence heads, stalling when no queue is available.
func (s *CES) Dispatch(u *UOp, cycle uint64) bool {
	ready := readyAtDispatch(s.rn, u, cycle)
	mdaCandidate := s.mda && u.D.Op.IsMem() && u.SSID >= 0

	if iq, ok := s.steerTarget(u); ok {
		s.enqueue(iq, u)
		if mdaCandidate {
			s.steerM++
			if s.probe != nil {
				s.probe(ProbeSteerMDAHit, cycle, u.Seq(), iq)
			}
		} else {
			s.steerDC++
			if s.probe != nil {
				s.probe(ProbeSteerDep, cycle, u.Seq(), iq)
			}
		}
		return true
	}
	if s.probe != nil && mdaCandidate {
		s.probe(ProbeSteerMDAMiss, cycle, u.Seq(), 0)
	}

	// Dependence head (or split/full target): allocate an empty P-IQ.
	for i := range s.iqs {
		if s.iqs[i].Empty() {
			s.enqueue(i, u)
			if ready {
				s.allocReady++
			} else {
				s.allocNonReady++
			}
			if s.probe != nil {
				s.probe(ProbeSteerNewChain, cycle, u.Seq(), i)
			}
			return true
		}
	}
	s.refused, s.refusedReady = true, ready
	return false
}

// steerTarget finds the P-IQ holding u's producer at an unreserved tail.
// M-dependences override R-dependences when MDA steering is enabled (§III-B).
func (s *CES) steerTarget(u *UOp) (int, bool) {
	if s.mda && u.D.Op.IsMem() && u.SSID >= 0 {
		if iq, reserved, ok := s.mdp.ProducerLocation(u.SSID); ok && !reserved && !s.iqs[iq].Full() {
			s.mdp.ReserveProducer(u.SSID)
			return iq, true
		}
	}
	for _, src := range u.Src {
		iq, reserved, ok := s.rn.ProducerIQ(src)
		if ok && !reserved && !s.iqs[iq].Full() {
			s.rn.ReserveProducer(src)
			return iq, true
		}
	}
	return 0, false
}

// enqueue charges the steering decision, appends u to P-IQ iq and records
// producer locations in the P-SCB (and LFST for stores under MDA
// steering).
func (s *CES) enqueue(iq int, u *UOp) {
	s.events.SteerOps++
	s.events.PSCBReads += 2
	s.iqs[iq].Push(u)
	s.events.QueueWrites++
	if u.Dst != rename.PhysNone {
		s.rn.SetProducerIQ(u.Dst, iq)
		s.events.PSCBWrites++
	}
	if s.mda && u.D.Op == isa.OpStore && u.SSID >= 0 {
		s.mdp.SetProducerLocation(u.SSID, u.Seq(), iq)
	}
}

// Issue implements Scheduler: only dependence heads (queue heads) are
// examined; per-port prefix-sum circuits grant one each.
func (s *CES) Issue(cycle uint64, ctx *IssueCtx) {
	s.ports.Reset()
	portUsed := &s.ports
	for i := range s.iqs {
		q := &s.iqs[i]
		if q.Empty() {
			s.idle.empty++
			continue
		}
		u := q.Head()
		if portUsed.Used(u.Port) {
			if ctx.PortBlocked != nil {
				ctx.PortBlocked(u)
			}
			s.idle.dep++
			continue
		}
		if !ctx.CanIssue(u) {
			if u.MDPWait != mdp.NoStore {
				s.idle.mdep++
			} else {
				s.idle.dep++
			}
			continue
		}
		ctx.Grant(u)
		s.events.QueueReads++
		s.events.PSCBReads += 2
		s.events.PayloadReads++
		portUsed.Set(u.Port)
		q.PopFront()
		s.issued++
		s.headIssue++
	}
}

// Tick implements Scheduler: every P-IQ head feeds the select circuits
// each cycle, a head that did not issue is read again, and a refused
// dispatch repeats its steering attempt.
func (s *CES) Tick(n uint64) {
	s.events.SelectInputs += n * uint64(s.width*len(s.iqs))
	h := s.idle
	s.headEmpty += n * h.empty
	s.headStallM += n * h.mdep
	s.headStallDep += n * h.dep
	s.events.QueueReads += n * (h.mdep + h.dep)
	s.events.PSCBReads += 2 * n * (h.mdep + h.dep)
	s.idle = headStalls{}
	if s.refused {
		s.events.SteerOps += n
		s.events.PSCBReads += 2 * n
		if s.refusedReady {
			s.stallReady += n
		} else {
			s.stallNonReady += n
		}
		s.refused = false
	}
}

// Wake implements Scheduler: the P-IQs act only on pipeline events.
func (s *CES) Wake(uint64) uint64 { return NoWake }

// Complete implements Scheduler. Readiness propagates through the P-SCB;
// no CAM broadcast.
func (s *CES) Complete(rename.PhysReg, uint64) {}

// Flush implements Scheduler.
func (s *CES) Flush(seq uint64) {
	for i := range s.iqs {
		s.iqs[i].FlushFrom(seq)
	}
}

// Queues implements Scheduler: every P-IQ is an in-order dependence chain.
func (s *CES) Queues(dst []QueueSnapshot) []QueueSnapshot {
	qs := dst[:0]
	for i := range s.iqs {
		var q *QueueSnapshot
		qs, q = NextQueue(qs, s.names[i], true, s.iqs[i].Cap())
		q.Seqs = appendSeqs(q.Seqs, &s.iqs[i])
	}
	return qs
}

// Energy implements Scheduler.
func (s *CES) Energy() EnergyEvents { return s.events }

// Counters implements Scheduler.
func (s *CES) Counters() map[string]uint64 {
	return map[string]uint64{
		"issued":          s.issued,
		"steer_dc":        s.steerDC,
		"steer_m":         s.steerM,
		"alloc_ready":     s.allocReady,
		"alloc_nonready":  s.allocNonReady,
		"stall_ready":     s.stallReady,
		"stall_nonready":  s.stallNonReady,
		"head_issue":      s.headIssue,
		"head_stall_mdep": s.headStallM,
		"head_stall_dep":  s.headStallDep,
		"head_empty":      s.headEmpty,
	}
}

var _ Scheduler = (*CES)(nil)
var _ Probed = (*CES)(nil)
