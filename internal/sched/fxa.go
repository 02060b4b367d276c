package sched

import (
	"repro/internal/isa"
	"repro/internal/rename"
)

// FXA is the front-end execution architecture of Shioya et al.: a 3-stage
// in-order execution unit (IXU) with a bypass network sits between rename
// and the back-end, executing ready-at-dispatch μops and μops whose inputs
// become ready while traversing it. Everything else drops into a half-size
// conventional out-of-order IQ.
type FXA struct {
	backend  *OoO
	rn       *rename.Renamer
	ixuDepth uint64 // pipeline stages in the IXU
	width    int

	// ixu holds μops that will complete inside the IXU, keyed by the
	// cycle at which they execute.
	ixu []ixuOp

	events   EnergyEvents
	ixuExecs uint64
	beExecs  uint64

	// retry is when a simple μop the back-end refused this cycle could
	// instead enter the IXU: its operands then arrive within ixuDepth
	// cycles of dispatch.
	retry uint64
}

type ixuOp struct {
	u  *UOp
	at uint64 // execution cycle inside the IXU
}

// ixuEligible reports whether the IXU's simple integer ALUs can execute op.
func ixuEligible(op isa.Op) bool {
	return op == isa.OpIntALU || op == isa.OpBranch || op == isa.OpNop
}

// NewFXA builds FXA with a backendCap-entry out-of-order IQ (Table II:
// half the baseline) and a 3-stage IXU.
func NewFXA(backendCap, width int, rn *rename.Renamer) *FXA {
	return &FXA{
		backend:  NewOoO(backendCap, width, false),
		rn:       rn,
		ixuDepth: 3,
		width:    width,
		ixu:      make([]ixuOp, 0, 64),
	}
}

// Name implements Scheduler.
func (s *FXA) Name() string { return "FXA" }

// Capacity implements Scheduler.
func (s *FXA) Capacity() int { return s.backend.Capacity() }

// Occupancy implements Scheduler.
func (s *FXA) Occupancy() int { return s.backend.Occupancy() + len(s.ixu) }

// Dispatch implements Scheduler: a simple μop whose sources will be ready
// by the time it reaches the IXU's execution stage is captured by the IXU;
// anything else goes to the back-end IQ.
func (s *FXA) Dispatch(u *UOp, cycle uint64) bool {
	ready := rename.NeverReady
	if ixuEligible(u.D.Op) {
		ready = s.rn.ReadyAt(u.Src[0])
		if r2 := s.rn.ReadyAt(u.Src[1]); r2 > ready {
			ready = r2
		}
		// The μop flows through the IXU stages; it can execute at the
		// first stage where its operands have arrived, up to ixuDepth
		// cycles after dispatch.
		if ready != rename.NeverReady && ready <= cycle+s.ixuDepth {
			at := cycle + 1
			if ready > at {
				at = ready
			}
			s.ixu = append(s.ixu, ixuOp{u: u, at: at})
			s.events.IXUExecs++
			s.ixuExecs++
			return true
		}
	}
	if !s.backend.Dispatch(u, cycle) {
		if ready != rename.NeverReady {
			s.retry = ready - s.ixuDepth
		}
		return false
	}
	s.beExecs++
	return true
}

// Issue implements Scheduler: IXU μops execute at their pipeline slot using
// the IXU's own functional units; back-end μops go through the conventional
// wakeup/select.
func (s *FXA) Issue(cycle uint64, ctx *IssueCtx) {
	keep := s.ixu[:0]
	for _, op := range s.ixu {
		if op.at <= cycle && ctx.Ready(op.u) {
			ctx.Grant(op.u)
		} else {
			keep = append(keep, op)
		}
	}
	s.ixu = keep
	s.backend.Issue(cycle, ctx)
}

// Tick implements Scheduler: the IXU has no per-cycle charges of its own.
func (s *FXA) Tick(n uint64) {
	s.backend.Tick(n)
	s.retry = 0
}

// Wake implements Scheduler: the IXU's timers are the execution cycles of
// its μops and the cycle a refused simple μop could enter it.
func (s *FXA) Wake(now uint64) uint64 {
	w := NoWake
	if s.retry > now {
		w = s.retry
	}
	for _, op := range s.ixu {
		if op.at > now && op.at < w {
			w = op.at
		}
	}
	return w
}

// Complete implements Scheduler.
func (s *FXA) Complete(dst rename.PhysReg, cycle uint64) {
	s.backend.Complete(dst, cycle)
}

// Flush implements Scheduler.
func (s *FXA) Flush(seq uint64) {
	keep := s.ixu[:0]
	for _, op := range s.ixu {
		if op.u.Seq() < seq {
			keep = append(keep, op)
		}
	}
	s.ixu = keep
	s.backend.Flush(seq)
}

// Queues implements Scheduler: the IXU's in-flight μops (dispatch order,
// but executed by operand arrival — not FIFO discipline) plus the back-end
// out-of-order IQ.
func (s *FXA) Queues() []QueueSnapshot {
	seqs := make([]uint64, len(s.ixu))
	for i, op := range s.ixu {
		seqs[i] = op.u.Seq()
	}
	qs := []QueueSnapshot{{Name: "IXU", FIFO: false, Cap: len(s.ixu), Seqs: seqs}}
	return append(qs, s.backend.Queues()...)
}

// Energy implements Scheduler.
func (s *FXA) Energy() EnergyEvents {
	e := s.events
	e.Add(s.backend.Energy())
	return e
}

// Counters implements Scheduler.
func (s *FXA) Counters() map[string]uint64 {
	return map[string]uint64{
		"issued":        s.ixuExecs + s.backend.issued,
		"ixu_execs":     s.ixuExecs,
		"backend_execs": s.beExecs,
	}
}

var _ Scheduler = (*FXA)(nil)
