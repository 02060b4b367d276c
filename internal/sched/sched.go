// Package sched defines the in-flight μop record, the Scheduler interface
// every evaluated microarchitecture implements, the issue-port/functional-
// unit bindings of Table I, and the baseline schedulers: the in-order
// scoreboard core (InO), the unified out-of-order IQ (OoO), the clustered
// dependence-steered P-IQs of CES, the cascaded speculative in-order IQs of
// CASINO, and the front-end execution architecture FXA.
//
// The Ballerino scheduler — the paper's contribution — lives in
// internal/core and implements the same interface.
package sched

import (
	"repro/internal/container"
	"repro/internal/isa"
	"repro/internal/rename"
)

// Class labels a μop for the decode-to-issue breakdowns of Figures 3c
// and 12: loads, load-dependents, and the rest.
type Class uint8

// Classification values.
const (
	ClassRst Class = iota // neither a load nor load-dependent at dispatch
	ClassLd               // load
	ClassLdC              // directly/transitively dependent on an incomplete load
)

func (c Class) String() string {
	switch c {
	case ClassLd:
		return "Ld"
	case ClassLdC:
		return "LdC"
	default:
		return "Rst"
	}
}

// UOp is an in-flight μop: the dynamic instruction plus renamed operands,
// issue-port binding and the timestamps the figures are built from.
type UOp struct {
	D    *isa.DynInst
	Dst  rename.PhysReg
	Src  [2]rename.PhysReg
	Port int
	Cls  Class

	// Memory dependence prediction state (loads and stores).
	SSID    int32
	MDPWait uint64 // dynamic seq of the store to wait for; mdp.NoStore if none
	// MDPBlockedSince is the cycle the pipeline filed this μop on its
	// predicted store's waiter list, which is its dispatch (0 = never
	// filed: no wait, or the store had issued or left the SQ by then). The
	// deadlock autopsy reports it.
	MDPBlockedSince uint64

	// Slot is the μop's position in a scheduler that mirrors ready cycles
	// in an array of its own (see Waker), owned by that scheduler.
	Slot int

	// SrcReady is the cycle from which every producer wait is over: both
	// register sources are available through the bypass network, and a
	// predicted memory dependence has cleared, the cycle after its store's
	// grant. It is rename.NeverReady while a register producer or the
	// store has not issued. The pipeline sets it at dispatch and fills it
	// in when the last producer is granted; select skips the μop until
	// then.
	SrcReady uint64

	// Timestamps (cycles).
	DecodeCycle   uint64
	DispatchCycle uint64
	ReadyCycle    uint64
	IssueCycle    uint64
	CompleteCycle uint64

	// Issued marks μops already granted (still occupying LSQ/ROB).
	Issued bool
	// Squashed marks μops removed by a pipeline flush; late completion
	// events for them are ignored.
	Squashed bool
	// Mispred marks a branch the front end predicted incorrectly; fetch
	// stalls until it resolves.
	Mispred bool

	// Committed and WBDone are pipeline-owned recycling state: a μop can
	// return to the free-list arena only once it has both left the ROB
	// (committed or squashed) and had its completion event processed — the
	// two events can land in either order within a cycle, so whichever
	// happens second recycles the record.
	Committed bool
	// WBDone marks μops whose completion (writeback) event has fired.
	WBDone bool

	// WaitNext holds the pipeline-owned intrusive links threading this
	// μop into the dependents index: WaitNext[i] is the next μop waiting
	// on the producer of Src[i] (one link when both sources name the same
	// register). MDPNext threads it into its predicted store's waiter
	// list until the store is granted.
	WaitNext [2]*UOp
	MDPNext  *UOp

	// WheelNext is the pipeline-owned intrusive link threading this μop
	// into its completion-wheel bucket. A μop has at most one pending
	// completion event, so event lists need no storage of their own.
	WheelNext *UOp
}

// Seq returns the μop's dynamic sequence number.
func (u *UOp) Seq() uint64 { return u.D.Seq }

// EnergyEvents counts the scheduler-internal events the energy model
// converts to joules. Each scheduler increments what its circuits would do.
type EnergyEvents struct {
	WakeupBroadcasts uint64 // destination-tag broadcasts into CAM wakeup
	WakeupCompares   uint64 // CAM tag comparisons (broadcasts × live entries × 2)
	SelectInputs     uint64 // prefix-sum inputs evaluated, summed per cycle
	QueueWrites      uint64 // FIFO/IQ entry writes (dispatch, inter-IQ copies)
	QueueReads       uint64 // FIFO/IQ entry reads (head examination, issue)
	PayloadReads     uint64 // payload RAM reads on grant
	PSCBReads        uint64 // physical-register scoreboard reads
	PSCBWrites       uint64
	SteerOps         uint64 // steering decisions performed
	IXUExecs         uint64 // μops executed by FXA's in-order execution unit
}

// Add accumulates other into e.
func (e *EnergyEvents) Add(other EnergyEvents) {
	e.WakeupBroadcasts += other.WakeupBroadcasts
	e.WakeupCompares += other.WakeupCompares
	e.SelectInputs += other.SelectInputs
	e.QueueWrites += other.QueueWrites
	e.QueueReads += other.QueueReads
	e.PayloadReads += other.PayloadReads
	e.PSCBReads += other.PSCBReads
	e.PSCBWrites += other.PSCBWrites
	e.SteerOps += other.SteerOps
	e.IXUExecs += other.IXUExecs
}

// IssueCtx is the per-cycle issue interface the pipeline hands to the
// scheduler. CanIssue (or Ready, for a μop whose SrcReady has come) must
// be consulted before Grant; Grant issues the μop.
type IssueCtx struct {
	// Now is the cycle being issued.
	Now uint64
	// Ready is the readiness consult: whether u can issue this cycle.
	// Schedulers consult it only once u's SrcReady has come, so only a
	// busy non-pipelined functional unit can refuse it.
	Ready func(u *UOp) bool
	// Grant issues u this cycle. The scheduler must respect one grant per
	// issue port per cycle.
	Grant func(u *UOp)
	// PortBlocked, when non-nil, reports that the scheduler skipped u
	// because its issue port was already granted this cycle. It is only
	// set while the pipeline's topdown cycle accounting is attached —
	// schedulers must nil-check it — and it classifies the lost slot
	// (FU contention when u was otherwise ready) for the CPI stack.
	PortBlocked func(u *UOp)
	// Waiting, when non-nil, reports that the scheduler skipped u without
	// a consult because a register source or its predicted store is not
	// ready yet (SrcReady after Now). Like PortBlocked it is set only
	// while topdown accounting is attached, and it blames the lost slot as
	// a refused consult would.
	Waiting func(u *UOp)
}

// CanIssue reports whether u can issue this cycle: false without a
// consult while a producer wait holds u (reported through Waiting), else
// the Ready consult.
func (c *IssueCtx) CanIssue(u *UOp) bool {
	if u.SrcReady > c.Now {
		if c.Waiting != nil {
			c.Waiting(u)
		}
		return false
	}
	return c.Ready(u)
}

// Scheduler is the issue-queue organisation under evaluation. The
// surrounding pipeline (fetch/rename/execute/commit) is identical for all
// implementations, per the paper's methodology.
type Scheduler interface {
	// Name identifies the microarchitecture ("OoO", "CES", ...).
	Name() string
	// Capacity returns the total scheduling-window entries.
	Capacity() int
	// Dispatch offers a renamed μop, its SrcReady set, in program
	// order. It returns false
	// when the scheduler cannot accept it this cycle (dispatch stalls);
	// a refusal's charges recur every stalled cycle, so they are
	// recorded for Tick.
	Dispatch(u *UOp, cycle uint64) bool
	// Issue performs this cycle's wakeup/select, granting ready μops.
	// Charges that recur every cycle — select inputs, and the reads and
	// stall counters of examined μops that did not issue — are recorded
	// for Tick rather than charged here.
	Issue(cycle uint64, ctx *IssueCtx)
	// Tick closes the current cycle and the n−1 cycles after it: it
	// applies n times the per-cycle charges this cycle's Issue and
	// Dispatch recorded, and the per-cycle state updates (such as the
	// P-IQ head alternation). The pipeline passes n > 1 only when the
	// cycles after this one are quiet — nothing is fetched, dispatched,
	// granted, moved between queues, completed or committed — so each
	// of them repeats this cycle or, for state that alternates, the one
	// before it.
	Tick(n uint64)
	// Wake returns the first cycle after now at which the scheduler can
	// change state without a grant, a dispatch or a completion: now+1
	// when this cycle's Issue moved a μop between its own queues, else
	// the earliest of its own timers, else NoWake. The pipeline asks
	// after Issue and Dispatch, before Tick.
	Wake(now uint64) uint64
	// Complete notifies that the value of dst became available (wakeup
	// broadcast in CAM-based designs).
	Complete(dst rename.PhysReg, cycle uint64)
	// Flush removes every μop with sequence number ≥ seq.
	Flush(seq uint64)
	// Occupancy returns the μops currently buffered.
	Occupancy() int
	// Energy returns accumulated energy events.
	Energy() EnergyEvents
	// Counters exposes microarchitecture-specific event counts used by
	// the figure harnesses (steering outcomes, issue sources, ...).
	Counters() map[string]uint64
	// Queues exposes the internal queue state for the invariant auditor
	// and the deadlock autopsy: it fills dst[:0] (see NextQueue) and
	// returns it, so a caller that passes its last result back audits
	// without allocating. The snapshots must cover every buffered μop
	// exactly once (their total length equals Occupancy()).
	Queues(dst []QueueSnapshot) []QueueSnapshot
}

// NoWake is the Wake result of a scheduler that waits only on pipeline
// events.
const NoWake = ^uint64(0)

// QueueSnapshot is a read-only view of one internal scheduler queue, used
// by the invariant auditor (internal/check) and the deadlock autopsy. Seqs
// lists the buffered μops' dynamic sequence numbers in head-first order.
// FIFO marks queues whose entries must stay in ascending program order
// (in-order queue discipline); random-access structures report FIFO=false.
type QueueSnapshot struct {
	Name string
	FIFO bool
	Cap  int
	Seqs []uint64
}

// NextQueue extends qs by one snapshot with the given header and returns
// it for filling; the snapshot's Seqs keeps the storage an earlier call
// left in that element, truncated to zero length.
func NextQueue(qs []QueueSnapshot, name string, fifo bool, capacity int) ([]QueueSnapshot, *QueueSnapshot) {
	if len(qs) < cap(qs) {
		qs = qs[:len(qs)+1]
	} else {
		qs = append(qs, QueueSnapshot{})
	}
	q := &qs[len(qs)-1]
	q.Name, q.FIFO, q.Cap, q.Seqs = name, fifo, capacity, q.Seqs[:0]
	return qs, q
}

// appendSeqs appends r's sequence numbers, head first, to seqs.
func appendSeqs(seqs []uint64, r *container.Ring[*UOp]) []uint64 {
	for i := 0; i < r.Len(); i++ {
		seqs = append(seqs, r.At(i).Seq())
	}
	return seqs
}

// ProbeKind identifies a scheduler-internal event reported through a
// Probe: steering outcomes, P-IQ sharing-mode activity and S-IQ→P-IQ
// promotions. The observability layer (internal/obs) maps these onto its
// event bus.
type ProbeKind uint8

// Scheduler-internal probe events.
const (
	// ProbeSteerMDAHit: a memory μop was steered into its predicted
	// producer store's P-IQ (arg = P-IQ index).
	ProbeSteerMDAHit ProbeKind = iota
	// ProbeSteerMDAMiss: an MDA steering candidate could not follow its
	// producer (location unknown, reserved, or queue full).
	ProbeSteerMDAMiss
	// ProbeSteerDep: a μop was steered along an R-dependence (arg = P-IQ).
	ProbeSteerDep
	// ProbeSteerNewChain: a μop allocated an empty P-IQ as a new
	// dependence-chain head (arg = P-IQ).
	ProbeSteerNewChain
	// ProbePIQSplit: a P-IQ entered sharing mode, splitting into two
	// partitions (arg = P-IQ).
	ProbePIQSplit
	// ProbePIQShare: a μop was placed into a shared P-IQ partition
	// (arg = P-IQ).
	ProbePIQShare
	// ProbePIQMerge: a shared P-IQ's partitions merged back into a single
	// FIFO (arg = P-IQ).
	ProbePIQMerge
	// ProbeSIQPromote: a μop left the S-IQ into the P-IQ cluster.
	ProbeSIQPromote
)

// Probe observes scheduler-internal events. Implementations must be cheap
// — probes fire on scheduler hot paths. A nil Probe disables reporting.
type Probe func(kind ProbeKind, cycle, seq uint64, arg int)

// Probed is implemented by schedulers that can report internal events
// through a Probe. SetProbe(nil) detaches.
type Probed interface {
	SetProbe(Probe)
}

// Waker is implemented by schedulers that mirror their μops' SrcReady in
// an array of their own, so select scans ready cycles without touching
// the μops: Woken refreshes u's entry once the pipeline has filled in
// u.SrcReady.
type Waker interface {
	Woken(u *UOp)
}

// Sharer is implemented by schedulers with P-IQ sharing mode (§III-C):
// PIQShares counts the μops allocated into a shared P-IQ partition since
// the scheduler was built.
type Sharer interface {
	PIQShares() uint64
}

// portMask tracks per-cycle issue-port grants without allocating. Ports
// are bounded by the widest machine (16).
type PortMask [16]bool

func (m *PortMask) Used(p int) bool { return m[p] }
func (m *PortMask) Set(p int)       { m[p] = true }
func (m *PortMask) Reset()          { *m = PortMask{} }
