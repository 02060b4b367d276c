// Package check is the simulation self-verification subsystem: an
// invariant auditor over the pipeline's architectural bookkeeping and a
// deadlock autopsy collector that turns a wedged simulation into an
// actionable structured report instead of a bare cycle-count error.
//
// The pipeline audits at every tick: each cycle it steps, and once for
// each jump over quiet cycles. Nothing the auditor reads can change inside
// a jump — a quiet cycle moves no μop, and a jump ends at the next
// completion — so every cycle's machine state is covered.
//
// The auditor proves, while the simulation runs, that the properties the
// paper's complexity-effectiveness claim rests on actually hold:
//
//   - ROB order: the reorder buffer holds live μops in strictly increasing
//     program order, and μops commit in exactly that order, exactly once.
//   - No lost μop: every fetched μop is either committed, squashed by a
//     flush, or still in flight — fetched = committed + squashed + ROB +
//     decode queue, at every tick.
//   - Queue discipline: every in-order scheduler queue (S-IQ, P-IQ
//     partitions, CASINO cascade stages, InO scoreboard FIFO) holds μops in
//     ascending program order, within capacity, and the per-queue totals
//     reconcile with the scheduler's reported occupancy.
//   - Scheduler residency: every buffered μop is a live, unissued ROB
//     entry, and every unissued ROB entry is buffered exactly once.
//   - LQ/SQ age order: loads and stores sit in their queues in program
//     order, within capacity, and each is a live ROB entry.
//   - Register readiness: an unissued μop whose source is not ready must
//     have an in-flight producer for that physical register still present
//     in the ROB — a missing producer is a lost wakeup, the canonical
//     cross-queue deadlock cause.
//   - Timing sanity: dispatch ≤ issue < complete for every issued μop.
package check

import (
	"fmt"
	"slices"

	"repro/internal/lsq"
	"repro/internal/rename"
	"repro/internal/sched"
)

// Source is the pipeline-introspection surface the auditor and the autopsy
// collector read. *pipeline.Pipeline implements it.
type Source interface {
	Cycle() uint64
	// ROBLen/ROBEntry expose the reorder buffer oldest-first without
	// copying it.
	ROBLen() int
	ROBEntry(i int) *sched.UOp
	DecodeDepth() int
	FetchIndex() int
	TraceLen() int
	// Totals returns lifetime μop accounting unaffected by the warmup
	// statistics reset: fetched, committed and squashed μop counts.
	Totals() (fetched, committed, squashed uint64)
	Scheduler() sched.Scheduler
	LSQ() *lsq.Queues
	Renamer() *rename.Renamer
	// TopdownConservation reports the top-down engine's blamed slots and
	// issue width × accounted cycles; on is false when no engine is
	// attached. The auditor requires got == want while on.
	TopdownConservation() (got, want uint64, on bool)
}

// ViolationError reports a broken simulation invariant. Autopsy is attached
// by the pipeline when the violation aborts a run.
type ViolationError struct {
	Invariant string // short invariant name ("rob-order", "lost-uop", ...)
	Cycle     uint64
	Detail    string
	Autopsy   *Autopsy
}

func (e *ViolationError) Error() string {
	s := fmt.Sprintf("check: invariant %q violated at cycle %d: %s", e.Invariant, e.Cycle, e.Detail)
	if e.Autopsy != nil {
		s += "\n" + e.Autopsy.String()
	}
	return s
}

// DeadlockError reports a simulation that stopped making forward progress.
// It always carries the machine-state autopsy of the moment the watchdog
// fired.
type DeadlockError struct {
	Reason  string
	Autopsy *Autopsy
}

func (e *DeadlockError) Error() string {
	s := "check: deadlock: " + e.Reason
	if e.Autopsy != nil {
		s += "\n" + e.Autopsy.String()
	}
	return s
}

// Auditor verifies the simulation invariants. Create one with NewAuditor
// and call Check at the end of every cycle the pipeline steps (it does
// this when auditing is enabled) and ObserveCommit for every committed
// μop.
type Auditor struct {
	nextCommit uint64 // expected next commit sequence number
	checks     uint64 // Check invocations

	// scratch, reused across checks to stay allocation-free in steady
	// state. Once rob-order holds, seqs is ascending, so a binary search
	// maps a seq to its ROB index.
	seqs      []uint64 // ROB index → seq
	producers []int    // physical register → 1 + ROB index of its producer (0: none)
	buffered  []bool   // ROB index → seen in a scheduler queue
	queues    []sched.QueueSnapshot
}

// NewAuditor returns an auditor expecting the commit stream to start at
// sequence number 0.
func NewAuditor() *Auditor { return &Auditor{} }

// Checks returns how many audits have run.
func (a *Auditor) Checks() uint64 { return a.checks }

// ObserveCommit verifies the commit stream: μops must commit in exactly
// program order, exactly once, with sane timestamps. The pipeline calls it
// from the commit stage.
func (a *Auditor) ObserveCommit(u *sched.UOp) error {
	if u.Seq() != a.nextCommit {
		return &ViolationError{
			Invariant: "commit-order",
			Detail:    fmt.Sprintf("committed seq %d, expected %d (lost or reordered μop)", u.Seq(), a.nextCommit),
		}
	}
	if u.Squashed {
		return &ViolationError{
			Invariant: "commit-order",
			Detail:    fmt.Sprintf("committed a squashed μop (seq %d)", u.Seq()),
		}
	}
	if !u.Issued {
		return &ViolationError{
			Invariant: "commit-order",
			Detail:    fmt.Sprintf("committed an unissued μop (seq %d)", u.Seq()),
		}
	}
	a.nextCommit++
	return nil
}

// Check audits the machine state at the end of one cycle; when the
// pipeline then jumps over quiet cycles, this one check covers them too,
// as their state is the same. It returns nil when every invariant holds,
// or the first ViolationError found.
func (a *Auditor) Check(s Source) error {
	a.checks++
	cycle := s.Cycle()

	fail := func(invariant, format string, args ...any) error {
		return &ViolationError{Invariant: invariant, Cycle: cycle, Detail: fmt.Sprintf(format, args...)}
	}

	// --- ROB order, liveness, timing sanity, producer table ---
	a.seqs = a.seqs[:0]
	clear(a.producers)
	n := s.ROBLen()
	unissued := 0
	for i := 0; i < n; i++ {
		u := s.ROBEntry(i)
		if u == nil {
			return fail("rob-order", "nil μop at ROB index %d", i)
		}
		if u.Squashed {
			return fail("rob-order", "squashed μop seq %d still in ROB at index %d", u.Seq(), i)
		}
		if i > 0 && u.Seq() <= a.seqs[i-1] {
			return fail("rob-order", "ROB index %d holds seq %d after seq %d (program order broken)", i, u.Seq(), a.seqs[i-1])
		}
		a.seqs = append(a.seqs, u.Seq())
		if d := int(u.Dst); d >= 0 {
			if d >= len(a.producers) {
				a.producers = append(a.producers, make([]int, d+1-len(a.producers))...)
			}
			a.producers[d] = i + 1
		}
		if u.Issued {
			if u.IssueCycle < u.DispatchCycle || u.CompleteCycle <= u.IssueCycle {
				return fail("timing", "seq %d: dispatch=%d issue=%d complete=%d violates dispatch ≤ issue < complete",
					u.Seq(), u.DispatchCycle, u.IssueCycle, u.CompleteCycle)
			}
		} else {
			unissued++
		}
	}

	// --- Expected commit head: the ROB head must be the next commit ---
	if n > 0 && s.ROBEntry(0).Seq() != a.nextCommit {
		return fail("commit-order", "ROB head seq %d but next expected commit is %d", s.ROBEntry(0).Seq(), a.nextCommit)
	}

	// --- No lost μop: lifetime accounting ---
	fetched, committed, squashed := s.Totals()
	inFlight := uint64(n) + uint64(s.DecodeDepth())
	if fetched != committed+squashed+inFlight {
		return fail("lost-uop", "fetched %d ≠ committed %d + squashed %d + in-flight %d (Δ=%d)",
			fetched, committed, squashed, inFlight, int64(fetched)-int64(committed+squashed+inFlight))
	}

	// --- Scheduler queue discipline and residency ---
	if cap(a.buffered) < n {
		a.buffered = make([]bool, n)
	} else {
		a.buffered = a.buffered[:n]
		clear(a.buffered)
	}
	total := 0
	a.queues = s.Scheduler().Queues(a.queues)
	for _, q := range a.queues {
		if q.Cap > 0 && len(q.Seqs) > q.Cap {
			return fail("queue-capacity", "%s holds %d μops, capacity %d", q.Name, len(q.Seqs), q.Cap)
		}
		prev := uint64(0)
		for i, seq := range q.Seqs {
			if q.FIFO && i > 0 && seq <= prev {
				return fail("queue-fifo", "%s: seq %d follows seq %d (FIFO discipline broken)", q.Name, seq, prev)
			}
			prev = seq
			ri, live := slices.BinarySearch(a.seqs, seq)
			if !live {
				return fail("queue-residency", "%s buffers seq %d which is not a live ROB entry", q.Name, seq)
			}
			if s.ROBEntry(ri).Issued {
				return fail("queue-residency", "%s buffers seq %d which has already issued", q.Name, seq)
			}
			if a.buffered[ri] {
				return fail("queue-residency", "seq %d buffered in more than one scheduler queue", seq)
			}
			a.buffered[ri] = true
		}
		total += len(q.Seqs)
	}
	if occ := s.Scheduler().Occupancy(); total != occ {
		return fail("queue-residency", "scheduler reports occupancy %d but queues hold %d μops", occ, total)
	}
	if total != unissued {
		return fail("queue-residency", "%d unissued ROB μops but %d buffered in scheduler queues (lost or duplicated entry)", unissued, total)
	}

	// --- LQ/SQ age order and residency ---
	lqCap, sqCap := s.LSQ().Caps()
	for name, q, cap := "LQ", s.LSQ().Loads(), lqCap; ; name, q, cap = "SQ", s.LSQ().Stores(), sqCap {
		if len(q) > cap {
			return fail("lsq-capacity", "%s holds %d entries, capacity %d", name, len(q), cap)
		}
		prev := uint64(0)
		for i, u := range q {
			if i > 0 && u.Seq() <= prev {
				return fail("lsq-order", "%s: seq %d follows seq %d (age order broken)", name, u.Seq(), prev)
			}
			prev = u.Seq()
			if _, live := slices.BinarySearch(a.seqs, u.Seq()); !live {
				return fail("lsq-order", "%s entry seq %d is not a live ROB entry", name, u.Seq())
			}
		}
		if name == "SQ" {
			break
		}
	}

	// --- Top-down slot conservation: every slot blamed exactly once ---
	if got, want, on := s.TopdownConservation(); on && got != want {
		return fail("topdown-conservation", "blamed %d issue slots but width × cycles = %d (Δ=%d)",
			got, want, int64(got)-int64(want))
	}

	// --- Register readiness: unready sources need an in-flight producer ---
	rn := s.Renamer()
	for i := 0; i < n; i++ {
		u := s.ROBEntry(i)
		if u.Issued {
			continue
		}
		for _, src := range u.Src {
			if src == rename.PhysNone || rn.Ready(src, cycle) {
				continue
			}
			if int(src) >= len(a.producers) || a.producers[src] == 0 {
				return fail("readiness", "seq %d waits on p%d which has no in-flight producer (lost wakeup)", u.Seq(), src)
			}
			p := s.ROBEntry(a.producers[src] - 1)
			if p.Seq() >= u.Seq() {
				return fail("readiness", "seq %d waits on p%d produced by younger seq %d", u.Seq(), src, p.Seq())
			}
			if p.Issued && p.CompleteCycle <= cycle {
				return fail("readiness", "seq %d waits on p%d whose producer seq %d completed at %d ≤ cycle %d (stale P-SCB entry)",
					u.Seq(), src, p.Seq(), p.CompleteCycle, cycle)
			}
		}
	}

	return nil
}
