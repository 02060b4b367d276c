// Package pipeline implements the execution-driven, cycle-level core model
// shared by every evaluated microarchitecture: fetch with TAGE+BTB, decode,
// two-stage rename with recovery log, dispatch with issue-port arbitration,
// a pluggable scheduler, execution over the Table I functional units and
// memory hierarchy, a load queue / store queue with memory-order-violation
// detection and replay, and in-order commit from a reorder buffer.
//
// Stages are evaluated commit-first each cycle so same-cycle structural
// hazards resolve the way hardware pipelines do.
package pipeline

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/bpred"
	"repro/internal/check"
	"repro/internal/isa"
	"repro/internal/lsq"
	"repro/internal/mdp"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/rename"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/topdown"
)

// Injector is the fault-injection hook surface. internal/faults implements
// it; every hook may only perturb timing (extra latency, vetoed dispatch,
// extra flushes, fabricated waits on strictly older stores), never
// architectural results — the invariant auditor runs over faulted machines
// too.
type Injector interface {
	// ExtraLatency returns extra completion cycles for a μop granted this
	// cycle.
	ExtraLatency(u *sched.UOp, cycle uint64) uint64
	// StallDispatch vetoes all dispatch this cycle when true.
	StallDispatch(cycle uint64) bool
	// FlushNow requests a mid-ROB flush this cycle; the pipeline picks a
	// bound younger than the ROB head so forward progress is preserved.
	FlushNow(cycle uint64) bool
	// ForceMDPWait requests a fabricated memory-dependence wait for the
	// memory μop being renamed; the pipeline targets the youngest unissued
	// store (strictly older than u).
	ForceMDPWait(u *sched.UOp, cycle uint64) bool
}

// Config describes the pipeline surrounding the scheduler.
type Config struct {
	FetchWidth  int
	RenameWidth int // decode/dispatch width
	IssueWidth  int
	CommitWidth int

	DecodeQueue int // allocation-queue entries between decode and rename
	ROBSize     int
	LQSize      int
	SQSize      int

	// FrontLatency is the fetch+decode+rename depth in cycles; it offsets
	// the decode→dispatch component of the delay breakdowns.
	FrontLatency uint64
	// RecoveryPenalty is charged on mispredict/violation recovery (Table I).
	RecoveryPenalty uint64

	Ports  *sched.PortMap
	Rename rename.Config
	MDP    mdp.Config
	Mem    mem.Config
	// UseMDP disables memory dependence prediction when false (§III-B's
	// "MDP off" baseline); violations then recur freely.
	UseMDP bool

	// MaxCycles aborts runaway simulations (0 = no limit).
	MaxCycles uint64
	// StallCycles is the forward-progress watchdog: a run that goes this
	// many cycles without committing a single μop is declared deadlocked
	// and aborted with a machine-state autopsy (0 = no watchdog).
	StallCycles uint64
}

// DefaultConfig returns the 8-wide Table I pipeline (scheduler not included).
func DefaultConfig() Config {
	return Config{
		FetchWidth:      4,
		RenameWidth:     4,
		IssueWidth:      8,
		CommitWidth:     8,
		DecodeQueue:     64,
		ROBSize:         224,
		LQSize:          72,
		SQSize:          56,
		FrontLatency:    6,
		RecoveryPenalty: 11,
		Ports:           sched.Ports8Wide(),
		Rename:          rename.DefaultConfig(),
		MDP:             mdp.DefaultConfig(),
		Mem:             mem.DefaultConfig(),
		UseMDP:          true,
		StallCycles:     200_000,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Ports == nil {
		return fmt.Errorf("pipeline: Ports is nil")
	}
	if c.IssueWidth != c.Ports.Width() {
		return fmt.Errorf("pipeline: IssueWidth %d != port count %d", c.IssueWidth, c.Ports.Width())
	}
	if c.FetchWidth <= 0 || c.RenameWidth <= 0 || c.CommitWidth <= 0 {
		return fmt.Errorf("pipeline: widths must be positive")
	}
	if c.ROBSize <= 0 || c.LQSize <= 0 || c.SQSize <= 0 || c.DecodeQueue <= 0 {
		return fmt.Errorf("pipeline: queue sizes must be positive")
	}
	if err := c.MDP.Validate(); err != nil {
		return err
	}
	return c.Rename.Validate()
}

// robEntry pairs an in-flight μop with its rename recovery record.
type robEntry struct {
	u   *sched.UOp
	rec rename.Entry
}

// robRing is the reorder buffer: a preallocated power-of-two ring of ROB
// entries. The logical capacity (cfg.ROBSize) is enforced by the dispatch
// stage; the ring only provides creep-free storage.
type robRing struct {
	buf  []robEntry
	mask int
	head int
	n    int
}

func (r *robRing) init(capacity int) {
	sz := 1
	for sz < capacity {
		sz <<= 1
	}
	r.buf = make([]robEntry, sz)
	r.mask = sz - 1
}

// at returns the i-th oldest entry (0 = commit head).
func (r *robRing) at(i int) *robEntry { return &r.buf[(r.head+i)&r.mask] }

func (r *robRing) push(e robEntry) {
	r.buf[(r.head+r.n)&r.mask] = e
	r.n++
}

func (r *robRing) popFront() {
	r.buf[r.head] = robEntry{}
	r.head = (r.head + 1) & r.mask
	r.n--
}

// truncate drops every entry from logical index cut on (flush recovery),
// zeroing the vacated slots so squashed μops can be recycled safely.
func (r *robRing) truncate(cut int) {
	for i := r.n - 1; i >= cut; i-- {
		r.buf[(r.head+i)&r.mask] = robEntry{}
	}
	r.n = cut
}

// decodeRing is the allocation queue between decode and rename: a
// preallocated power-of-two ring of decodeEntry values (the slice-based
// queue allocated one record per fetched μop).
type decodeRing struct {
	buf  []decodeEntry
	mask int
	head int
	n    int
}

func (r *decodeRing) init(capacity int) {
	sz := 1
	for sz < capacity {
		sz <<= 1
	}
	r.buf = make([]decodeEntry, sz)
	r.mask = sz - 1
}

// at returns a pointer to the i-th oldest entry; rename mutates it in
// place across stalled cycles.
func (r *decodeRing) at(i int) *decodeEntry { return &r.buf[(r.head+i)&r.mask] }

func (r *decodeRing) push(e decodeEntry) {
	r.buf[(r.head+r.n)&r.mask] = e
	r.n++
}

func (r *decodeRing) popFront() {
	r.buf[r.head] = decodeEntry{}
	r.head = (r.head + 1) & r.mask
	r.n--
}

func (r *decodeRing) clear() {
	for i := 0; i < r.n; i++ {
		r.buf[(r.head+i)&r.mask] = decodeEntry{}
	}
	r.n = 0
}

// wheelSpan is the completion wheel's horizon in cycles (a power of two).
// Nearly every functional-unit and cache latency lands within it; events
// further out (DRAM queueing tails) wait in one far chain that is
// re-offered to the wheel once per wheelSpan cycles.
const wheelSpan = 1024

// completionWheel is a timing wheel replacing the cycle→μops completion
// map: bucket (c & mask) holds exactly the events due at cycle c as long
// as every event is pushed less than wheelSpan cycles ahead. Buckets are
// intrusive linked lists threaded through UOp.WheelNext — a μop has at
// most one pending completion event and is never recycled while linked —
// so event scheduling never allocates, not even to grow a bucket.
//
// Events wheelSpan or more cycles ahead wait in one far chain, threaded
// through the same link in push order. Each rotation walks the chain and
// files the events now inside the horizon, so an event reaches its bucket
// at the first rotation that covers its due cycle, behind the events of
// that cycle filed before it.
type completionWheel struct {
	heads, tails [wheelSpan]*sched.UOp
	// due has bit (c & mask) set while bucket c holds an event, so the
	// next event cycle is a TrailingZeros64 scan (nextDue).
	due [wheelSpan / 64]uint64

	farHead, farTail *sched.UOp
}

// take empties the bucket due at cycle and returns its events, linked in
// push order (nil if none).
func (w *completionWheel) take(cycle uint64) *sched.UOp {
	i := cycle & (wheelSpan - 1)
	u := w.heads[i]
	if u != nil {
		w.heads[i], w.tails[i] = nil, nil
		w.due[i>>6] &^= 1 << (i & 63)
	}
	return u
}

// nextDue returns the first cycle after now whose bucket holds an event,
// or the next wheelSpan-aligned cycle, whichever comes first. A bucket at
// or behind now's slot is due at or past that boundary, and far events
// reach their buckets at a rotation — which runs on the boundary — before
// they are due, so the scan stops there.
func (w *completionWheel) nextDue(now uint64) uint64 {
	base := now &^ (wheelSpan - 1)
	from := now&(wheelSpan-1) + 1
	for i := from >> 6; i < wheelSpan/64; i++ {
		word := w.due[i]
		if i == from>>6 {
			word &= ^uint64(0) << (from & 63)
		}
		if word != 0 {
			return base + i<<6 + uint64(bits.TrailingZeros64(word))
		}
	}
	return base + wheelSpan
}

// push schedules u's completion event at cycle done (done > now, because
// every functional-unit latency is ≥ 1): into its due-cycle bucket when
// the horizon covers it, else onto the far chain. Both keep push order,
// the event order the goldens pin.
func (w *completionWheel) push(u *sched.UOp, done, now uint64) {
	u.WheelNext = nil
	if done-now >= wheelSpan {
		if w.farTail == nil {
			w.farHead = u
		} else {
			w.farTail.WheelNext = u
		}
		w.farTail = u
		return
	}
	i := done & (wheelSpan - 1)
	if w.tails[i] == nil {
		w.heads[i] = u
		w.due[i>>6] |= 1 << (i & 63)
	} else {
		w.tails[i].WheelNext = u
	}
	w.tails[i] = u
}

// rotate runs at every wheelSpan-aligned cycle, before the cycle's bucket
// is processed, and re-offers the far chain to push in chain order.
// Rotations are at most wheelSpan apart, so every event reaches its
// bucket before it is due.
func (w *completionWheel) rotate(now uint64) {
	u := w.farHead
	w.farHead, w.farTail = nil, nil
	for u != nil {
		next := u.WheelNext
		w.push(u, u.CompleteCycle, now)
		u = next
	}
}

// uopArena recycles μop records through a free list. Records are reset at
// allocation, not at release: a recycled μop may still sit (squashed) in a
// scheduler queue for the rest of its flush cycle, and late readers must
// keep seeing its Squashed flag.
type uopArena struct {
	free []*sched.UOp
}

func (a *uopArena) get() *sched.UOp {
	if n := len(a.free); n > 0 {
		u := a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		*u = sched.UOp{}
		return u
	}
	return new(sched.UOp)
}

func (a *uopArena) put(u *sched.UOp) { a.free = append(a.free, u) }

// Pipeline is one core simulation instance over a dynamic trace.
type Pipeline struct {
	cfg Config

	sched sched.Scheduler
	rn    *rename.Renamer
	pred  *bpred.Predictor
	mdp   *mdp.MDP
	mem   *mem.Hierarchy

	trace []isa.DynInst

	cycle uint64

	// Front end.
	fetchIdx        int // next trace index to fetch
	fetchStallUntil uint64
	// fetchStallIsRecovery distinguishes a mispredict/flush recovery
	// penalty (branch-recovery blame) from an icache-miss fetch stall
	// (frontend blame); it is set beside every fetchStallUntil write.
	fetchStallIsRecovery bool
	decodeQ              decodeRing

	// Back end.
	rob          robRing // in program order; at(0) is the oldest
	lsq          *lsq.Queues
	portInflight []int
	divBusyUntil []uint64

	// wheel schedules completion events; pool recycles μop records once
	// they are both retired (committed or squashed) and written back.
	// Recycling is bypassed while OnCommit is attached — observers may
	// legitimately retain committed μops.
	wheel completionWheel
	pool  uopArena

	// issueCtx is built once; allocating the two method-value closures
	// per cycle was a measurable share of the hot loop.
	issueCtx sched.IssueCtx

	// deps is the dependents index: for each physical register, the
	// dispatched μops waiting for its producer to issue, linked through
	// UOp.WaitNext so that filing a waiter never allocates. grant fills
	// in their SrcReady and, when the scheduler mirrors ready cycles
	// (waker), refreshes its copy.
	deps  []*sched.UOp
	waker sched.Waker
	// storeWaiters does the same for predicted memory dependences: the
	// dispatched μops held by an in-flight store that has not issued,
	// linked through UOp.MDPNext, at the store's seq modulo the ROB ring's
	// size. In-flight μops hold consecutive seqs, at most ROBSize of them,
	// so no two in-flight stores share an entry.
	storeWaiters []*sched.UOp

	// warmupCycles/warmupCommits record the state at the end of Warmup so
	// reported statistics cover only the measured region.
	warmupCycles  uint64
	warmupCommits uint64

	// Lifetime μop accounting, immune to the warmup statistics reset;
	// the auditor's no-lost-μop invariant reconciles these at every tick.
	totFetched   uint64
	totCommitted uint64
	totSquashed  uint64

	// lastCommitCycle feeds the forward-progress watchdog.
	lastCommitCycle uint64

	// busy marks a cycle in which a stage changed machine state: it
	// fetched (or looked up the instruction cache), renamed, dispatched,
	// granted, completed or committed. quiet records that the cycle
	// before was not busy (see stretch).
	busy, quiet bool

	// jumps and skipped count the measured region's jumps over quiet
	// cycles and the cycles they closed without stepping, consults its
	// calls of ready (see Engine).
	jumps, skipped, consults uint64

	// stepOnly turns quiet-cycle skipping off, so the loop steps every
	// cycle: the reference stepper the differential tests hold the
	// skipping loop to. Nothing outside the tests sets it.
	stepOnly bool

	// stall is why dispatch could not move its head this cycle
	// (topdown.StallNone if it could, or had nothing to move); tick
	// charges the stall counters.
	stall topdown.StallCause

	// audit, when non-nil, verifies the simulation invariants once per
	// tick; auditErr latches the first violation.
	audit    *check.Auditor
	auditErr error

	// inj, when non-nil, perturbs the machine with timing-only faults.
	inj Injector

	// obs, when non-nil, takes the commit delay histograms and periodic
	// heartbeat snapshots. events is the same recorder when it has sinks
	// (nil otherwise), and every stage emits typed events to it. A nil
	// recorder costs one untaken branch per site — the zero-cost-when-off
	// contract.
	obs, events *obs.Recorder

	// td, when non-nil, attributes every issue slot of every cycle to a
	// CPI-stack category. When nil the issue path keeps its original
	// closures (AttachTopdown swaps them), so a disabled engine is free.
	td *topdown.Engine

	stats stats.Sim

	// OnCommit, when non-nil, observes every committed μop in commit
	// order: the audit's golden-model replay, and tests.
	OnCommit func(u *sched.UOp)
}

// decodeEntry is a decoded μop waiting for rename/dispatch. Rename happens
// exactly once even if dispatch then stalls for several cycles.
type decodeEntry struct {
	u       *sched.UOp
	renamed bool
	rec     rename.Entry
	// visibleAt is when the μop emerges from the fetch/decode pipeline
	// and may be renamed (FrontLatency cycles after fetch).
	visibleAt uint64
}

// SchedulerFactory builds the scheduler once the pipeline has created the
// shared renamer and MDP (the scheduler may hold references to both).
type SchedulerFactory func(rn *rename.Renamer, m *mdp.MDP) sched.Scheduler

// New builds a pipeline over a dynamic trace.
func New(cfg Config, trace []isa.DynInst, mk SchedulerFactory) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h, err := mem.New(cfg.Mem)
	if err != nil {
		return nil, err
	}
	rn, err := rename.New(cfg.Rename)
	if err != nil {
		return nil, err
	}
	m := mdp.New(cfg.MDP)
	q, err := lsq.New(cfg.LQSize, cfg.SQSize)
	if err != nil {
		return nil, err
	}
	p := &Pipeline{
		cfg:          cfg,
		rn:           rn,
		pred:         bpred.New(),
		mdp:          m,
		mem:          h,
		lsq:          q,
		trace:        trace,
		portInflight: make([]int, cfg.Ports.Width()),
		divBusyUntil: make([]uint64, cfg.Ports.Width()),
	}
	p.rob.init(cfg.ROBSize)
	p.decodeQ.init(cfg.DecodeQueue)
	p.deps = make([]*sched.UOp, cfg.Rename.IntRegs+cfg.Rename.FpRegs)
	p.storeWaiters = make([]*sched.UOp, len(p.rob.buf))
	p.issueCtx = sched.IssueCtx{Ready: p.ready, Grant: p.grant}
	p.sched = mk(rn, m)
	if p.sched == nil {
		return nil, fmt.Errorf("pipeline: scheduler factory returned nil")
	}
	p.waker, _ = p.sched.(sched.Waker)
	return p, nil
}

// Scheduler exposes the scheduler under test (for counters and energy).
func (p *Pipeline) Scheduler() sched.Scheduler { return p.sched }

// Stats returns the accumulated simulation counters.
func (p *Pipeline) Stats() *stats.Sim { return &p.stats }

// Mem exposes the memory hierarchy (for stats and energy accounting).
func (p *Pipeline) Mem() *mem.Hierarchy { return p.mem }

// MDP exposes the memory dependence predictor.
func (p *Pipeline) MDP() *mdp.MDP { return p.mdp }

// Renamer exposes the renamer (for energy accounting).
func (p *Pipeline) Renamer() *rename.Renamer { return p.rn }

// Predictor exposes the branch predictor.
func (p *Pipeline) Predictor() *bpred.Predictor { return p.pred }

// Cycle returns the current simulation cycle.
func (p *Pipeline) Cycle() uint64 { return p.cycle }

// --- check.Source introspection surface ---

// ROBLen returns the live reorder-buffer depth.
func (p *Pipeline) ROBLen() int { return p.rob.n }

// ROBEntry returns the i-th oldest in-flight μop.
func (p *Pipeline) ROBEntry(i int) *sched.UOp { return p.rob.at(i).u }

// DecodeDepth returns the decode-queue depth.
func (p *Pipeline) DecodeDepth() int { return p.decodeQ.n }

// FetchIndex returns the next trace index to fetch.
func (p *Pipeline) FetchIndex() int { return p.fetchIdx }

// TraceLen returns the dynamic trace length.
func (p *Pipeline) TraceLen() int { return len(p.trace) }

// Totals returns lifetime (fetched, committed, squashed) μop counts,
// unaffected by the Warmup statistics reset.
func (p *Pipeline) Totals() (fetched, committed, squashed uint64) {
	return p.totFetched, p.totCommitted, p.totSquashed
}

// LSQ exposes the load/store queues.
func (p *Pipeline) LSQ() *lsq.Queues { return p.lsq }

var _ check.Source = (*Pipeline)(nil)

// EnableAudit attaches a fresh invariant auditor: the machine state is
// verified at every tick — each stepped cycle, and once for each jump
// over quiet cycles, which cannot change what the auditor reads — and
// every committed μop is checked against the expected commit stream. A
// violation aborts the run with a *check.ViolationError carrying a
// machine-state autopsy. Must be called before the first cycle (the
// auditor expects commit to start at seq 0).
func (p *Pipeline) EnableAudit() *check.Auditor {
	p.audit = check.NewAuditor()
	return p.audit
}

// SetInjector attaches a fault injector (nil detaches).
func (p *Pipeline) SetInjector(inj Injector) { p.inj = inj }

// AttachObs attaches an observability recorder (nil detaches): a
// heartbeat snapshot is taken each recorder interval, and commits feed its
// delay histograms. A recorder with sinks also gets the typed events of
// every stage and — when the scheduler implements sched.Probed — its
// internal steering/sharing events, and makes the loop step every cycle;
// a sink-less one sees no events and lets the loop skip quiet cycles (see
// stretch).
func (p *Pipeline) AttachObs(r *obs.Recorder) {
	p.obs, p.events = r, nil
	if r.HasSinks() {
		p.events = r
	}
	r.Start(p.ObsSnapshot())
	pr, ok := p.sched.(sched.Probed)
	if !ok {
		return
	}
	if p.events == nil {
		pr.SetProbe(nil)
		return
	}
	pr.SetProbe(func(kind sched.ProbeKind, cycle, seq uint64, arg int) {
		r.Emit(obs.Event{Kind: obs.FromProbe(kind), Cycle: cycle, Seq: seq, Arg: uint64(arg)})
	})
}

// AttachTopdown attaches a top-down cycle-accounting engine (nil
// detaches). Rather than branch on p.td inside ready/grant, the issue
// context's closures are swapped for instrumented wrappers, so a run
// without accounting pays nothing on the issue path — not even an
// untaken branch.
func (p *Pipeline) AttachTopdown(e *topdown.Engine) {
	p.td = e
	p.quiet = false // a jump replays only cycles the engine saw
	if e == nil {
		p.issueCtx = sched.IssueCtx{Ready: p.ready, Grant: p.grant}
		return
	}
	p.issueCtx = sched.IssueCtx{
		Ready:       p.readyTD,
		Grant:       p.grantTD,
		PortBlocked: p.portBlockedTD,
		Waiting:     p.waitingTD,
	}
}

// Topdown returns the attached cycle-accounting engine (nil when off).
func (p *Pipeline) Topdown() *topdown.Engine { return p.td }

// TopdownConservation implements check.Source: the auditor verifies
// blamed slots == width × cycles at every tick.
func (p *Pipeline) TopdownConservation() (got, want uint64, on bool) {
	return p.td.Conservation()
}

// readyTD is ready plus blame classification for examined-but-blocked
// μops (the scheduler looked at u and moved on). Once the cycle's blame
// is settled on memory, no later blockage can change it, so
// classification stops.
func (p *Pipeline) readyTD(u *sched.UOp) bool {
	if p.ready(u) {
		return true
	}
	if !p.td.Settled() {
		p.noteBlocked(u)
	}
	return false
}

// grantTD is grant plus a granted-slot note.
func (p *Pipeline) grantTD(u *sched.UOp) {
	p.grant(u)
	p.td.NoteGrant()
}

// portBlockedTD classifies a μop skipped because its issue port was
// already granted: FU contention if it was otherwise ready, else
// whatever actually blocks it. (Schedulers check the port before
// readiness, so u's readiness is unknown here; the extra ready() call
// only runs with accounting attached, for a μop whose SrcReady has come,
// and not at all once the cycle's blame is settled. It changes no
// machine state.)
func (p *Pipeline) portBlockedTD(u *sched.UOp) {
	if p.td.Settled() {
		return
	}
	if u.SrcReady <= p.cycle && p.ready(u) {
		p.td.NoteFUBlock()
	} else {
		p.noteBlocked(u)
	}
}

// waitingTD blames a μop select skipped because a producer wait holds it,
// as noteBlocked blamed the consult that refused such a μop.
func (p *Pipeline) waitingTD(u *sched.UOp) {
	if !p.td.Settled() {
		p.noteBlocked(u)
	}
}

// noteBlocked attributes a non-ready examined μop to memory (an
// in-flight-load source or unresolved memory-dependence wait — the
// load-delay blame rule), plain dependence wait, or a busy
// non-pipelined unit.
func (p *Pipeline) noteBlocked(u *sched.UOp) {
	for _, s := range u.Src {
		if p.rn.FastReady(s) {
			continue
		}
		if p.rn.LoadDep(s) {
			p.td.NoteMemBlock()
		} else {
			p.td.NoteDepBlock()
		}
		return
	}
	if u.D.Op.IsMem() && !p.mdpResolved(u) {
		p.td.NoteMemBlock()
		return
	}
	p.td.NoteFUBlock() // non-pipelined unit busy on u's port
}

// ObsSnapshot samples the cumulative counters and queue levels for an
// observability heartbeat.
func (p *Pipeline) ObsSnapshot() obs.Snapshot {
	nl, ns := p.lsq.Counts()
	s := obs.Snapshot{
		Cycle:          p.cycle,
		Committed:      p.stats.Committed,
		Fetched:        p.stats.Fetched,
		Issued:         p.stats.Issued,
		Flushes:        p.stats.Flushes,
		Squashed:       p.stats.Squashed,
		DispatchStalls: p.stats.DispatchStall,
		Violations:     p.stats.Violations,
		Mispredicts:    p.stats.Mispredicts,
		Dispatched:     p.stats.Dispatched,
		SchedOccupancy: p.sched.Occupancy(),
		LQ:             nl,
		SQ:             ns,
	}
	if sh, ok := p.sched.(sched.Sharer); ok {
		s.PIQShares = sh.PIQShares()
	}
	if p.td != nil {
		s.TopdownOn = true
		s.Topdown = p.td.Counts()
	}
	return s
}

// Warmup simulates until warmupCommits μops commit, then zeroes the
// timing statistics while keeping all microarchitectural state (caches,
// predictors, queues) warm — the paper's measurement methodology. Energy
// accounting in callers should note that structure event counters
// (scheduler, caches) keep accumulating across the warm-up.
func (p *Pipeline) Warmup(warmupCommits uint64) error {
	return p.WarmupContext(context.Background(), warmupCommits)
}

// WarmupContext is Warmup with cooperative cancellation (see RunContext).
func (p *Pipeline) WarmupContext(ctx context.Context, warmupCommits uint64) error {
	if _, err := p.RunContext(ctx, warmupCommits); err != nil {
		return err
	}
	committedBase := p.stats.Committed
	p.stats = stats.Sim{}
	p.jumps, p.skipped, p.consults = 0, 0, 0
	p.warmupCycles = p.cycle
	p.warmupCommits = committedBase
	return nil
}

// Engine reports how the cycle loop covered the measured region: the
// cycles it stepped, the quiet cycles it closed by jumping over them, the
// number of jumps, the readiness consults select made, and what attached
// — if anything — made it step every cycle: "sinks" (a recorder with
// sinks) or "faults", the first that applies.
func (p *Pipeline) Engine() obs.EngineInfo {
	e := obs.EngineInfo{
		SteppedCycles: p.cycle - p.warmupCycles - p.skipped,
		SkippedCycles: p.skipped,
		Jumps:         p.jumps,
		Consults:      p.consults,
	}
	switch {
	case p.events != nil:
		e.SteppedFor = "sinks"
	case p.inj != nil:
		e.SteppedFor = "faults"
	}
	return e
}

// Run simulates until maxCommits μops commit (or the trace drains) and
// returns the stats. Exceeding cfg.MaxCycles, tripping the forward-progress
// watchdog (cfg.StallCycles without a commit) or — with auditing enabled —
// breaking a simulation invariant aborts the run; the deadlock paths return
// a *check.DeadlockError and the audit path a *check.ViolationError, both
// carrying a structured machine-state autopsy.
func (p *Pipeline) Run(maxCommits uint64) (*stats.Sim, error) {
	return p.RunContext(context.Background(), maxCommits)
}

// cancelCheckMask paces the cancellation poll: the context is consulted
// once every (mask+1) cycles, so the hot loop pays nothing measurable for
// cancellability while a cancelled run still stops within microseconds.
const cancelCheckMask = 1<<10 - 1

// RunContext is Run with cooperative cancellation: when ctx is cancelled
// the simulation stops at the next poll boundary and returns the stats so
// far plus an error wrapping context.Cause(ctx) (so errors.Is against
// context.Canceled / context.DeadlineExceeded works). The pipeline stays
// internally consistent after a cancelled run — sinks can still be
// flushed and the partial statistics read — but the run cannot be
// resumed.
func (p *Pipeline) RunContext(ctx context.Context, maxCommits uint64) (*stats.Sim, error) {
	done := ctx.Done()
	for p.stats.Committed < maxCommits {
		if p.drained() {
			break
		}
		if done != nil && p.cycle&cancelCheckMask == 0 {
			select {
			case <-done:
				p.stats.Cycles = p.cycle - p.warmupCycles
				return &p.stats, fmt.Errorf("pipeline: run cancelled at cycle %d: %w", p.cycle, context.Cause(ctx))
			default:
			}
		}
		p.step()
		if p.auditErr != nil {
			return &p.stats, p.auditErr
		}
		if p.cfg.MaxCycles > 0 && p.cycle > p.cfg.MaxCycles {
			return &p.stats, &check.DeadlockError{
				Reason:  fmt.Sprintf("exceeded the %d-cycle budget at %s", p.cfg.MaxCycles, p.stats.String()),
				Autopsy: check.Collect(p),
			}
		}
		if p.cfg.StallCycles > 0 && p.cycle-p.lastCommitCycle > p.cfg.StallCycles {
			return &p.stats, &check.DeadlockError{
				Reason:  fmt.Sprintf("no commit for %d cycles (last at cycle %d)", p.cycle-p.lastCommitCycle, p.lastCommitCycle),
				Autopsy: check.Collect(p),
			}
		}
	}
	p.stats.Cycles = p.cycle - p.warmupCycles
	return &p.stats, nil
}

// drained reports whether every fetched μop has committed and no more can
// be fetched.
func (p *Pipeline) drained() bool {
	return p.fetchIdx >= len(p.trace) && p.rob.n == 0 && p.decodeQ.n == 0
}

// step advances one cycle, stages in reverse pipeline order — and, when
// the cycles after it are quiet, past all of them (see stretch).
func (p *Pipeline) step() {
	p.busy = false
	p.commit()
	p.processCompletions()
	p.injectFlush()
	p.issue()
	p.dispatch()
	p.fetch()
	p.tick(p.stretch())
}

// stretch returns how many cycles the current one closes: 1, or — on a
// run that may skip, after two quiet cycles in a row — every cycle up to
// the next one that can change machine state. A quiet cycle fetches,
// renames, dispatches, grants, completes and commits nothing, and the
// scheduler moves no μop between its queues; what remains are its
// per-cycle charges and events, which tick applies. Two in a row,
// because a shared P-IQ alternates its examined head: by then both heads
// were found not ready, and every quiet cycle up to the next event
// repeats one of the two.
//
// Runs with a recorder that has sinks or a fault plan attached keep
// stepping: sink events and injector draws are per cycle. Top-down
// accounting skips along (topdown.Engine.Repeat), and so do a sink-less
// recorder, which sees no events, and the auditor, which reads only
// state that a quiet cycle cannot change (see tick).
func (p *Pipeline) stretch() uint64 {
	if p.busy || p.stepOnly || p.events != nil || p.inj != nil {
		p.quiet = false
		return 1
	}
	wake := p.sched.Wake(p.cycle)
	if wake == p.cycle+1 || !p.quiet {
		p.quiet = wake != p.cycle+1
		return 1
	}
	p.quiet = false // the cycle the jump lands on starts a new streak
	n := p.nextEvent(wake) - p.cycle
	if n > 1 {
		p.jumps++
		p.skipped += n - 1
	}
	return n
}

// nextEvent returns the first cycle after the current one at which
// machine state can change while nothing is in motion — the earliest of:
//   - the next completion, or the next wheelSpan-aligned cycle, where the
//     wheel rotates and RunContext polls for cancellation;
//   - the scheduler's own timers (wake);
//   - the end of a fetch stall;
//   - the cycle the decode queue's head reaches rename;
//   - the end of a non-pipelined unit's busy period (today the divide's
//     own completion, but a resident divide waits on the former);
//   - the cycle past the MaxCycles budget, and the cycle the no-commit
//     watchdog fires, so both trip exactly where stepping trips them;
//   - the recorder's next heartbeat, so it snapshots the cycle stepping
//     snapshots (obs.Recorder.Horizon).
func (p *Pipeline) nextEvent(wake uint64) uint64 {
	next := min(p.wheel.nextDue(p.cycle), wake, p.obs.Horizon(p.cycle))
	if p.fetchStallUntil > p.cycle {
		next = min(next, p.fetchStallUntil)
	}
	if p.decodeQ.n > 0 {
		if v := p.decodeQ.at(0).visibleAt; v > p.cycle {
			next = min(next, v)
		}
	}
	for _, b := range p.divBusyUntil {
		if b > p.cycle {
			next = min(next, b)
		}
	}
	if m := p.cfg.MaxCycles; m > 0 && m < next {
		next = m + 1
	}
	if w := p.cfg.StallCycles; w > 0 && w < next-p.lastCommitCycle {
		next = p.lastCommitCycle + w + 1
	}
	return next
}

// tick closes the current cycle and the n−1 cycles after it. Every charge
// that recurs per cycle is applied n times here, and nowhere else:
//   - the scheduler occupancy sample (OccupancySum);
//   - the stall counters of a dispatch head that could not move;
//   - the scheduler's own per-cycle charges and state (Scheduler.Tick:
//     select inputs, reads of heads that did not issue, P-IQ head
//     alternation);
//   - top-down accounting's idle-slot blame;
//   - the clock.
//
// Recorder heartbeats and the auditor run between the charges and the
// clock, as they always have. A heartbeat is never due inside a jump
// (nextEvent ends it there), and the auditor checks a jump once: the ROB,
// queues, LSQ and lifetime totals stay fixed through quiet cycles, no
// ready time or completion falls inside a jump (it ends at the next
// completion), and top-down conservation is checked after Repeat.
func (p *Pipeline) tick(n uint64) {
	occ := p.sched.Occupancy()
	p.stats.OccupancySum += n * uint64(occ)
	if p.stall != topdown.StallNone {
		p.chargeStall(n)
	}
	p.sched.Tick(n)
	if p.td != nil {
		p.td.EndCycle(occ,
			p.cycle < p.fetchStallUntil && p.fetchStallIsRecovery,
			p.decodeQ.n >= p.cfg.DecodeQueue)
		p.td.Repeat(n - 1)
	}
	if p.obs.HeartbeatDue(p.cycle) {
		p.obs.Heartbeat(p.ObsSnapshot())
	}
	if p.audit != nil && p.auditErr == nil {
		if err := p.audit.Check(p); err != nil {
			err.(*check.ViolationError).Autopsy = check.Collect(p)
			p.auditErr = err
		}
	}
	p.cycle += n
}

// injectFlush performs a fault-injected mid-ROB flush. The bound is an
// entry past the midpoint — never the head — so the flush stresses rename
// recovery and refetch without endangering forward progress.
func (p *Pipeline) injectFlush() {
	if p.inj == nil || p.rob.n < 2 || !p.inj.FlushNow(p.cycle) {
		return
	}
	idx := 1 + p.rob.n/2
	if idx >= p.rob.n {
		idx = p.rob.n - 1
	}
	p.flushFrom(p.rob.at(idx).u.Seq())
}

// --- Commit ---

func (p *Pipeline) commit() {
	for n := 0; n < p.cfg.CommitWidth && p.rob.n > 0; n++ {
		e := p.rob.at(0)
		u, rec := e.u, e.rec
		if !u.Issued || u.CompleteCycle > p.cycle {
			return
		}
		p.busy = true
		p.rob.popFront()
		p.rn.Commit(rec)
		if u.D.IsStore() {
			// Stores write the data cache at commit and leave the SQ.
			p.mem.Store(u.D.Addr, p.cycle)
		}
		p.lsq.Remove(u)
		p.stats.Committed++
		p.totCommitted++
		p.lastCommitCycle = p.cycle
		p.stats.Record(u)
		if p.obs != nil {
			p.obs.ObserveCommit(u, p.cycle)
		}
		if p.audit != nil && p.auditErr == nil {
			if err := p.audit.ObserveCommit(u); err != nil {
				ve := err.(*check.ViolationError)
				ve.Cycle = p.cycle
				ve.Autopsy = check.Collect(p)
				p.auditErr = ve
			}
		}
		if p.OnCommit != nil {
			p.OnCommit(u)
		}
		u.Committed = true
		if u.WBDone {
			p.recycle(u)
		}
	}
}

// recycle returns a retired-and-written-back μop record to the arena.
// Disabled while an OnCommit observer is attached: observers may retain
// committed μops past their pipeline lifetime.
func (p *Pipeline) recycle(u *sched.UOp) {
	if p.OnCommit == nil {
		p.pool.put(u)
	}
}

// --- Execute / writeback events ---

func (p *Pipeline) processCompletions() {
	if p.cycle&(wheelSpan-1) == 0 {
		p.wheel.rotate(p.cycle)
	}
	u := p.wheel.take(p.cycle)
	if u != nil {
		p.busy = true
	}
	for u != nil {
		next := u.WheelNext
		u.WheelNext = nil
		u.WBDone = true
		if u.Squashed {
			p.recycle(u)
			u = next
			continue
		}
		p.sched.Complete(u.Dst, p.cycle)
		p.rn.MarkReady(u.Dst)
		if p.events != nil {
			p.events.Emit(obs.Event{Kind: obs.KindWriteback, Cycle: p.cycle, Seq: u.Seq(),
				PC: uint64(u.D.PC), Op: u.D.Op, Cls: u.Cls, Port: int16(u.Port)})
			if u.Dst != rename.PhysNone {
				p.events.Emit(obs.Event{Kind: obs.KindWakeup, Cycle: p.cycle, Seq: u.Seq(),
					Arg: uint64(u.Dst)})
			}
		}
		switch {
		case u.D.IsStore():
			// The store's address is now resolved: detect younger loads
			// that issued too early (memory order violation, §II-A).
			p.checkViolation(u)
		case u.D.IsBranch() && u.Mispred:
			// Fetch stopped at this branch (sentinel stall); resume after
			// the recovery penalty. No younger μop entered the pipeline,
			// so overwriting the stall is safe.
			p.fetchStallUntil = p.cycle + p.cfg.RecoveryPenalty
			p.fetchStallIsRecovery = true
		}
		if u.Squashed || u.Committed {
			p.recycle(u)
		}
		u = next
	}
}

// checkViolation flushes from the oldest younger load that read the same
// word before this store's address was known.
func (p *Pipeline) checkViolation(st *sched.UOp) {
	victim := p.lsq.ViolatingLoad(st)
	if victim == nil {
		return
	}
	p.stats.Violations++
	if p.cfg.UseMDP {
		p.mdp.TrainViolation(uint64(st.D.PC), uint64(victim.D.PC))
	}
	p.flushFrom(victim.Seq())
}

// flushFrom squashes every μop with seq ≥ bound and redirects fetch to it.
func (p *Pipeline) flushFrom(bound uint64) {
	p.stats.Flushes++
	if p.events != nil {
		p.events.Emit(obs.Event{Kind: obs.KindFlush, Cycle: p.cycle, Seq: bound})
	}

	// RAT restoration must unwind renames in reverse rename order. The
	// decode queue holds only μops younger than everything in the ROB, so
	// its (renamed) entries are undone first, youngest first. Entries that
	// never renamed have no state to undo but still count as squashed for
	// the lifetime μop accounting.
	for i := p.decodeQ.n - 1; i >= 0; i-- {
		de := p.decodeQ.at(i)
		if de.renamed {
			p.squash(de.u, de.rec)
		} else {
			de.u.Squashed = true
			p.totSquashed++
			p.recycle(de.u) // never entered the scheduler, LSQ or wheel
		}
	}
	p.decodeQ.clear()

	cut := p.rob.n
	for i := 0; i < p.rob.n; i++ {
		if p.rob.at(i).u.Seq() >= bound {
			cut = i
			break
		}
	}
	for i := p.rob.n - 1; i >= cut; i-- {
		e := p.rob.at(i)
		p.squash(e.u, e.rec)
	}
	p.rob.truncate(cut)

	p.sched.Flush(bound)

	// Redirect fetch. Overwrite any pending stall: a squashed mispredicted
	// branch would otherwise leave its (now meaningless) sentinel behind.
	p.fetchIdx = int(bound)
	p.fetchStallUntil = p.cycle + p.cfg.RecoveryPenalty
	p.fetchStallIsRecovery = true
}

// squash undoes one μop's side effects (reverse program order).
func (p *Pipeline) squash(u *sched.UOp, rec rename.Entry) {
	u.Squashed = true
	p.totSquashed++
	p.stats.Squashed++
	if p.events != nil {
		p.events.Emit(obs.Event{Kind: obs.KindSquash, Cycle: p.cycle, Seq: u.Seq(),
			PC: uint64(u.D.PC), Op: u.D.Op})
	}
	p.rn.Squash(rec)
	if !u.Issued {
		p.portInflight[u.Port]--
		if u.SrcReady == rename.NeverReady {
			p.dropWaiter(u)
		}
	}
	p.lsq.Remove(u)
	if u.D.IsStore() && p.cfg.UseMDP {
		p.mdp.StoreSquashed(u.SSID, u.Seq())
	}
	// Unissued μops have no pending completion event; issued ones whose
	// event already fired won't see the wheel again. Either way this squash
	// is the record's last pipeline touchpoint.
	if !u.Issued || u.WBDone {
		p.recycle(u)
	}
}

// --- Issue / execute ---

// mdpResolved reports whether u's predicted producer store no longer
// holds it, for top-down's blame: memReady has come.
func (p *Pipeline) mdpResolved(u *sched.UOp) bool {
	ready, _ := p.memReady(u)
	return ready <= p.cycle
}

// ready is the readiness consult for a μop whose SrcReady has come: every
// producer wait is over, so only a busy non-pipelined unit refuses it.
func (p *Pipeline) ready(u *sched.UOp) bool {
	p.consults++
	return sched.Pipelined(u.D.Op) || p.divBusyUntil[u.Port] <= p.cycle
}

func (p *Pipeline) issue() {
	p.issueCtx.Now = p.cycle
	p.sched.Issue(p.cycle, &p.issueCtx)
}

// grant executes u: computes its completion time through the functional
// units, store queue and memory hierarchy, and wakes up consumers through
// the P-SCB.
func (p *Pipeline) grant(u *sched.UOp) {
	p.busy = true
	u.Issued = true
	u.IssueCycle = p.cycle
	p.stats.Issued++
	p.portInflight[u.Port]--
	// When u's operands became available (the dispatch→ready component
	// of the delay breakdowns); a memory wait's end is not counted.
	u.ReadyCycle = max(u.DispatchCycle, p.regReady(u))

	lat := sched.Latency(u.D.Op)
	if !sched.Pipelined(u.D.Op) {
		p.divBusyUntil[u.Port] = p.cycle + lat
	}
	done := p.cycle + lat

	switch {
	case u.D.IsLoad():
		done = p.executeLoad(u)
	case u.D.IsStore():
		// AGU resolves the address at done; LFST releases at issue.
		if p.cfg.UseMDP {
			p.mdp.StoreIssued(u.SSID, u.Seq())
		}
		p.wakeMem(u)
	}

	if p.inj != nil {
		// Fault-injected latency jitter: applied before the completion
		// event and the wakeup timestamp so both stay consistent.
		done += p.inj.ExtraLatency(u, p.cycle)
	}

	u.CompleteCycle = done
	if u.Dst != rename.PhysNone {
		p.rn.SetReadyAt(u.Dst, done)
		p.wake(u.Dst)
	}
	p.wheel.push(u, done, p.cycle)

	if p.events != nil {
		p.events.Emit(obs.Event{Kind: obs.KindIssue, Cycle: p.cycle, Seq: u.Seq(),
			PC: uint64(u.D.PC), Op: u.D.Op, Cls: u.Cls, Port: int16(u.Port), Arg: u.ReadyCycle})
		p.events.Emit(obs.Event{Kind: obs.KindExec, Cycle: p.cycle, Seq: u.Seq(),
			PC: uint64(u.D.PC), Op: u.D.Op, Cls: u.Cls, Port: int16(u.Port), Arg: done})
	}
}

// srcReady is u's SrcReady: the later of the cycle both its register
// sources are available and the end of its memory wait, or
// rename.NeverReady while a producer has not issued.
func (p *Pipeline) srcReady(u *sched.UOp) uint64 {
	mem, _ := p.memReady(u)
	return max(p.regReady(u), mem)
}

// regReady is the cycle both of u's register sources are available, or
// rename.NeverReady while a producer has not issued.
func (p *Pipeline) regReady(u *sched.UOp) uint64 {
	return max(p.rn.ReadyAt(u.Src[0]), p.rn.ReadyAt(u.Src[1]))
}

// memReady returns the cycle u's predicted memory dependence stops holding
// it:
//   - 0 without a prediction, or once the store has left the SQ
//     (committed, or squashed);
//   - the cycle after the store's grant: the LFST release propagates
//     through the select logic, so an M-dependent μop cannot be granted
//     in the same cycle;
//   - rename.NeverReady while the store has not issued; the store is
//     returned too, to file u on.
//
// Honouring the wait cannot deadlock: every wait (register, FIFO
// position, LFST) targets a strictly older μop, so the oldest blocked μop
// always has an executing producer.
func (p *Pipeline) memReady(u *sched.UOp) (uint64, *sched.UOp) {
	if u.MDPWait == mdp.NoStore {
		return 0, nil
	}
	return p.storeReady(u.MDPWait)
}

// storeReady is memReady for a μop predicted to wait on the store with
// the given seq; memReady stays small enough to inline for the μops that
// wait on none.
func (p *Pipeline) storeReady(seq uint64) (uint64, *sched.UOp) {
	switch st := p.lsq.StoreBySeq(seq); {
	case st == nil:
		return 0, nil
	case st.Issued:
		return st.IssueCycle + 1, nil
	default:
		return rename.NeverReady, st
	}
}

// addWaiter files a dispatched μop whose SrcReady is unknown under each
// source whose producer has not issued and, when st is non-nil, on its
// predicted store st, which has not issued either.
func (p *Pipeline) addWaiter(u, st *sched.UOp) {
	for i, s := range u.Src {
		if p.rn.ReadyAt(s) == rename.NeverReady && (i == 0 || s != u.Src[0]) {
			u.WaitNext[i], p.deps[s] = p.deps[s], u
		}
	}
	if st != nil {
		head := p.waitersOf(st.Seq())
		u.MDPNext, *head = *head, u
		u.MDPBlockedSince = p.cycle
	}
}

// waitersOf returns the head of the waiter list of the in-flight store
// with the given seq.
func (p *Pipeline) waitersOf(seq uint64) **sched.UOp {
	return &p.storeWaiters[seq&uint64(p.rob.mask)]
}

// waitLink returns the link that threads u into r's waiter list.
func waitLink(u *sched.UOp, r rename.PhysReg) **sched.UOp {
	if u.Src[0] == r {
		return &u.WaitNext[0]
	}
	return &u.WaitNext[1]
}

// wake fills in the SrcReady of the μops waiting on r, whose producer was
// just granted; a μop still waiting on its other source stays unknown.
func (p *Pipeline) wake(r rename.PhysReg) {
	u := p.deps[r]
	p.deps[r] = nil
	for u != nil {
		link := waitLink(u, r)
		next := *link
		*link = nil
		u.SrcReady = p.srcReady(u)
		if u.SrcReady != rename.NeverReady && p.waker != nil {
			p.waker.Woken(u)
		}
		u = next
	}
}

// wakeMem fills in the SrcReady of the μops filed on store st, granted
// this cycle: their memory wait clears next cycle, so each is ready at the
// later of that and its register-ready cycle.
func (p *Pipeline) wakeMem(st *sched.UOp) {
	head := p.waitersOf(st.Seq())
	u := *head
	*head = nil
	for u != nil {
		next := u.MDPNext
		u.MDPNext = nil
		u.SrcReady = max(p.regReady(u), p.cycle+1)
		if u.SrcReady != rename.NeverReady && p.waker != nil {
			p.waker.Woken(u)
		}
		u = next
	}
}

// dropWaiter unlinks a squashed μop from the dependents index and from
// its predicted store's waiter list.
func (p *Pipeline) dropWaiter(u *sched.UOp) {
	for i, s := range u.Src {
		if s == rename.PhysNone || (i == 1 && s == u.Src[0]) {
			continue
		}
		for link := &p.deps[s]; *link != nil; link = waitLink(*link, s) {
			if *link == u {
				*link = u.WaitNext[i]
				u.WaitNext[i] = nil
				break
			}
		}
	}
	if u.MDPBlockedSince == 0 {
		return // never filed on a store
	}
	for link := p.waitersOf(u.MDPWait); *link != nil; link = &(*link).MDPNext {
		if *link == u {
			*link = u.MDPNext
			u.MDPNext = nil
			return
		}
	}
}

// executeLoad performs AGU + store-queue search + cache access and returns
// the completion cycle.
func (p *Pipeline) executeLoad(u *sched.UOp) uint64 {
	aguDone := p.cycle + sched.Latency(isa.OpLoad)
	// Store-to-load forwarding: the youngest older store to the same word
	// whose address/data resolve by the load's read (aguDone).
	if fwd := p.lsq.ForwardingStore(u, aguDone); fwd != nil {
		return aguDone + 2 // forwarding latency
	}
	return p.mem.Load(uint64(u.D.PC), u.D.Addr, aguDone)
}

// --- Rename / dispatch ---

func (p *Pipeline) dispatch() {
	if p.inj != nil && p.decodeQ.n > 0 && p.inj.StallDispatch(p.cycle) {
		p.dispatchStall(p.decodeQ.at(0).u, topdown.StallInjected)
		return
	}
	for n := 0; n < p.cfg.RenameWidth && p.decodeQ.n > 0; n++ {
		de := p.decodeQ.at(0)
		u := de.u
		if de.visibleAt > p.cycle {
			return // still in the fetch/decode/rename pipeline
		}
		if p.rob.n >= p.cfg.ROBSize {
			p.dispatchStall(u, topdown.StallROB)
			return
		}
		if !p.lsq.CanAccept(u) {
			p.dispatchStall(u, topdown.StallLSQ)
			return
		}
		if !de.renamed {
			if !p.renameOne(de) {
				p.dispatchStall(u, topdown.StallRename)
				return
			}
		}
		// Each attempt looks the predicted store up once: a store granted
		// while u stalled here has set the end of its wait.
		mem, st := p.memReady(u)
		u.SrcReady = max(p.regReady(u), mem)
		if !p.sched.Dispatch(u, p.cycle) {
			p.dispatchStall(u, topdown.StallIQ)
			return
		}
		if u.SrcReady == rename.NeverReady {
			p.addWaiter(u, st)
		}
		// Accepted: enter ROB and LSQ. Push before popping the decode slot
		// (de points into the ring's storage).
		p.busy = true
		u.DispatchCycle = p.cycle
		p.rob.push(robEntry{u: u, rec: de.rec})
		p.lsq.Insert(u)
		p.decodeQ.popFront()
		p.stats.Dispatched++
		if p.events != nil {
			p.events.Emit(obs.Event{Kind: obs.KindDispatch, Cycle: p.cycle, Seq: u.Seq(),
				PC: uint64(u.D.PC), Op: u.D.Op, Cls: u.Cls, Port: int16(u.Port)})
		}
	}
}

// dispatchStall records (and, when observed, reports) that the head μop
// could not move through rename/dispatch this cycle; tick counts it.
func (p *Pipeline) dispatchStall(u *sched.UOp, cause topdown.StallCause) {
	p.stall = cause
	p.td.NoteDispatchStall(cause)
	if p.events != nil {
		p.events.Emit(obs.Event{Kind: obs.KindStall, Cycle: p.cycle, Seq: u.Seq(),
			PC: uint64(u.D.PC), Op: u.D.Op})
	}
}

// chargeStall counts n cycles of this cycle's dispatch stall, splitting
// the legacy conflated counter by cause.
func (p *Pipeline) chargeStall(n uint64) {
	p.stats.DispatchStall += n
	switch p.stall {
	case topdown.StallROB:
		p.stats.StallROBFull += n
	case topdown.StallLSQ:
		p.stats.StallLSQFull += n
	case topdown.StallRename:
		p.stats.StallRename += n
		p.rn.NoteStalls(n)
	case topdown.StallIQ:
		p.stats.StallIQFull += n
	case topdown.StallInjected:
		p.stats.StallInjected += n
	}
	p.stall = topdown.StallNone
}

// renameOne performs the two-stage rename of §IV-B for the head μop:
// RAT lookup, free-list allocation, recovery-log append, load-dependence
// classification and MDP dispatch.
func (p *Pipeline) renameOne(de *decodeEntry) bool {
	u := de.u
	src, dst, rec, ok := p.rn.Rename(u.D)
	if !ok {
		return false
	}
	u.Src = src
	u.Dst = dst
	de.rec = rec
	de.renamed = true
	p.busy = true // renamer state moved, even if dispatch refuses u

	// Ld/LdC/Rst classification (§II-C): a μop is LdC when any source's
	// producer is an incomplete load or itself load-dependent.
	switch {
	case u.D.IsLoad():
		u.Cls = sched.ClassLd
		p.rn.SetLoadDep(dst, true)
	default:
		dep := false
		for _, s := range src {
			if s == rename.PhysNone {
				continue
			}
			if p.rn.ReadyAt(s) > p.cycle && p.rn.LoadDep(s) {
				dep = true
			}
		}
		if dep {
			u.Cls = sched.ClassLdC
		} else {
			u.Cls = sched.ClassRst
		}
		p.rn.SetLoadDep(dst, dep)
	}

	// Memory dependence prediction at dispatch (§II-A).
	u.MDPWait = mdp.NoStore
	u.SSID = -1
	if p.cfg.UseMDP {
		switch {
		case u.D.IsLoad():
			u.MDPWait, u.SSID = p.mdp.LoadDispatched(uint64(u.D.PC))
		case u.D.IsStore():
			u.MDPWait, u.SSID = p.mdp.StoreDispatched(uint64(u.D.PC), u.Seq(), mdp.NoIQ)
		}
	}

	// Fault-injected memory-dependence wait: target the youngest unissued
	// store, which is strictly older than u (u is not in the LSQ yet), so
	// fabricated waits cannot form a cycle.
	if p.inj != nil && u.D.Op.IsMem() && u.MDPWait == mdp.NoStore &&
		p.inj.ForceMDPWait(u, p.cycle) {
		if st := p.lsq.YoungestUnissuedStore(); st != nil {
			u.MDPWait = st.Seq()
		}
	}

	// Issue-port arbitration (§II-A): least-loaded suitable port.
	u.Port = p.cfg.Ports.Pick(u.D.Op, p.portInflight)
	p.portInflight[u.Port]++

	if p.events != nil {
		p.events.Emit(obs.Event{Kind: obs.KindDecode, Cycle: u.DecodeCycle, Seq: u.Seq(),
			PC: uint64(u.D.PC), Op: u.D.Op, Inst: u.D})
		p.events.Emit(obs.Event{Kind: obs.KindRename, Cycle: p.cycle, Seq: u.Seq(),
			PC: uint64(u.D.PC), Op: u.D.Op, Cls: u.Cls, Port: int16(u.Port), Arg: uint64(u.Dst)})
	}
	return true
}

// --- Fetch / decode ---

func (p *Pipeline) fetch() {
	if p.cycle < p.fetchStallUntil {
		return
	}
	for n := 0; n < p.cfg.FetchWidth; n++ {
		if p.fetchIdx >= len(p.trace) || p.decodeQ.n >= p.cfg.DecodeQueue {
			return
		}
		d := &p.trace[p.fetchIdx]
		p.busy = true

		// Instruction cache: 4-byte slots; a miss stalls the front end.
		iAddr := uint64(d.PC) * 4
		if fdone := p.mem.Fetch(iAddr, p.cycle); fdone > p.cycle+p.cfg.Mem.L1I.HitLatency {
			p.fetchStallUntil = fdone
			p.fetchStallIsRecovery = false // icache miss: frontend, not recovery
			return
		}

		u := p.pool.get()
		u.D = d
		u.DecodeCycle = p.cycle + 2 // after the fetch and decode stages
		u.MDPWait = mdp.NoStore
		u.SSID = -1
		p.stats.Fetched++
		p.totFetched++
		p.decodeQ.push(decodeEntry{u: u, visibleAt: p.cycle + p.cfg.FrontLatency})
		p.fetchIdx++
		if p.events != nil {
			p.events.Emit(obs.Event{Kind: obs.KindFetch, Cycle: p.cycle, Seq: u.Seq(),
				PC: uint64(d.PC), Op: d.Op})
		}

		if d.IsBranch() {
			p.stats.Branches++
			predTaken, tgt, known := p.pred.Predict(uint64(d.PC))
			effTaken := predTaken && known
			predNext := d.PC + 1
			if effTaken {
				predNext = tgt
			}
			p.pred.Update(uint64(d.PC), d.Taken, d.Next)
			if predNext != d.Next {
				// Mispredict: the front end follows the wrong path, so
				// fetch stops here until the branch resolves and the
				// pipeline recovers (§IV-F).
				p.stats.Mispredicts++
				u.Mispred = true
				p.fetchStallUntil = ^uint64(0) >> 1 // resolved at completion
				p.fetchStallIsRecovery = true
				return
			}
			if d.Taken {
				return // a taken branch ends the fetch group
			}
		}
	}
}
