// Package topdown is the cycle-accounting engine behind the simulator's
// CPI stacks: every issue slot of every cycle is attributed to exactly one
// category — useful issue (base) or one of the stall causes the paper's
// evaluation reasons about (frontend, branch/flush recovery, the dispatch
// structural stalls, issue-queue pressure, RAW dependences, functional-unit
// contention, memory/load delay) — under a hard conservation invariant:
//
//	sum over categories of blamed slots == issue width × accounted cycles
//
// The internal/check auditor enforces the invariant at every tick of an
// audited run (through the pipeline's TopdownConservation), jumps over
// quiet cycles included, so an attribution bug cannot silently skew a
// CPI stack.
//
// Like internal/obs and internal/span, the engine is zero-cost when off:
// the pipeline holds a nil *Engine, the one issue-path hook that feeds it
// (the scheduler's report of a μop select passed over) stays nil, and the
// grants it charges are counted from the pipeline's issue counter, so a
// run without -topdown pays nothing on the grant path. Every method is
// nil-safe.
//
// Memory blame follows Diavastos & Carlson's load-delay tracking: a slot
// lost to a source register produced by an in-flight load (or a
// load-dependent chain, the renamer's LoadDep bit) or to an unresolved
// memory-dependence wait is charged to the memory category, not to generic
// dependence wait. The occupancy-driven components admit a Carroll & Lin
// closed-form cross-check (Little's law over the scheduling window), which
// the test suite applies on the stream kernel.
package topdown

// Category is one slot-blame bucket of the CPI stack.
type Category uint8

// The blame categories. Base is useful issue; the rest partition the idle
// slots. NumCategories sizes arrays indexed by Category.
const (
	// Base counts slots that issued a μop.
	Base Category = iota
	// Frontend: no work available — fetch/decode latency, icache misses,
	// a drained trace, or an injector-vetoed dispatch.
	Frontend
	// BranchRecovery: the front end is stalled waiting out a mispredict or
	// flush recovery penalty.
	BranchRecovery
	// ROBFull: dispatch blocked because the reorder buffer is full.
	ROBFull
	// RenameStall: dispatch blocked in rename (no free physical register).
	RenameStall
	// DispatchQFull: the decode/dispatch allocation queue is the
	// bottleneck (full, with nothing dispatchable this cycle).
	DispatchQFull
	// IQFull: the scheduler refused dispatch — the issue queue is full.
	IQFull
	// LSQFull: dispatch blocked on a full load or store queue.
	LSQFull
	// DepWait: buffered μops exist but none is ready (RAW dependences on
	// non-load producers).
	DepWait
	// Memory: a μop was held by load-delayed operands or an unresolved
	// memory-dependence (MDP/LFST) wait — Diavastos & Carlson's
	// load-delay blame.
	Memory
	// FUContention: a ready μop lost issue-port arbitration or waits on a
	// busy non-pipelined unit.
	FUContention

	NumCategories
)

var categoryNames = [NumCategories]string{
	Base:           "base",
	Frontend:       "frontend",
	BranchRecovery: "branch_recovery",
	ROBFull:        "rob_full",
	RenameStall:    "rename_stall",
	DispatchQFull:  "dispatch_q_full",
	IQFull:         "iq_full",
	LSQFull:        "lsq_full",
	DepWait:        "dep_wait",
	Memory:         "memory",
	FUContention:   "fu_contention",
}

// String returns the category's stable snake_case name (used as the JSON
// map key, CSV column and Prometheus label value).
func (c Category) String() string {
	if c < NumCategories {
		return categoryNames[c]
	}
	return "unknown"
}

// Names returns the category names in Category order. The returned slice
// is shared; callers must not mutate it.
func Names() []string { return categoryNames[:] }

// StallCause classifies why the dispatch stage could not move its head μop
// — the typed split of the legacy conflated dispatch-stall counter.
type StallCause uint8

// Dispatch stall causes.
const (
	StallNone     StallCause = iota
	StallROB                 // reorder buffer full
	StallLSQ                 // load or store queue full
	StallRename              // no free physical register
	StallIQ                  // scheduler (issue queue) refused the μop
	StallInjected            // fault injector vetoed dispatch this cycle
)

// Category maps a dispatch stall cause to its blame bucket.
func (c StallCause) Category() Category {
	switch c {
	case StallROB:
		return ROBFull
	case StallLSQ:
		return LSQFull
	case StallRename:
		return RenameStall
	case StallIQ:
		return IQFull
	default:
		// An injector veto is not the machine's fault; lump it with the
		// "nothing arrived" bucket so real categories stay meaningful.
		return Frontend
	}
}

// Engine accumulates the per-cycle slot attribution for one pipeline. All
// note-taking methods are nil-safe no-ops, and none of them allocates: the
// per-cycle scratch is a handful of scalar fields reset by EndCycle.
type Engine struct {
	width  uint64
	cycles uint64
	slots  [NumCategories]uint64

	// overIssue counts grants beyond the nominal issue width in one cycle
	// (FXA's IXU executes eligible μops besides the backend's ports).
	// They are excluded from the conserved slot count but reported, so an
	// over-wide design's base category stays clamped at 100%.
	overIssue uint64

	// Per-cycle scratch, highest-priority blame first.
	memBlock  bool
	depBlock  bool
	fuBlock   bool
	dispCause StallCause

	// last and prev are the idle-slot categories of the last two closed
	// cycles (Base for a cycle without idle slots), which Repeat charges.
	last, prev Category
}

// New returns an engine accounting width issue slots per cycle.
func New(width int) *Engine {
	if width <= 0 {
		width = 1
	}
	return &Engine{width: uint64(width)}
}

// NoteMemBlock records that a μop was held back this cycle by load-delayed
// operands or an unresolved memory-dependence wait.
func (e *Engine) NoteMemBlock() {
	if e == nil {
		return
	}
	e.memBlock = true
}

// Settled reports whether this cycle's idle-slot blame is already decided.
// Memory outranks every other cause (see EndCycle), so once NoteMemBlock
// has fired the issue path need not classify further blocked μops. False
// on a nil engine.
func (e *Engine) Settled() bool {
	return e != nil && e.memBlock
}

// NoteDepBlock records that a μop was held back this cycle by a plain RAW
// dependence (non-load producer).
func (e *Engine) NoteDepBlock() {
	if e == nil {
		return
	}
	e.depBlock = true
}

// NoteFUBlock records that a ready μop lost port arbitration (or waits on
// a busy non-pipelined unit) this cycle.
func (e *Engine) NoteFUBlock() {
	if e == nil {
		return
	}
	e.fuBlock = true
}

// NoteDispatchStall records the dispatch stage's stall cause this cycle.
// The first cause wins: it is the head-of-queue blockage.
func (e *Engine) NoteDispatchStall(c StallCause) {
	if e == nil {
		return
	}
	if e.dispCause == StallNone {
		e.dispCause = c
	}
}

// EndCycle closes one cycle: its grants are charged to Base and every
// idle slot to exactly one stall category, chosen by precedence —
// memory > dependence wait > FU contention > the dispatch stall cause >
// occupied-but-idle window (dependence wait) > branch/flush recovery >
// full dispatch queue > frontend. schedOcc is the scheduler occupancy at
// end of cycle, recovering reports a front end stalled on a mispredict or
// flush penalty, and dispatchQFull a full decode/dispatch queue.
func (e *Engine) EndCycle(grants uint64, schedOcc int, recovering, dispatchQFull bool) {
	if e == nil {
		return
	}
	e.cycles++
	if grants > e.width {
		e.overIssue += grants - e.width
		grants = e.width
	}
	e.slots[Base] += grants
	e.prev, e.last = e.last, Base
	if idle := e.width - grants; idle > 0 {
		e.last = e.blame(schedOcc, recovering, dispatchQFull)
		e.slots[e.last] += idle
	}
	e.memBlock, e.depBlock, e.fuBlock = false, false, false
	e.dispCause = StallNone
}

// Repeat closes k more cycles after the one EndCycle just closed, in
// which nothing issues and the machine repeats its last two cycles in
// turn (the pipeline's quiet stretches): each charges its whole width to
// the category of the cycle two before it.
func (e *Engine) Repeat(k uint64) {
	if e == nil || k == 0 {
		return
	}
	e.cycles += k
	e.slots[e.prev] += e.width * ((k + 1) / 2)
	e.slots[e.last] += e.width * (k / 2)
	if k&1 == 1 {
		e.prev, e.last = e.last, e.prev
	}
}

// blame picks the cycle's idle-slot category.
func (e *Engine) blame(schedOcc int, recovering, dispatchQFull bool) Category {
	switch {
	case e.memBlock:
		return Memory
	case e.depBlock:
		return DepWait
	case e.fuBlock:
		return FUContention
	case e.dispCause != StallNone:
		return e.dispCause.Category()
	case schedOcc > 0:
		// μops are buffered but no blockage was observed at the examined
		// heads (deeper entries the scheduler never looked at): still a
		// dependence-shaped wait, not a frontend one.
		return DepWait
	case recovering:
		return BranchRecovery
	case dispatchQFull:
		return DispatchQFull
	default:
		return Frontend
	}
}

// Width returns the accounted issue width (0 on a nil engine).
func (e *Engine) Width() int {
	if e == nil {
		return 0
	}
	return int(e.width)
}

// Cycles returns the accounted cycle count (0 on a nil engine).
func (e *Engine) Cycles() uint64 {
	if e == nil {
		return 0
	}
	return e.cycles
}

// Counts returns the per-category slot counters (zero on a nil engine).
func (e *Engine) Counts() [NumCategories]uint64 {
	if e == nil {
		return [NumCategories]uint64{}
	}
	return e.slots
}

// OverIssue returns slots granted beyond the nominal width (0 on nil).
func (e *Engine) OverIssue() uint64 {
	if e == nil {
		return 0
	}
	return e.overIssue
}

// Conservation returns the blamed slot total, the conserved target
// (width × cycles) and whether the engine is accounting. The two totals
// must be equal every cycle — the invariant internal/check enforces.
func (e *Engine) Conservation() (got, want uint64, on bool) {
	if e == nil {
		return 0, 0, false
	}
	for _, v := range e.slots {
		got += v
	}
	return got, e.width * e.cycles, true
}

// Report is the end-of-run rendering of the accounting: absolute slots,
// fractions of the slot budget, and — when the committed μop count is
// known — the CPI stack itself: per-category cycles-per-instruction
// contributions that sum to the run's total CPI. It is embedded in the run
// manifest under "topdown" (map keys marshal sorted, so the JSON is
// deterministic).
type Report struct {
	Width      int                `json:"width"`
	Cycles     uint64             `json:"cycles"`
	TotalSlots uint64             `json:"total_slots"`
	Slots      map[string]uint64  `json:"slots"`
	Fractions  map[string]float64 `json:"fractions"`
	CPI        float64            `json:"cpi,omitempty"`
	CPIStack   map[string]float64 `json:"cpi_stack,omitempty"`
	OverIssue  uint64             `json:"over_issue,omitempty"`

	// Counts duplicates Slots in Category order for consumers that index
	// numerically (the telemetry gauges); it is not serialised.
	Counts [NumCategories]uint64 `json:"-"`
}

// Report renders the accounting. committed, when non-zero, adds the CPI
// stack: category c contributes (slots_c / width) / committed cycles per
// instruction, and the contributions sum to cycles/committed. Returns nil
// on a nil engine.
func (e *Engine) Report(committed uint64) *Report {
	if e == nil {
		return nil
	}
	r := &Report{
		Width:      int(e.width),
		Cycles:     e.cycles,
		TotalSlots: e.width * e.cycles,
		Slots:      make(map[string]uint64, NumCategories),
		Fractions:  make(map[string]float64, NumCategories),
		OverIssue:  e.overIssue,
		Counts:     e.slots,
	}
	for c := Category(0); c < NumCategories; c++ {
		r.Slots[c.String()] = e.slots[c]
		if r.TotalSlots > 0 {
			r.Fractions[c.String()] = float64(e.slots[c]) / float64(r.TotalSlots)
		}
	}
	if committed > 0 {
		r.CPI = float64(e.cycles) / float64(committed)
		r.CPIStack = make(map[string]float64, NumCategories)
		for c := Category(0); c < NumCategories; c++ {
			r.CPIStack[c.String()] = float64(e.slots[c]) / float64(e.width) / float64(committed)
		}
	}
	return r
}

// Fraction returns category c's share of the slot budget (0 on nil or
// before any cycle).
func (e *Engine) Fraction(c Category) float64 {
	if e == nil || e.cycles == 0 {
		return 0
	}
	return float64(e.slots[c]) / float64(e.width*e.cycles)
}
