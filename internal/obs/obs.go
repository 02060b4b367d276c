// Package obs is the pipeline-wide observability layer: a typed per-cycle
// event bus, a registry of counters and fixed-bucket histograms with
// periodic heartbeat/interval snapshots, pluggable sinks (Chrome
// trace_event JSON, JSONL event log, CSV interval dump) and a run manifest
// written alongside every traced run.
//
// The layer is zero-cost when off: the pipeline holds a nil *Recorder and
// every emit site is guarded by a single predictable nil check, so a
// simulation with no sink attached pays one untaken branch per event site
// (see BenchmarkEmitNil here and BenchmarkObsOverhead in the repository
// root).
package obs

import (
	"errors"

	"repro/internal/isa"
	"repro/internal/sched"
	"repro/internal/topdown"
)

// Kind identifies a pipeline event.
type Kind uint8

// Pipeline event kinds. The pipeline emits the front-end/back-end kinds;
// the scheduler-internal kinds (steering, sharing, promotion) arrive
// through the sched.Probe bridge (see FromProbe).
const (
	KindFetch     Kind = iota // μop fetched; PC/Op set
	KindDecode                // μop left decode; Label carries its disassembly
	KindRename                // μop renamed; Arg = physical destination register
	KindDispatch              // μop entered the scheduler; Port set
	KindWakeup                // destination register became available; Arg = phys reg
	KindIssue                 // μop granted; Arg = its operand-ready cycle
	KindExec                  // execution latency resolved; Arg = completion cycle
	KindWriteback             // μop finished execution this cycle
	KindCommit                // μop retired in program order
	KindFlush                 // pipeline flush; Seq = flush bound
	KindSquash                // μop removed by a flush
	KindStall                 // dispatch/rename could not move the head μop

	KindSteerMDAHit  // load steered into its producer store's P-IQ; Arg = P-IQ
	KindSteerMDAMiss // MDA candidate fell through to R-dependence steering
	KindSteerDep     // μop steered along an R-dependence; Arg = P-IQ
	KindSteerNew     // μop allocated an empty P-IQ as a chain head; Arg = P-IQ
	KindPIQSplit     // P-IQ entered sharing mode (split into partitions); Arg = P-IQ
	KindPIQShare     // μop allocated into a shared P-IQ partition; Arg = P-IQ
	KindPIQMerge     // shared P-IQ partitions merged back to normal mode; Arg = P-IQ
	KindSIQPromote   // μop left the S-IQ into the P-IQ cluster

	numKinds
)

var kindNames = [numKinds]string{
	KindFetch:        "fetch",
	KindDecode:       "decode",
	KindRename:       "rename",
	KindDispatch:     "dispatch",
	KindWakeup:       "wakeup",
	KindIssue:        "issue",
	KindExec:         "exec",
	KindWriteback:    "writeback",
	KindCommit:       "commit",
	KindFlush:        "flush",
	KindSquash:       "squash",
	KindStall:        "dispatch-stall",
	KindSteerMDAHit:  "steer-mda-hit",
	KindSteerMDAMiss: "steer-mda-miss",
	KindSteerDep:     "steer-dep",
	KindSteerNew:     "steer-new-chain",
	KindPIQSplit:     "piq-split",
	KindPIQShare:     "piq-share",
	KindPIQMerge:     "piq-merge",
	KindSIQPromote:   "siq-promote",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// FromProbe maps a scheduler-internal probe event to its event-bus kind.
func FromProbe(k sched.ProbeKind) Kind {
	switch k {
	case sched.ProbeSteerMDAHit:
		return KindSteerMDAHit
	case sched.ProbeSteerMDAMiss:
		return KindSteerMDAMiss
	case sched.ProbeSteerDep:
		return KindSteerDep
	case sched.ProbeSteerNewChain:
		return KindSteerNew
	case sched.ProbePIQSplit:
		return KindPIQSplit
	case sched.ProbePIQShare:
		return KindPIQShare
	case sched.ProbePIQMerge:
		return KindPIQMerge
	default:
		return KindSIQPromote
	}
}

// Event is one pipeline occurrence. It is a flat value type: emitting one
// allocates nothing, and sinks must copy it if they retain it past the
// Event call.
type Event struct {
	Kind  Kind
	Cycle uint64
	Seq   uint64 // dynamic μop sequence number (flush: the flush bound)
	PC    uint64
	Op    isa.Op
	Cls   sched.Class
	Port  int16
	Arg   uint64 // kind-specific payload (see the Kind doc comments)
	Label string // human-readable μop rendering (KindDecode only)
}

// Sink consumes the event stream and the periodic interval snapshots. A
// sink may ignore either; Close flushes and releases it (idempotent).
type Sink interface {
	Event(e *Event)
	Interval(iv Interval)
	Close() error
}

// Recorder is the event bus plus the metrics registry. A nil *Recorder is
// the off state: every method is nil-safe, so instrumented code holds a
// possibly-nil *Recorder and pays only a nil check when observability is
// detached.
//
// Goroutine safety: the recorder is single-threaded by contract. Emit,
// Heartbeat, Finish and every other mutating method must be called from
// the simulation goroutine only; sinks and interval hooks are invoked
// synchronously on that goroutine. A hook that hands data to another
// goroutine (the SSE stream in internal/telemetry, for example) must do
// its own synchronization — the recorder provides none.
type Recorder struct {
	sinks []Sink
	hooks []func(Interval)

	interval uint64
	nextBeat uint64
	index    int
	prev     Snapshot

	kindCounts [numKinds]uint64

	reg   *Registry
	delay [3]*Histogram // decode→issue delay per sched.Class
	occ   *Histogram    // scheduler occupancy at heartbeat
	lq    *Histogram    // load-queue pressure at heartbeat
	sq    *Histogram    // store-queue pressure at heartbeat
}

// DefaultInterval is the heartbeat period (cycles) when none is given.
const DefaultInterval = 10_000

// NewRecorder builds a recorder over the given sinks (zero sinks is valid:
// metrics still accumulate for the manifest). interval is the heartbeat
// period in cycles; 0 selects DefaultInterval.
func NewRecorder(interval uint64, sinks ...Sink) *Recorder {
	if interval == 0 {
		interval = DefaultInterval
	}
	r := &Recorder{
		sinks:    sinks,
		interval: interval,
		nextBeat: interval,
		reg:      NewRegistry(),
	}
	delayBounds := []uint64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
	for cls := range r.delay {
		r.delay[cls] = r.reg.NewHistogram("issue_delay."+sched.Class(cls).String(), delayBounds)
	}
	r.occ = r.reg.NewHistogram("sched_occupancy", []uint64{0, 8, 16, 32, 48, 64, 96, 128, 192, 256})
	r.lq = r.reg.NewHistogram("lq_pressure", []uint64{0, 8, 16, 24, 32, 48, 64, 72})
	r.sq = r.reg.NewHistogram("sq_pressure", []uint64{0, 8, 16, 24, 32, 48, 56})
	return r
}

// Registry exposes the metrics registry (nil when the recorder is off).
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// OnInterval registers fn to observe every interval snapshot, after the
// sinks. Hooks are the snapshot fan-out surface: any number of consumers
// (sinks, the live SSE stream, gauge updaters) can watch the same
// heartbeat without racing, because all of them run synchronously on the
// simulation goroutine in registration order. fn may safely read the
// recorder's Registry while it runs; to publish beyond the simulation
// goroutine it must synchronize itself. Safe on a nil receiver (no-op).
func (r *Recorder) OnInterval(fn func(Interval)) {
	if r == nil || fn == nil {
		return
	}
	r.hooks = append(r.hooks, fn)
}

// Start re-bases the recorder at snapshot s: s becomes the baseline the
// first interval's deltas are measured against, and the heartbeat clock
// starts from s.Cycle. The pipeline calls it at attach time, so a recorder
// attached after warm-up covers exactly the measured region.
func (r *Recorder) Start(s Snapshot) {
	if r == nil {
		return
	}
	r.prev = s
	r.nextBeat = s.Cycle + r.interval
}

// Emit publishes one event to every sink and counts it by kind. Safe on a
// nil receiver (no-op).
func (r *Recorder) Emit(e Event) {
	if r == nil {
		return
	}
	r.kindCounts[e.Kind]++
	for _, s := range r.sinks {
		s.Event(&e)
	}
}

// ObserveCommit records a committed μop: the commit event plus the
// decode→issue delay histogram of its class.
func (r *Recorder) ObserveCommit(u *sched.UOp, cycle uint64) {
	if r == nil {
		return
	}
	if u.IssueCycle >= u.DecodeCycle {
		r.delay[u.Cls].Observe(u.IssueCycle - u.DecodeCycle)
	}
	r.Emit(Event{
		Kind: KindCommit, Cycle: cycle, Seq: u.Seq(), PC: uint64(u.D.PC),
		Op: u.D.Op, Cls: u.Cls, Port: int16(u.Port),
	})
}

// HeartbeatDue reports whether the next interval snapshot should be taken
// at this cycle. Safe on a nil receiver (false).
func (r *Recorder) HeartbeatDue(cycle uint64) bool {
	return r != nil && cycle >= r.nextBeat
}

// Heartbeat closes the current interval at snapshot s: the delta against
// the previous snapshot goes to every sink, and the instantaneous queue
// levels feed the pressure histograms.
func (r *Recorder) Heartbeat(s Snapshot) {
	if r == nil {
		return
	}
	r.beat(s)
	for r.nextBeat <= s.Cycle {
		r.nextBeat += r.interval
	}
}

// Finish closes the final (possibly partial) interval so that the interval
// rows sum exactly to the end-of-run counters. Call once, after the last
// simulated cycle and before Close.
func (r *Recorder) Finish(s Snapshot) {
	if r == nil {
		return
	}
	if s != r.prev {
		r.beat(s)
	}
}

func (r *Recorder) beat(s Snapshot) {
	iv := s.delta(r.prev)
	iv.Index = r.index
	r.index++
	r.prev = s
	r.occ.Observe(uint64(s.SchedOccupancy))
	r.lq.Observe(uint64(s.LQ))
	r.sq.Observe(uint64(s.SQ))
	for _, sk := range r.sinks {
		sk.Interval(iv)
	}
	for _, fn := range r.hooks {
		fn(iv)
	}
}

// Intervals returns the number of interval rows emitted so far.
func (r *Recorder) Intervals() int {
	if r == nil {
		return 0
	}
	return r.index
}

// EventCount returns how many events of kind k were emitted.
func (r *Recorder) EventCount(k Kind) uint64 {
	if r == nil || int(k) >= len(r.kindCounts) {
		return 0
	}
	return r.kindCounts[k]
}

// FinalizeSched folds the scheduler's end-of-run counters into the
// registry under a "sched." prefix, making them part of the metrics dump.
func (r *Recorder) FinalizeSched(counters map[string]uint64) {
	if r == nil {
		return
	}
	for name, v := range counters {
		r.reg.Counter("sched." + name).Add(v)
	}
}

// Close flushes and closes every sink. Every sink is closed even when an
// earlier one fails; the individual errors are aggregated with
// errors.Join, so no flush failure is masked by another.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	var errs []error
	for _, s := range r.sinks {
		if err := s.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Snapshot is the cumulative counter state at one heartbeat, sampled by
// the pipeline. Counter fields are cumulative since measurement start; the
// queue levels are instantaneous.
type Snapshot struct {
	Cycle uint64

	Committed      uint64
	Fetched        uint64
	Issued         uint64
	Flushes        uint64
	Squashed       uint64
	DispatchStalls uint64
	Violations     uint64
	Mispredicts    uint64

	SchedOccupancy int
	LQ             int
	SQ             int

	// Topdown carries the cumulative per-category slot counters when
	// cycle accounting is attached (a fixed-size array keeps Snapshot
	// comparable, which Finish relies on).
	TopdownOn bool
	Topdown   [topdown.NumCategories]uint64
}

// Interval is the per-heartbeat delta between two snapshots — the row type
// of the CSV metrics dump and of the Chrome counter track.
type Interval struct {
	Index      int
	StartCycle uint64
	EndCycle   uint64

	Committed      uint64
	Fetched        uint64
	Issued         uint64
	Flushes        uint64
	Squashed       uint64
	DispatchStalls uint64
	Violations     uint64
	Mispredicts    uint64

	SchedOccupancy int
	LQ             int
	SQ             int

	// Topdown is the per-category slot delta in topdown.Names() order;
	// nil when cycle accounting is off, so JSONL/SSE rows are byte-for-
	// byte identical to runs that predate the feature.
	Topdown []uint64 `json:"Topdown,omitempty"`
}

// IPC returns committed μops per cycle within the interval.
func (iv Interval) IPC() float64 {
	if iv.EndCycle <= iv.StartCycle {
		return 0
	}
	return float64(iv.Committed) / float64(iv.EndCycle-iv.StartCycle)
}

func (s Snapshot) delta(prev Snapshot) Interval {
	iv := Interval{
		StartCycle:     prev.Cycle,
		EndCycle:       s.Cycle,
		Committed:      s.Committed - prev.Committed,
		Fetched:        s.Fetched - prev.Fetched,
		Issued:         s.Issued - prev.Issued,
		Flushes:        s.Flushes - prev.Flushes,
		Squashed:       s.Squashed - prev.Squashed,
		DispatchStalls: s.DispatchStalls - prev.DispatchStalls,
		Violations:     s.Violations - prev.Violations,
		Mispredicts:    s.Mispredicts - prev.Mispredicts,
		SchedOccupancy: s.SchedOccupancy,
		LQ:             s.LQ,
		SQ:             s.SQ,
	}
	if s.TopdownOn {
		iv.Topdown = make([]uint64, topdown.NumCategories)
		for i := range iv.Topdown {
			iv.Topdown[i] = s.Topdown[i] - prev.Topdown[i]
		}
	}
	return iv
}
