// Package ballerino is the public API of the Ballerino reproduction: a
// cycle-level simulation of the MICRO 2022 paper "Reconstructing
// Out-of-Order Issue Queue" (Jeong, Lee, Kuk, Ro).
//
// A simulation pairs a microarchitecture (InO, OoO, CES, CASINO, FXA,
// Ballerino and its step variants) with a synthetic workload kernel and
// runs a fixed number of μops through the shared pipeline model, returning
// performance, scheduling-delay and energy results.
//
// Quick start:
//
//	res, err := ballerino.Run(ballerino.Config{
//		Arch:     "Ballerino",
//		Workload: "stream",
//		MaxOps:   200_000,
//	})
//	fmt.Printf("IPC = %.2f\n", res.IPC)
package ballerino

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/check"
	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/prog"
	"repro/internal/sched"
	"repro/internal/span"
	"repro/internal/stats"
	"repro/internal/topdown"
	"repro/internal/workload"
	"repro/uprog"
)

// Config selects one simulation run. Zero values choose sensible defaults
// (8-wide, the "stream" kernel, 200k μops).
type Config struct {
	// Arch is one of Architectures(). Default "Ballerino".
	Arch string
	// Width is the issue width: 2, 4, 8 or 10. Default 8.
	Width int
	// Workload is the name of one of Kernels(). Default "stream". Ignored
	// when Custom is set.
	Workload string
	// Custom, when non-nil, simulates a user-authored program (see
	// package repro/uprog) instead of a named kernel.
	Custom *uprog.Program
	// FootprintBytes sizes memory-bound kernels (default 8 MiB).
	FootprintBytes int64
	// MaxOps is the number of dynamic μops to simulate. Default 200000.
	MaxOps int
	// WarmupOps, when positive, simulates that many μops first (warming
	// caches, predictors and queues) and reports statistics only for the
	// following MaxOps μops — the paper's SimPoint methodology.
	WarmupOps int
	// NumPIQs/PIQDepth override the clustered queue geometry (0 = Table II).
	NumPIQs  int
	PIQDepth int
	// DisableMDP turns off memory dependence prediction.
	DisableMDP bool
	// DVFS selects an operating point "L1".."L4" (default "L4").
	DVFS string
	// MaxCycles aborts a stuck simulation (default 100× MaxOps).
	MaxCycles uint64
	// Audit enables the self-verification machinery: the invariant
	// auditor (internal/check), run at every stepped cycle and once per
	// jump over quiet cycles, and the golden-model cross-check
	// that replays the committed μop stream through an independent
	// functional executor. Violations abort the run with a *SimError
	// carrying a machine-state autopsy.
	Audit bool
	// FaultSpec, when non-empty, injects deterministic timing faults, e.g.
	// "seed=1,jitter=8,flush=2000,squeeze=50,mdp=100" (see internal/faults).
	// Faults are architecturally invisible; combine with Audit to prove it.
	FaultSpec string
	// Topdown attaches the top-down cycle-accounting engine
	// (internal/topdown): every issue slot of every measured cycle is
	// attributed to one CPI-stack category, reported in Result.Topdown
	// and the manifest's "topdown" section. Off by default — a disabled
	// engine costs nothing on the issue path and leaves the manifest
	// byte-identical to pre-feature runs.
	Topdown bool

	// Observability (internal/obs). Any non-empty path attaches the
	// recorder to the measured region (after warm-up): every pipeline
	// stage then emits typed events and interval heartbeats. With all
	// paths empty the recorder is never attached and the pipeline pays
	// only an untaken nil-check branch per emit site.

	// TracePath writes a Chrome trace_event JSON file (one slice per
	// committed μop on its issue port's track, flush markers, counter
	// tracks) viewable in chrome://tracing or Perfetto.
	TracePath string
	// EventsPath writes a JSONL event log: one JSON object per pipeline
	// event (fetch, decode, rename, dispatch, wakeup, issue, writeback,
	// commit, flush, squash, steering/sharing) plus interval rows.
	EventsPath string
	// MetricsPath writes a CSV with one row per heartbeat interval; the
	// per-interval counter deltas sum exactly to the final statistics.
	MetricsPath string
	// ManifestPath writes the run manifest JSON. When empty but another
	// observability path is set, the manifest is written alongside the
	// first sink as "<path>.manifest.json". Result.Manifest is populated
	// in-memory regardless.
	ManifestPath string
	// ObsInterval is the heartbeat period in cycles (0 = 10000).
	ObsInterval uint64
	// Recorder, when non-nil, attaches a caller-built recorder instead of
	// one constructed from the path fields above (which are then ignored).
	// The caller owns its lifecycle: Run finishes the final interval and
	// folds the metrics-registry dump into the manifest, but never closes
	// it — close it yourself to flush its sinks. This is how a live
	// consumer (internal/telemetry's SSE stream and Prometheus gauges)
	// subscribes to heartbeats via Recorder.OnInterval before the run
	// starts.
	Recorder *obs.Recorder

	// Trace, when non-nil, supplies a pre-generated dynamic μop trace
	// (see PrepareTrace and TraceCache) and skips the trace-generation
	// step inside RunContext — the dominant start-up cost of
	// multi-million-μop jobs. The trace is immutable and may be shared by
	// any number of concurrent runs; it must have been prepared for an
	// identical (workload or custom program, footprint, warm-up + μop
	// budget) tuple or Validate fails. Results are byte-identical to an
	// inline-generated run.
	Trace *Trace
}

func (c Config) withDefaults() Config {
	if c.Arch == "" {
		c.Arch = string(config.ArchBallerino)
	}
	if c.Width == 0 {
		c.Width = 8
	}
	if c.Workload == "" {
		c.Workload = "stream"
	}
	if c.MaxOps == 0 {
		c.MaxOps = 200_000
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = uint64(c.MaxOps+c.WarmupOps) * 100
	}
	if c.DVFS == "" {
		c.DVFS = "L4"
	}
	return c
}

// SimError is the typed error every failing Run returns: the stage that
// failed, the simulation's identity, and — for aborted simulations — the
// cycle and a rendered machine-state autopsy.
type SimError struct {
	// Stage is where the failure happened: "config" (invalid Config),
	// "simulate" (deadlock, cycle budget, invariant violation), "golden"
	// (golden-model divergence), "canceled" (the caller's context was
	// cancelled), "timeout" (the context's deadline passed — how a served
	// job killed by its -job-timeout budget is distinguished from one its
	// caller abandoned) or "internal" (recovered panic — a bug).
	Stage    string
	Arch     string
	Workload string
	// Cycle is the simulation cycle of the failure (0 when not applicable).
	Cycle uint64
	// Autopsy is the rendered machine-state autopsy ("" when none).
	Autopsy string
	// Err is the underlying cause.
	Err error
}

func (e *SimError) Error() string {
	id := ""
	if e.Arch != "" || e.Workload != "" {
		id = fmt.Sprintf(" (%s on %s)", e.Arch, e.Workload)
	}
	return fmt.Sprintf("ballerino: %s error%s: %v", e.Stage, id, e.Err)
}

func (e *SimError) Unwrap() error { return e.Err }

// Validate reports whether the configuration (after defaulting) is
// runnable. Run calls it first; every failure is a *SimError with Stage
// "config" and a message naming the offending field and the valid values.
func (c Config) Validate() error {
	_, err := c.resolve()
	return err
}

// resolved is a defaulted, validated Config plus the artefacts validation
// produces anyway — the parsed fault plan and the DVFS operating point —
// so RunContext never parses either a second time.
type resolved struct {
	Config
	plan  faults.Plan
	level config.DVFSLevel
}

// resolve defaults and validates c once, retaining the fault plan and
// DVFS level it had to compute along the way.
func (c Config) resolve() (resolved, error) {
	rc := resolved{Config: c.withDefaults()}
	fail := func(format string, args ...any) error {
		return &SimError{Stage: "config", Arch: rc.Arch, Workload: rc.Workload,
			Err: fmt.Errorf(format, args...)}
	}
	if !slices.Contains(Architectures(), rc.Arch) {
		return rc, fail("unknown architecture %q (valid: %v)", rc.Arch, Architectures())
	}
	if rc.Width != 2 && rc.Width != 4 && rc.Width != 8 && rc.Width != 10 {
		return rc, fail("unsupported issue width %d (valid: 2, 4, 8, 10)", rc.Width)
	}
	// A pre-generated trace supplies its own program, so its workload name
	// need not be in the catalogue — imported trace files run under the
	// name recorded in their header, held to account by the trace-key
	// equality check below.
	if _, ok := workload.Lookup(rc.Workload); !ok && rc.Custom == nil && rc.Trace == nil {
		return rc, fail("unknown workload %q (valid: %v, extras: %v)",
			rc.Workload, workload.Names(false), workload.Names(true))
	}
	if rc.MaxOps < 0 {
		return rc, fail("MaxOps %d must not be negative", rc.MaxOps)
	}
	if rc.WarmupOps < 0 {
		return rc, fail("WarmupOps %d must not be negative", rc.WarmupOps)
	}
	if rc.FootprintBytes < 0 {
		return rc, fail("FootprintBytes %d must not be negative", rc.FootprintBytes)
	}
	if err := (config.Options{NumPIQs: rc.NumPIQs, PIQDepth: rc.PIQDepth}).Validate(); err != nil {
		return rc, fail("%v", err)
	}
	level, err := dvfsLevel(rc.DVFS)
	if err != nil {
		return rc, fail("%v", err)
	}
	rc.level = level
	plan, err := faults.Parse(rc.FaultSpec)
	if err != nil {
		return rc, fail("%v", err)
	}
	rc.plan = plan
	if rc.Trace != nil && rc.Trace.key != traceKey(rc.Config) {
		return rc, fail("pre-generated trace was prepared for %q, not this configuration (%q)",
			rc.Trace.key, traceKey(rc.Config))
	}
	return rc, nil
}

// DelayBreakdown is the average decode-to-issue delay of one instruction
// class, split into the three components of Figure 3c / Figure 12.
type DelayBreakdown struct {
	Count            uint64
	DecodeToDispatch float64
	DispatchToReady  float64
	ReadyToIssue     float64
}

// Total is the average decode-to-issue delay.
func (d DelayBreakdown) Total() float64 {
	return d.DecodeToDispatch + d.DispatchToReady + d.ReadyToIssue
}

// Result reports one simulation run.
type Result struct {
	Arch     string
	Workload string
	Width    int

	Cycles    uint64
	Committed uint64
	IPC       float64
	// TimeSeconds is wall-clock execution time at the operating point's
	// frequency.
	TimeSeconds float64

	Branches       uint64
	MispredictRate float64
	Violations     uint64
	Flushes        uint64

	// Delay maps class name ("Ld", "LdC", "Rst", "All") to its breakdown.
	Delay map[string]DelayBreakdown

	// EnergyPJ is core-wide energy; EnergyByComponent splits it into the
	// nine Figure 15 categories.
	EnergyPJ          float64
	EnergyByComponent map[string]float64
	// EDP is energy × time (pJ·s); Efficiency is 1/EDP.
	EDP        float64
	Efficiency float64

	// SchedCounters exposes microarchitecture-specific counters
	// (steering outcomes, issue sources, sharing activations, ...).
	SchedCounters map[string]uint64

	// AuditChecks is the number of invariant audits that ran, one per
	// stepped cycle, warm-up included (0 unless Config.Audit was set).
	// Quiet cycles a jump closes are covered by the audit of the cycle
	// it starts from.
	AuditChecks uint64
	// GoldenOps is the number of committed μops replayed and verified by
	// the golden-model executor (0 unless Config.Audit was set).
	GoldenOps uint64
	// InjectedFaults counts faults actually injected, by kind (nil unless
	// Config.FaultSpec was set).
	InjectedFaults map[string]uint64

	// Topdown is the CPI-stack cycle accounting of the measured region
	// (nil unless Config.Topdown was set).
	Topdown *topdown.Report

	// Manifest is the machine-readable run record (always populated):
	// configuration, environment, wall time, how the cycle loop covered
	// the run, final statistics, energy and scheduler counters, plus the
	// metrics-registry dump when an observability sink was attached.
	// `ballsim -json` prints it.
	Manifest *obs.Manifest
}

// Architectures lists the evaluated microarchitectures.
func Architectures() []string {
	var names []string
	for _, a := range config.AllArchs() {
		names = append(names, string(a))
	}
	return names
}

// Kernel describes one runnable synthetic kernel: its name, its broad
// behaviour class, the SPEC application behaviour it stands in for, and
// whether it belongs to the extras set (runnable by name but excluded
// from the calibrated figure suite).
type Kernel struct {
	Name    string
	Kind    string // "memory-bound", "compute-bound", "branchy", "mixed", "calibrated"
	Emulate string
	Extra   bool
}

// Kernels lists every runnable kernel — the standard figure suite first,
// then the extras (Extra = true) — with its metadata, read from the
// workload catalogue without building any program. The returned slice is
// the caller's to mutate.
func Kernels() []Kernel {
	var ks []Kernel
	for _, k := range workload.Kernels() {
		ks = append(ks, Kernel{Name: k.Name, Kind: k.Kind, Emulate: k.Emulate, Extra: k.Extra})
	}
	return ks
}

// Run executes one simulation. Every failure is a *SimError; no panic
// escapes (a recovered panic surfaces as a *SimError with Stage
// "internal").
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cooperative cancellation: when ctx is cancelled
// the simulation stops within a few thousand cycles and returns a
// *SimError with Stage "canceled" unwrapping to context.Canceled; when
// ctx's deadline passes the run is killed the same way but the error's
// Stage is "timeout" (unwrapping to context.DeadlineExceeded), so a
// caller can tell a job killed by its deadline budget from one its
// submitter abandoned. Attached sinks are flushed before returning, so a
// cancelled traced run still leaves valid partial artifacts on disk.
func RunContext(ctx context.Context, cfg Config) (res *Result, err error) {
	start := time.Now()
	rc, rerr := cfg.resolve()
	cfg = rc.Config
	defer func() {
		if r := recover(); r != nil {
			res = nil
			err = &SimError{Stage: "internal", Arch: cfg.Arch, Workload: cfg.Workload,
				Err: fmt.Errorf("recovered panic: %v", r)}
		}
	}()
	if rerr != nil {
		return nil, rerr
	}
	// simErr wraps a failure, pulling the cycle and the machine-state
	// autopsy out of the typed pipeline errors when present. Cancellation
	// and deadline expiry override the stage so callers can tell an
	// aborted or timed-out run from a failed one without unwrapping.
	simErr := func(stage string, cause error) *SimError {
		if s, ok := ctxStage(cause); ok {
			stage = s
		}
		se := &SimError{Stage: stage, Arch: cfg.Arch, Workload: cfg.Workload, Err: cause}
		var de *check.DeadlockError
		var ve *check.ViolationError
		switch {
		case errors.As(cause, &de) && de.Autopsy != nil:
			se.Cycle = de.Autopsy.Cycle
			se.Autopsy = de.Autopsy.String()
		case errors.As(cause, &ve):
			se.Cycle = ve.Cycle
			if ve.Autopsy != nil {
				se.Autopsy = ve.Autopsy.String()
			}
		}
		return se
	}

	// Trace acquisition. A pre-generated Config.Trace (PrepareTrace, or the
	// shared cache under RunAll) is used as-is — it is immutable and safe to
	// share across concurrent runs. Otherwise the trace is generated here,
	// exactly as PrepareTrace would; generation dominates start-up for
	// multi-million-μop jobs, so it honours ctx too: a served job cancelled
	// while still generating aborts instead of waiting out the interpreter.
	t := cfg.Trace
	if t == nil {
		var terr error
		if t, terr = prepareResolved(ctx, rc); terr != nil {
			return nil, terr
		}
	}
	// The golden model replays from the kernel's initial memory image and
	// checks the final state over it; a cached trace rebuilds the image
	// for this run alone.
	trace := t.tr
	if cfg.Audit {
		var ierr error
		if trace, ierr = t.withImage(ctx); ierr != nil {
			return nil, simErr("config", ierr)
		}
	}
	program := trace.Program
	// Lifecycle span, when the caller threaded one through ctx (the
	// serving stack does; library callers usually don't, and the nil-safe
	// span API makes that free).
	sp := span.FromContext(ctx)
	if cfg.Custom != nil {
		cfg.Workload = program.Name
	}

	m, err := config.NewMachine(config.Arch(cfg.Arch), cfg.Width, config.Options{
		NumPIQs:    cfg.NumPIQs,
		PIQDepth:   cfg.PIQDepth,
		DisableMDP: cfg.DisableMDP,
		MaxCycles:  cfg.MaxCycles,
	})
	if err != nil {
		return nil, simErr("config", err)
	}
	level := rc.level

	p, err := pipeline.New(m.Pipeline, trace.Ops, m.Factory)
	if err != nil {
		return nil, simErr("config", err)
	}

	var auditor *check.Auditor
	var replay *prog.Replay
	if cfg.Audit {
		auditor = p.EnableAudit()
		replay = prog.NewReplay(program)
		p.OnCommit = func(u *sched.UOp) { replay.Apply(u.D) }
	}
	var injector *faults.Injector
	if rc.plan.Active() {
		injector, err = faults.New(rc.plan)
		if err != nil {
			return nil, simErr("config", err)
		}
		p.SetInjector(injector)
	}

	rec, recOwned, sinkInfos, oerr := openRecorder(cfg)
	if oerr != nil {
		return nil, simErr("obs", oerr)
	}
	// Flush sinks on every failure path (including cancellation, so partial
	// trace/CSV artifacts stay valid); the success path closes explicitly so
	// write errors surface. A caller-supplied recorder is never closed here.
	recClosed := !recOwned
	defer func() {
		if !recClosed {
			rec.Close()
		}
	}()

	measured := uint64(len(trace.Ops))
	if cfg.WarmupOps > 0 && len(trace.Ops) > cfg.WarmupOps {
		wsp := sp.Child("sim.warmup")
		wsp.SetInt("ops", int64(cfg.WarmupOps))
		if err := p.WarmupContext(ctx, uint64(cfg.WarmupOps)); err != nil {
			wsp.Fail(err)
			wsp.End()
			return nil, simErr("simulate", fmt.Errorf("warmup: %w", err))
		}
		wsp.End()
		measured = uint64(len(trace.Ops) - cfg.WarmupOps)
	}
	// Attach after warm-up: interval deltas then cover exactly the measured
	// region and sum to the final statistics. Topdown first, so the first
	// heartbeat snapshot already carries the accounting flag.
	var td *topdown.Engine
	if cfg.Topdown {
		td = topdown.New(m.Pipeline.IssueWidth)
		p.AttachTopdown(td)
	}
	p.AttachObs(rec)
	rsp := sp.Child("sim.run")
	rsp.SetAttr("arch", cfg.Arch)
	rsp.SetAttr("workload", cfg.Workload)
	rsp.SetInt("ops", int64(measured))
	s, err := p.RunContext(ctx, measured)
	if err != nil {
		rsp.Fail(err)
		rsp.End()
		rec.Finish(p.ObsSnapshot()) // close the partial interval before the flush
		return nil, simErr("simulate", err)
	}
	rsp.End()
	rec.Finish(p.ObsSnapshot())
	if replay != nil {
		if rerr := replay.Err(); rerr != nil {
			return nil, simErr("golden", rerr)
		}
		if replay.Ops() == uint64(len(trace.Ops)) {
			if rerr := replay.VerifyFinal(trace.Final); rerr != nil {
				return nil, simErr("golden", rerr)
			}
		}
	}

	renames, _ := p.Renamer().Stats()
	eb := energy.Compute(energy.DefaultParams(), energy.Inputs{
		Stats:    s,
		Sched:    p.Scheduler().Energy(),
		Mem:      p.Mem(),
		Renames:  renames,
		MDPOn:    !cfg.DisableMDP,
		VoltageV: level.VoltageV,
		NominalV: 1.04,
	})

	timeSec := float64(s.Cycles) / (level.ClockGHz * 1e9)
	res = &Result{
		Arch:              cfg.Arch,
		Workload:          cfg.Workload,
		Width:             cfg.Width,
		Cycles:            s.Cycles,
		Committed:         s.Committed,
		IPC:               s.IPC(),
		TimeSeconds:       timeSec,
		Branches:          s.Branches,
		MispredictRate:    s.MispredictRate(),
		Violations:        s.Violations,
		Flushes:           s.Flushes,
		Delay:             delayMap(s),
		EnergyPJ:          eb.Total(),
		EnergyByComponent: map[string]float64{},
		EDP:               eb.Total() * timeSec,
		SchedCounters:     p.Scheduler().Counters(),
	}
	if res.EDP > 0 {
		res.Efficiency = 1 / res.EDP
	}
	if auditor != nil {
		res.AuditChecks = auditor.Checks()
	}
	res.Topdown = td.Report(s.Committed)
	if replay != nil {
		res.GoldenOps = replay.Ops()
	}
	if injector != nil {
		fs := injector.Stats()
		res.InjectedFaults = map[string]uint64{
			"jittered_ops":  fs.JitteredOps,
			"jitter_cycles": fs.JitterCycles,
			"flushes":       fs.Flushes,
			"squeezes":      fs.Squeezes,
			"mdp_waits":     fs.MDPWaits,
		}
	}
	for c := energy.Category(0); c < energy.NumCategories; c++ {
		res.EnergyByComponent[c.String()] = eb.PJ[c]
	}

	rec.FinalizeSched(res.SchedCounters)
	res.Manifest = buildManifest(cfg, res, rec, sinkInfos, s, time.Since(start).Seconds())
	eng := p.Engine()
	res.Manifest.Engine = &eng
	if recOwned {
		recClosed = true
		if cerr := rec.Close(); cerr != nil {
			return nil, simErr("obs", cerr)
		}
	}
	mp := cfg.ManifestPath
	if mp == "" && len(sinkInfos) > 0 {
		mp = sinkInfos[0].Path + ".manifest.json"
	}
	if mp != "" {
		if werr := res.Manifest.WriteFile(mp); werr != nil {
			return nil, simErr("obs", werr)
		}
	}
	return res, nil
}

// openRecorder builds the observability recorder and its sinks from the
// configured paths, or hands back the caller-supplied recorder (owned
// reports whether Run must close it). With no observability path set it
// returns a nil recorder — the zero-cost off state.
func openRecorder(cfg Config) (rec *obs.Recorder, owned bool, infos []obs.SinkInfo, err error) {
	if cfg.Recorder != nil {
		return cfg.Recorder, false, nil, nil
	}
	if cfg.TracePath == "" && cfg.EventsPath == "" && cfg.MetricsPath == "" && cfg.ManifestPath == "" {
		return nil, true, nil, nil
	}
	var sinks []obs.Sink
	fail := func(err error) (*obs.Recorder, bool, []obs.SinkInfo, error) {
		for _, s := range sinks {
			s.Close()
		}
		return nil, true, nil, err
	}
	if cfg.TracePath != "" {
		s, err := obs.NewChromeSink(cfg.TracePath)
		if err != nil {
			return fail(err)
		}
		sinks = append(sinks, s)
		infos = append(infos, obs.SinkInfo{Kind: "chrome-trace", Path: cfg.TracePath})
	}
	if cfg.EventsPath != "" {
		s, err := obs.NewJSONLSink(cfg.EventsPath)
		if err != nil {
			return fail(err)
		}
		sinks = append(sinks, s)
		infos = append(infos, obs.SinkInfo{Kind: "events-jsonl", Path: cfg.EventsPath})
	}
	if cfg.MetricsPath != "" {
		s, err := obs.NewCSVSink(cfg.MetricsPath)
		if err != nil {
			return fail(err)
		}
		sinks = append(sinks, s)
		infos = append(infos, obs.SinkInfo{Kind: "metrics-csv", Path: cfg.MetricsPath})
	}
	// ManifestPath alone still creates a (sink-less) recorder so the metrics
	// registry and interval count reach the manifest.
	return obs.NewRecorder(cfg.ObsInterval, sinks...), true, infos, nil
}

// buildManifest assembles the machine-readable run record from the final
// result. rec may be nil (no metrics dump then).
func buildManifest(cfg Config, res *Result, rec *obs.Recorder, sinks []obs.SinkInfo, s *stats.Sim, wallSeconds float64) *obs.Manifest {
	m := obs.NewManifest()
	m.Sim = obs.SimInfo{
		Arch:      cfg.Arch,
		Workload:  cfg.Workload,
		Width:     cfg.Width,
		Ops:       cfg.MaxOps,
		WarmupOps: cfg.WarmupOps,
		NumPIQs:   cfg.NumPIQs,
		PIQDepth:  cfg.PIQDepth,
		MDP:       !cfg.DisableMDP,
		DVFS:      cfg.DVFS,
		FaultSpec: cfg.FaultSpec,
	}
	m.WallSeconds = wallSeconds
	m.Stats = obs.RunStats{
		Cycles:         s.Cycles,
		Committed:      s.Committed,
		Fetched:        s.Fetched,
		Issued:         s.Issued,
		IPC:            s.IPC(),
		TimeSeconds:    res.TimeSeconds,
		Branches:       s.Branches,
		Mispredicts:    s.Mispredicts,
		MispredictRate: s.MispredictRate(),
		Violations:     s.Violations,
		Flushes:        s.Flushes,
		Squashed:       s.Squashed,
		DispatchStalls: s.DispatchStall,
		AvgOccupancy:   s.AvgOccupancy(),
	}
	m.Delay = make(map[string]obs.DelayInfo, len(res.Delay))
	for name, d := range res.Delay {
		m.Delay[name] = obs.DelayInfo{
			Count:            d.Count,
			DecodeToDispatch: d.DecodeToDispatch,
			DispatchToReady:  d.DispatchToReady,
			ReadyToIssue:     d.ReadyToIssue,
			Total:            d.Total(),
		}
	}
	m.Energy = obs.EnergyInfo{
		TotalPJ:     res.EnergyPJ,
		EDP:         res.EDP,
		Efficiency:  res.Efficiency,
		ByComponent: res.EnergyByComponent,
	}
	m.SchedCounters = res.SchedCounters
	m.InjectedFaults = res.InjectedFaults
	m.AuditChecks = res.AuditChecks
	m.GoldenOps = res.GoldenOps
	m.Metrics = rec.Registry().Dump()
	m.Sinks = sinks
	m.Intervals = rec.Intervals()
	m.Topdown = res.Topdown
	return m
}

func dvfsLevel(name string) (config.DVFSLevel, error) {
	for _, l := range config.DVFSLevels() {
		if l.Name == name {
			return l, nil
		}
	}
	return config.DVFSLevel{}, fmt.Errorf("unknown DVFS level %q (valid: L1..L4)", name)
}

func delayMap(s *stats.Sim) map[string]DelayBreakdown {
	m := make(map[string]DelayBreakdown, 4)
	for cls := sched.Class(0); cls < 3; cls++ {
		d := s.Delay[cls]
		a, b, c := d.Avg()
		m[cls.String()] = DelayBreakdown{
			Count: d.Count, DecodeToDispatch: a, DispatchToReady: b, ReadyToIssue: c,
		}
	}
	a, b, c := s.All.Avg()
	m["All"] = DelayBreakdown{Count: s.All.Count, DecodeToDispatch: a, DispatchToReady: b, ReadyToIssue: c}
	return m
}

// GeoMean returns the geometric mean of xs (0 if empty or non-positive).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
