package ballerino

import (
	"context"
	"errors"
	"fmt"
	"unsafe"

	"repro/internal/campaign"
	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/span"
	"repro/internal/workload"
)

// Trace is an immutable, pre-generated dynamic μop trace: the output of
// the functional interpreter for one (workload or custom program,
// footprint, warm-up + μop budget) tuple. Build one with PrepareTrace (or
// share generations through a TraceCache) and inject it via Config.Trace;
// any number of concurrent runs may read the same Trace, so N runs over
// one kernel pay for interpretation once.
//
// A trace holds its μop stream, the program it came from and the final
// architectural state the audited golden model checks against. A
// TraceCache entry of a catalogue kernel holds them without the kernel's
// initial memory image, which no plain run reads: its program's InitMem
// and its final state's Base are nil. The two readers of the image, an
// audited run and an export, get a copy whose image the catalogue
// rebuilds for that one use (withImage). PrepareTrace's traces, a trace
// RunContext generates for itself, imported traces and custom programs'
// traces keep their image.
type Trace struct {
	key string
	tr  *prog.Trace
	// imageless marks a trace that dropped its kernel's initial memory
	// image (withoutImage).
	imageless bool

	// wl, fp and ops are the workload identity the trace was generated
	// under — the fields of key, kept unparsed so the exporter can write
	// them into a trace file header without string surgery. ops is the
	// requested dynamic budget; the stream may be shorter if the program
	// halted early.
	wl  string
	fp  int64
	ops int
}

// Ops returns the dynamic μop count of the trace.
func (t *Trace) Ops() int { return len(t.tr.Ops) }

// Workload returns the name of the program the trace was generated from.
func (t *Trace) Workload() string { return t.tr.Program.Name }

// Key returns the trace's content key: the identity RunContext checks a
// Config against before accepting the trace.
func (t *Trace) Key() string { return t.key }

// Resident-size estimates behind Trace.sizeBytes.
const (
	opBytes = int64(unsafe.Sizeof(isa.DynInst{}))
	// mapEntry is the heap cost of one word of a map[uint64]int64 built by
	// insertion. Measured with Go 1.24 on amd64 from 1,024 to 2^20 words:
	// 23.6–36.1 B/word, the top just after the table doubles at a power of
	// two (36.1 at 2^18 and 2^19 words, 27.1 at 699,050). The budget
	// charges the top.
	mapEntry = 36
)

// sizeBytes estimates the trace's resident size for the cache budget: the
// μop stream, the program's initial memory image when the trace holds
// one, and the words written into the final-state oracle retained for
// golden-model verification. The oracle overlays the initial image
// (prog.ArchState.Base) rather than copying it, so only its written words
// are extra. A cached catalogue kernel's trace holds no initial image and
// is charged only its μops and its written words.
func (t *Trace) sizeBytes() int64 {
	n := int64(len(t.tr.Ops))*opBytes + int64(len(t.tr.Program.InitMem))*mapEntry
	if t.tr.Final != nil {
		n += int64(len(t.tr.Final.Mem)) * mapEntry
	}
	return n
}

// withoutImage returns a copy of t that holds no initial memory image,
// sharing t's μop stream, instructions, registers and final overlay. t
// must be a catalogue kernel's trace, whose image withImage can rebuild.
func (t *Trace) withoutImage() *Trace {
	c := *t
	c.tr = imaged(t.tr, nil)
	c.imageless = true
	return &c
}

// withImage returns t's program trace with its initial memory image: t's
// own when t holds one, else a copy whose image the catalogue rebuilds —
// deterministically, as TestCatalogueGolden pins — under a "trace.image"
// span, a child of ctx's span. Nothing is stored back on t, which
// concurrent runs share, so every use pays for its own rebuild.
func (t *Trace) withImage(ctx context.Context) (*prog.Trace, error) {
	if !t.imageless {
		return t.tr, nil
	}
	sp := span.FromContext(ctx).Child("trace.image")
	sp.SetAttr("workload", t.wl)
	defer sp.End()
	w, err := workload.ByName(t.wl, workload.Params{Footprint: t.fp})
	if err != nil {
		sp.Fail(err)
		return nil, err
	}
	return imaged(t.tr, w.Program.InitMem), nil
}

// imaged returns a shallow copy of tr whose program and final state take
// image as their initial memory image.
func imaged(tr *prog.Trace, image map[uint64]int64) *prog.Trace {
	p := *tr.Program
	p.InitMem = image
	c := &prog.Trace{Program: &p, Ops: tr.Ops}
	if tr.Final != nil {
		f := *tr.Final
		f.Base = image
		c.Final = &f
	}
	return c
}

// ctxStage classifies a context-ended failure into its SimError stage:
// deadline expiry is a "timeout" (the job's time budget ran out),
// cancellation is "canceled" (the caller abandoned the run). Any other
// cause keeps the stage the failure site chose.
func ctxStage(cause error) (string, bool) {
	switch {
	case errors.Is(cause, context.DeadlineExceeded):
		return "timeout", true
	case errors.Is(cause, context.Canceled):
		return "canceled", true
	}
	return "", false
}

// ContentKey returns the config's full content identity: the trace key
// (kernel, footprint, dynamic budget) plus every timing-relevant knob
// (architecture, width, queue geometry, MDP, DVFS, fault plan). Two
// configs with equal content keys produce byte-identical canonical run
// manifests — the property the durable job store relies on to serve a
// resubmitted grid point from its stored result instead of recomputing.
// Custom programs are rejected: their identity is process-local pointer
// identity, which does not survive a restart.
func (c Config) ContentKey() (string, error) {
	rc, err := c.resolve()
	if err != nil {
		return "", err
	}
	if rc.Custom != nil {
		return "", &SimError{Stage: "config", Arch: rc.Arch, Workload: rc.Workload,
			Err: fmt.Errorf("custom programs have no durable content key")}
	}
	key := fmt.Sprintf("arch:%s|w:%d|piqs:%d.%d|mdp:%t|dvfs:%s|faults:%s|audit:%t|%s",
		rc.Arch, rc.Width, rc.NumPIQs, rc.PIQDepth, !rc.DisableMDP, rc.DVFS,
		rc.FaultSpec, rc.Audit, traceKey(rc.Config))
	// Appended only when on, so every pre-feature key stays byte-stable;
	// a topdown run carries extra manifest content and must not be served
	// from (or overwrite) a plain run's stored result.
	if rc.Topdown {
		key += "|td:true"
	}
	return key, nil
}

// traceKey derives the content key of the trace a config needs. cfg must
// already be defaulted. Named kernels are identified by (name, footprint);
// custom programs by the program value itself (programs are immutable
// once built, so pointer identity is content identity). The dynamic
// length covers warm-up plus the measured budget.
func traceKey(cfg Config) string {
	ops := cfg.MaxOps + cfg.WarmupOps
	if cfg.Custom != nil {
		return fmt.Sprintf("custom:%s@%p|ops:%d", cfg.Custom.Name(), cfg.Custom.Internal(), ops)
	}
	return kernelTraceKey(cfg.Workload, cfg.footprint(), ops)
}

// kernelTraceKey formats the content key of a named kernel's trace — the
// key traceKey derives and every trace file carries. Custom-program
// traces are exported under their program name too: pointer identity
// does not survive a process, so on re-import they behave like a named
// workload whose program travels with the file.
func kernelTraceKey(wl string, fp int64, ops int) string {
	return fmt.Sprintf("wl:%s|fp:%d|ops:%d", wl, fp, ops)
}

// footprint is the data footprint the config's kernel is built with:
// FootprintBytes, or the workload default when that is zero.
func (c Config) footprint() int64 {
	if c.FootprintBytes == 0 {
		return workload.DefaultParams.Footprint
	}
	return c.FootprintBytes
}

// PrepareTrace generates the dynamic μop trace for cfg without running
// the timing model. The returned Trace is immutable: set it on any number
// of Configs (Config.Trace) whose workload identity, footprint and
// warm-up + μop budget match cfg's, and RunContext skips its own
// generation step. Every failure is a *SimError ("config", "trace", or
// "canceled"/"timeout" when ctx ends mid-generation).
func PrepareTrace(ctx context.Context, cfg Config) (*Trace, error) {
	rc, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	return prepareResolved(ctx, rc)
}

// prepareResolved is the one place a trace is generated — for
// PrepareTrace, TraceCache misses and RunContext runs without a trace. It
// builds the config's program, runs the functional interpreter for the
// warm-up + measured budget under a "trace.generate" span, and classifies
// failures as stage "config" (program), "trace" (interpreter), or
// "canceled"/"timeout" when ctx ends mid-generation.
func prepareResolved(ctx context.Context, rc resolved) (*Trace, error) {
	simErr := func(stage string, cause error) *SimError {
		if s, ok := ctxStage(cause); ok {
			stage = s
		}
		return &SimError{Stage: stage, Arch: rc.Arch, Workload: rc.Workload, Err: cause}
	}
	var program *prog.Program
	if rc.Custom != nil {
		program = rc.Custom.Internal()
	} else {
		w, err := workload.ByName(rc.Workload, workload.Params{Footprint: rc.FootprintBytes})
		if err != nil {
			return nil, simErr("config", err)
		}
		program = w.Program
	}
	gsp := span.FromContext(ctx).Child("trace.generate")
	gsp.SetAttr("workload", rc.Workload)
	// Fuel exhaustion is not an error: kernels are infinite-friendly loops
	// the simulator truncates.
	tr, err := prog.ExecuteContext(ctx, program, rc.MaxOps+rc.WarmupOps)
	if errors.Is(err, prog.ErrFuel) {
		err = nil
	}
	gsp.Fail(err)
	gsp.End()
	if err != nil {
		return nil, simErr("trace", err)
	}
	wl := rc.Workload
	if rc.Custom != nil {
		wl = program.Name
	}
	return &Trace{
		key: traceKey(rc.Config),
		tr:  tr,
		wl:  wl,
		fp:  rc.footprint(),
		ops: rc.MaxOps + rc.WarmupOps,
	}, nil
}

// DefaultTraceCacheBytes is the byte budget a zero-valued cache size
// selects: about nine million-μop traces (a 1M-μop stream is 56 MB of
// μops) or about 290 cached 30k-μop traces, without threatening a
// development machine.
const DefaultTraceCacheBytes = 512 << 20

// CacheStats reports a TraceCache's behaviour. Hits, Joins and Misses
// partition the lookups: a Hit found a ready trace, a Join waited on
// another run's in-flight generation (singleflight), and a Miss ran the
// interpreter.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Joins     uint64 `json:"joins"`
	Evictions uint64 `json:"evictions"`

	Entries     int   `json:"entries"`
	BytesUsed   int64 `json:"bytes_used"`
	BytesBudget int64 `json:"bytes_budget"` // 0 = unbounded
}

// TraceCache shares trace generation across runs: lookups are keyed by
// the trace's content identity, concurrent requests for one key share a
// single generation, and an LRU byte budget bounds residency. A cache is
// safe for concurrent use; RunAll creates one per batch unless handed a
// longer-lived cache via BatchOptions.Cache (how the telemetry service
// shares traces across served jobs).
type TraceCache struct {
	c *campaign.Cache[*Trace]
}

// NewTraceCache builds a cache with the given byte budget: 0 selects
// DefaultTraceCacheBytes, negative means unbounded.
func NewTraceCache(budgetBytes int64) *TraceCache {
	if budgetBytes == 0 {
		budgetBytes = DefaultTraceCacheBytes
	}
	if budgetBytes < 0 {
		budgetBytes = 0 // campaign.Cache: 0 = unbounded
	}
	return &TraceCache{c: campaign.NewCache[*Trace](budgetBytes)}
}

// Prepare returns the trace for cfg, generating and caching it on a miss.
// Identical configurations — same kernel, footprint and dynamic budget —
// share one cached trace regardless of architecture, width or any other
// timing-only field. A catalogue kernel's trace is cached without its
// initial memory image (see Trace); a custom program's keeps the image
// its caller owns.
func (tc *TraceCache) Prepare(ctx context.Context, cfg Config) (*Trace, error) {
	rc, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	if rc.Trace != nil {
		return rc.Trace, nil
	}
	return tc.c.Get(ctx, traceKey(rc.Config), func(ctx context.Context) (*Trace, int64, error) {
		t, err := prepareResolved(ctx, rc)
		if err != nil {
			return nil, 0, err
		}
		if rc.Custom == nil {
			t = t.withoutImage()
		}
		return t, t.sizeBytes(), nil
	})
}

// Stats snapshots the cache counters.
func (tc *TraceCache) Stats() CacheStats {
	s := tc.c.Stats()
	return CacheStats{
		Hits:        s.Hits,
		Misses:      s.Misses,
		Joins:       s.Joins,
		Evictions:   s.Evictions,
		Entries:     s.Entries,
		BytesUsed:   s.BytesUsed,
		BytesBudget: s.BytesBudget,
	}
}
