package ballerino

import (
	"context"
	"errors"

	"repro/internal/campaign"
)

// RunResult is one slot of a batch: the config as submitted, and either
// its Result or the *SimError that felled it. One failed run never aborts
// the campaign — its error sits in-slot and the other runs complete.
type RunResult struct {
	Config Config
	Result *Result // nil when Err != nil
	Err    error   // always a *SimError when non-nil
}

// BatchOptions tunes RunAll. The zero value — GOMAXPROCS workers, a
// per-batch trace cache with the default byte budget — is the right
// choice for almost every campaign.
type BatchOptions struct {
	// Parallelism bounds the worker pool (0 or negative = GOMAXPROCS).
	// Parallelism 1 executes the batch strictly sequentially; results are
	// identical at every setting, only wall time changes.
	Parallelism int
	// Cache, when non-nil, shares a caller-owned TraceCache across
	// batches instead of building a fresh one per call.
	Cache *TraceCache
}

// Batch is the outcome of one RunAll campaign.
type Batch struct {
	// Results has one entry per submitted Config, in submission order.
	Results []RunResult
	// Cache reports the trace cache's hit/miss/singleflight counters for
	// the campaign.
	Cache CacheStats
}

// FirstErr returns the first failed slot's error (nil when every run
// succeeded).
func (b *Batch) FirstErr() error {
	for _, r := range b.Results {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}

// RunAll executes every configuration as one campaign on a bounded worker
// pool: the parallel substrate under cmd/sweep, cmd/ballsim -compare and
// cmd/experiments. (The telemetry service runs each job on its own, through
// TraceCache.Prepare and RunContext.) Guarantees:
//
//   - Results[i] always belongs to cfgs[i], whatever order runs finish in.
//   - Runs are deterministic and independent: a campaign at parallelism N
//     produces byte-identical results (modulo wall-time fields) to the
//     same campaign at parallelism 1.
//   - One failed run records its *SimError in-slot; the rest continue.
//   - Configurations over the same kernel, footprint and dynamic budget
//     share one μop trace: generation — the dominant start-up cost —
//     happens once per distinct kernel, deduplicated even when the runs
//     arrive concurrently (singleflight).
//   - Cancelling ctx stops dispatch; in-flight runs wind down through the
//     pipeline's cooperative cancellation and unstarted slots report a
//     *SimError with Stage "canceled".
func RunAll(ctx context.Context, cfgs []Config, opts BatchOptions) *Batch {
	cache := opts.Cache
	if cache == nil {
		cache = NewTraceCache(0)
	}
	jobs := make([]campaign.Job[*Result], len(cfgs))
	for i, cfg := range cfgs {
		cfg := cfg
		jobs[i] = func(ctx context.Context) (*Result, error) {
			run := cfg
			if run.Trace == nil {
				t, err := cache.Prepare(ctx, run)
				if err != nil {
					return nil, err
				}
				run.Trace = t
			}
			return RunContext(ctx, run)
		}
	}
	outs := campaign.Run(ctx, opts.Parallelism, jobs)
	b := &Batch{Results: make([]RunResult, len(cfgs))}
	for i, o := range outs {
		rr := RunResult{Config: cfgs[i], Result: o.Value, Err: o.Err}
		// Slots the engine never dispatched carry a bare context error;
		// dress it as the same *SimError a cancelled run returns so
		// callers see one error shape.
		var se *SimError
		if rr.Err != nil && !errors.As(rr.Err, &se) {
			stage, ok := ctxStage(rr.Err)
			if !ok {
				stage = "canceled"
			}
			rr.Err = &SimError{Stage: stage, Arch: cfgs[i].Arch,
				Workload: cfgs[i].Workload, Err: rr.Err}
		}
		b.Results[i] = rr
	}
	b.Cache = cache.Stats()
	return b
}
