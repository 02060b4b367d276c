package main

import (
	"context"
	"math/rand"
	"runtime"
	"time"

	ballerino "repro"
	"repro/internal/span"
)

// sweepKernels are the memory-bound kernels of the sweep-memory grid, where
// idle DRAM-wait cycles dominate the cycle loop.
var sweepKernels = []string{"pointer-chase", "hash-join", "sparse-trees", "store-load"}

type point struct {
	kernel, design string
	slot           int // position in the grid
}

// sweepSequence is round r of the sweep-memory sequence for seed: one pass
// over the kernel × design grid in a seeded order.
func sweepSequence(seed int64, r int) []point {
	var grid []point
	for _, k := range sweepKernels {
		for _, d := range designs {
			grid = append(grid, point{k, d, len(grid)})
		}
	}
	rng := rand.New(rand.NewSource(seed*1_000_033 + int64(r)))
	seq := make([]point, len(grid))
	for i, j := range rng.Perm(len(grid)) {
		seq[i] = grid[j]
	}
	return seq
}

type sweep struct {
	b     *bench
	cache *ballerino.TraceCache
}

// setUpSweep prepares the grid's traces once through a shared TraceCache,
// as a campaign reusing one cache across batches does.
func setUpSweep(ctx context.Context, b *bench) (runner, error) {
	s := &sweep{b: b, cache: ballerino.NewTraceCache(0)}
	root := b.start("setup", "setup")
	defer root.End()
	for _, k := range sweepKernels {
		runtime.GC()
		sp := root.Child("ballerino.TraceCache.Prepare")
		_, err := s.cache.Prepare(span.ContextWith(ctx, sp), ballerino.Config{Workload: k, MaxOps: opsPerRequest})
		sp.End()
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

// round runs one grid pass, one point per RunAll call with one worker, so
// that every point is a request of its own.
func (s *sweep) round(ctx context.Context, r int) []outcome {
	seq := sweepSequence(s.b.seed, r)
	outs := make([]outcome, 0, len(seq))
	for _, p := range seq {
		o := outcome{key: p.kernel + "|" + p.design, kernel: p.kernel, design: p.design, round: r,
			slot: p.slot, wantOps: opsPerRequest}
		root := s.b.start("request", "request")
		o.traceID = root.TraceID()
		sp := root.Child("ballerino.RunAll")
		cfg := ballerino.Config{Arch: p.design, Workload: p.kernel, MaxOps: opsPerRequest}
		start := time.Now()
		batch := ballerino.RunAll(span.ContextWith(ctx, sp), []ballerino.Config{cfg},
			ballerino.BatchOptions{Parallelism: 1, Cache: s.cache})
		o.latency = time.Since(start)
		sp.End()
		root.End()
		o.fill(batch.Results[0].Result, batch.Results[0].Err)
		outs = append(outs, o)
	}
	return outs
}

func (s *sweep) maxRounds() int                                     { return 0 }
func (s *sweep) programTrees(context.Context) ([]*span.Tree, error) { return nil, nil }
func (s *sweep) close() error                                       { return nil }
