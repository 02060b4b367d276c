package main

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	ballerino "repro"
	"repro/internal/span"
)

// coldReq is one cold-run request: a RunContext with no pre-generated
// trace, or a replay of the kernel's trace file exported at set-up.
type coldReq struct {
	kernel, design string
	replay         bool
}

// coldRound is the multiset every cold-run round permutes: every standard
// kernel generated once and two pairs twice, plus one replay of each
// exported trace (one request in five), covering all seven designs. Each
// replay and each second generation repeats a pair of the round, so its
// result must reproduce exactly. Memory-bound kernels run on cheap designs
// here: this workload loads trace generation, not the cycle loop.
var coldRound = []coldReq{
	{"branchy", "InO", false},
	{"compute", "OoO", false},
	{"hash-join", "CES", false},
	{"hash-join", "CES", false},
	{"mixed", "CASINO", false},
	{"pointer-chase", "InO", false},
	{"reduction", "FXA", false},
	{"sparse-trees", "Ballerino", false},
	{"stencil", "Ballerino-12", false},
	{"stencil", "Ballerino-12", false},
	{"store-load", "FXA", false},
	{"stream", "Ballerino", false},
	{"compute", "OoO", true},
	{"pointer-chase", "InO", true},
	{"stream", "Ballerino", true},
}

// replayKernels are the kernels whose traces set-up exports.
var replayKernels = []string{"compute", "pointer-chase", "stream"}

// coldSequence is round r of the cold-run request sequence for seed: the
// order in which it runs coldRound's requests.
func coldSequence(seed int64, r int) []int {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(r))).Perm(len(coldRound))
}

type coldRun struct {
	b     *bench
	dir   string
	files map[string]string // kernel → exported trace file
	sizes map[string]int64  // kernel → its size in bytes
}

// setUpColdRun exports the replayed kernels' traces, as `ballsim
// -trace-out` would.
func setUpColdRun(ctx context.Context, b *bench) (runner, error) {
	dir, err := b.subdir("cold")
	if err != nil {
		return nil, err
	}
	c := &coldRun{b: b, dir: dir, files: map[string]string{}, sizes: map[string]int64{}}
	root := b.start("setup", "setup")
	defer root.End()
	for _, k := range replayKernels {
		runtime.GC()
		path := filepath.Join(dir, k+".trace")
		if err := exportTrace(ctx, root, ballerino.Config{Workload: k, MaxOps: opsPerRequest}, path); err != nil {
			c.close()
			return nil, err
		}
		st, err := os.Stat(path)
		if err != nil {
			c.close()
			return nil, err
		}
		c.files[k], c.sizes[k] = path, st.Size()
	}
	return c, nil
}

// exportTrace generates cfg's trace and records it to path, each call
// under its own span.
func exportTrace(ctx context.Context, parent *span.Span, cfg ballerino.Config, path string) error {
	sp := parent.Child("ballerino.PrepareTrace")
	t, err := ballerino.PrepareTrace(span.ContextWith(ctx, sp), cfg)
	sp.End()
	if err != nil {
		return err
	}
	sp = parent.Child("ballerino.ExportTrace")
	err = ballerino.ExportTrace(path, t)
	sp.End()
	return err
}

func (c *coldRun) round(ctx context.Context, r int) []outcome {
	seq := coldSequence(c.b.seed, r)
	outs := make([]outcome, 0, len(seq))
	for _, slot := range seq {
		q := coldRound[slot]
		// A fresh ballsim process starts from an empty heap.
		runtime.GC()
		o := outcome{key: q.kernel + "|" + q.design, kernel: q.kernel, design: q.design, round: r,
			slot: slot, wantOps: opsPerRequest}
		root := c.b.start("request", "request")
		o.traceID = root.TraceID()
		start := time.Now()
		res, err := c.do(ctx, root, q)
		o.latency = time.Since(start)
		root.End()
		o.fill(res, err)
		outs = append(outs, o)
	}
	return outs
}

func (c *coldRun) do(ctx context.Context, root *span.Span, q coldReq) (*ballerino.Result, error) {
	cfg := ballerino.Config{Arch: q.design, Workload: q.kernel, MaxOps: opsPerRequest}
	if q.replay {
		sp := root.Child("ballerino.ImportTrace")
		sp.SetInt("bytes", c.sizes[q.kernel])
		t, err := ballerino.ImportTrace(c.files[q.kernel])
		sp.End()
		if err != nil {
			return nil, err
		}
		cfg = t.Configure(cfg)
	}
	sp := root.Child("ballerino.RunContext")
	if cfg.Trace != nil {
		sp.SetAttr("trace", "supplied")
	}
	defer sp.End()
	return ballerino.RunContext(span.ContextWith(ctx, sp), cfg)
}

// fill records a simulation's result, or its error, in the outcome.
func (o *outcome) fill(res *ballerino.Result, err error) {
	if err != nil {
		o.err = err.Error()
		return
	}
	o.cycles, o.committed, o.energyPJ = res.Cycles, res.Committed, res.EnergyPJ
}

func (c *coldRun) maxRounds() int                                     { return 0 }
func (c *coldRun) programTrees(context.Context) ([]*span.Tree, error) { return nil, nil }
func (c *coldRun) close() error                                       { return os.RemoveAll(c.dir) }
