package pipeline_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/prog"
	"repro/internal/sched"
	"repro/internal/workload"
)

// -update regenerates the golden corpus from the current engine. Run it
// only when a behavioural change is intended and reviewed.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden digests")

// goldenWorkloads is the tier-1 micro set: every scheduler shape the paper
// compares, over kernels exercising streaming, dependent loads,
// store-to-load traffic and branches.
var goldenWorkloads = []string{"stream", "pointer-chase", "store-load", "branchy"}

const (
	goldenWidth = 8
	goldenOps   = 30_000
)

// goldenDigest renders every deterministic observable of a finished run:
// the full stats block, delay breakdowns, per-op commit counts, scheduler
// energy events and counters, renamer/MDP/cache/DRAM statistics and the
// lifetime μop accounting. Wall-time is deliberately absent — everything
// here must be byte-identical run to run and revision to revision.
func goldenDigest(p *pipeline.Pipeline, arch config.Arch, wl string) []byte {
	var b bytes.Buffer
	st := p.Stats()
	fmt.Fprintf(&b, "arch=%s workload=%s width=%d ops=%d\n", arch, wl, goldenWidth, goldenOps)
	fmt.Fprintf(&b, "stats: cycles=%d committed=%d fetched=%d branches=%d mispredicts=%d violations=%d flushes=%d squashed=%d dispatch_stalls=%d issued=%d occupancy_sum=%d\n",
		st.Cycles, st.Committed, st.Fetched, st.Branches, st.Mispredicts, st.Violations,
		st.Flushes, st.Squashed, st.DispatchStall, st.Issued, st.OccupancySum)
	for i, d := range st.Delay {
		fmt.Fprintf(&b, "delay[%s]: count=%d d2d=%d d2r=%d r2i=%d\n",
			sched.Class(i), d.Count, d.DecodeToDispatch, d.DispatchToReady, d.ReadyToIssue)
	}
	fmt.Fprintf(&b, "delay[all]: count=%d d2d=%d d2r=%d r2i=%d\n",
		st.All.Count, st.All.DecodeToDispatch, st.All.DispatchToReady, st.All.ReadyToIssue)
	b.WriteString("ops:")
	for op, n := range st.OpCommitted {
		if n != 0 {
			fmt.Fprintf(&b, " %d=%d", op, n)
		}
	}
	b.WriteByte('\n')

	s := p.Scheduler()
	fmt.Fprintf(&b, "sched: name=%s capacity=%d occupancy=%d\n", s.Name(), s.Capacity(), s.Occupancy())
	e := s.Energy()
	fmt.Fprintf(&b, "energy: wb=%d wc=%d sel=%d qw=%d qr=%d pay=%d pscbr=%d pscbw=%d steer=%d ixu=%d\n",
		e.WakeupBroadcasts, e.WakeupCompares, e.SelectInputs, e.QueueWrites, e.QueueReads,
		e.PayloadReads, e.PSCBReads, e.PSCBWrites, e.SteerOps, e.IXUExecs)
	ctrs := s.Counters()
	keys := make([]string, 0, len(ctrs))
	for k := range ctrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b.WriteString("counters:")
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%d", k, ctrs[k])
	}
	b.WriteByte('\n')

	renames, stallsFree := p.Renamer().Stats()
	fi, ff := p.Renamer().FreeCount()
	fmt.Fprintf(&b, "rename: renames=%d stalls_free=%d free_int=%d free_fp=%d\n", renames, stallsFree, fi, ff)
	ms := p.MDP().Stats()
	fmt.Fprintf(&b, "mdp: violations=%d merges=%d allocations=%d load_waits=%d store_serial=%d\n",
		ms.Violations, ms.Merges, ms.Allocations, ms.LoadWaits, ms.StoreSerial)

	h := p.Mem()
	for _, c := range []*cache.Cache{h.L1I, h.L1D, h.L2, h.L3} {
		cs := c.Stats()
		fmt.Fprintf(&b, "mem %s: hits=%d misses=%d merged=%d wb=%d mshr_stalls=%d pf=%d pf_hits=%d evict=%d whit=%d wmiss=%d\n",
			c.Name(), cs.Hits, cs.Misses, cs.MergedMiss, cs.Writebacks, cs.MSHRStalls,
			cs.Prefetches, cs.PrefeHits, cs.Evictions, cs.WriteHits, cs.WriteMisses)
	}
	ds := h.DRAM.Stats()
	fmt.Fprintf(&b, "dram: reads=%d writes=%d row_hits=%d row_misses=%d row_conflicts=%d\n",
		ds.Reads, ds.Writes, ds.RowHits, ds.RowMisses, ds.RowConflicts)

	tf, tc, tsq := p.Totals()
	fmt.Fprintf(&b, "totals: fetched=%d committed=%d squashed=%d\n", tf, tc, tsq)
	return b.Bytes()
}

func goldenFile(arch config.Arch, wl string) string {
	return filepath.Join("testdata", "golden", fmt.Sprintf("%s_%s.txt", arch, wl))
}

// goldenTraces shares one immutable dynamic trace per workload across all
// twelve architectures (the pipeline only reads the trace).
var goldenTraces sync.Map

func goldenTrace(t *testing.T, wl string) []isa.DynInst {
	t.Helper()
	if tr, ok := goldenTraces.Load(wl); ok {
		return tr.([]isa.DynInst)
	}
	w, err := workload.ByName(wl, workload.Params{})
	if err != nil {
		t.Fatal(err)
	}
	ops := prog.MustExecute(w.Program, goldenOps).Ops
	tr, _ := goldenTraces.LoadOrStore(wl, ops)
	return tr.([]isa.DynInst)
}

func runGolden(t *testing.T, arch config.Arch, wl string) []byte {
	t.Helper()
	tr := goldenTrace(t, wl)
	m := config.MustMachine(arch, goldenWidth, config.Options{MaxCycles: uint64(goldenOps) * 100})
	pl, err := pipeline.New(m.Pipeline, tr, m.Factory)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Run(uint64(len(tr))); err != nil {
		t.Fatalf("%s/%s: %v", arch, wl, err)
	}
	return goldenDigest(pl, arch, wl)
}

// warmGoldenFile is the widened corpus's digest of one arch × kernel pair.
func warmGoldenFile(arch config.Arch, wl string) string {
	return filepath.Join("testdata", "golden", "warm", fmt.Sprintf("%s_%s.txt", arch, wl))
}

// warmGoldenBeat is the widened corpus's heartbeat interval: long enough
// that a DRAM-bound run pins a few dozen interval rows, not thousands.
const warmGoldenBeat = 100_000

// runWarmGolden renders the widened corpus's entry for one arch × kernel
// pair: the whole golden trace after a warm-up, with top-down accounting
// off and then on, each with a sink-less recorder whose interval rows,
// snapshots and metrics are pinned beside the digest.
func runWarmGolden(t *testing.T, arch config.Arch, wl string) []byte {
	t.Helper()
	tr := goldenTrace(t, wl)
	var out []byte
	for _, td := range []bool{false, true} {
		machine, seen := runEngine(t, arch, wl, tr, false, td, warmGoldenBeat)
		out = fmt.Appendf(out, "== topdown=%v warmup=%d\n", td, skipWarmup)
		out = append(append(out, machine...), seen...)
	}
	return out
}

// checkGolden compares got with the digest at path, or rewrites it under
// -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden digest (run with -update to bootstrap): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("digest mismatch vs %s:\n--- want ---\n%s--- got ---\n%s", path, want, got)
	}
}

// TestGoldenManifests is the behavioural-equivalence corpus: every arch ×
// tier-1 workload digest must match the committed golden byte for byte,
// and so must the widened corpus — every arch over the ten figure kernels
// and the calibrated presets, after a warm-up, with top-down accounting
// off and on and a sink-less recorder attached. Any diff means the
// engine's observable behaviour changed — intended changes must
// regenerate the corpus with -update and justify the diff in review.
func TestGoldenManifests(t *testing.T) {
	if testing.Short() {
		t.Skip("golden corpus is the full tier-1 grid; skipped in -short")
	}
	for _, arch := range config.AllArchs() {
		for _, wl := range goldenWorkloads {
			arch, wl := arch, wl
			t.Run(fmt.Sprintf("%s/%s", arch, wl), func(t *testing.T) {
				t.Parallel()
				checkGolden(t, goldenFile(arch, wl), runGolden(t, arch, wl))
			})
		}
		for _, wl := range skipKernels() {
			arch, wl := arch, wl
			t.Run(fmt.Sprintf("warm/%s/%s", arch, wl), func(t *testing.T) {
				t.Parallel()
				checkGolden(t, warmGoldenFile(arch, wl), runWarmGolden(t, arch, wl))
			})
		}
	}
}
