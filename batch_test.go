package ballerino

import (
	"context"
	"encoding/json"
	"errors"
	"maps"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/prog"
	"repro/uprog"
)

// normalizeManifest zeroes the wall-time identity fields — the only
// fields allowed to differ between two runs of one config.
func normalizeManifest(t *testing.T, m *obs.Manifest) []byte {
	t.Helper()
	if m == nil {
		t.Fatal("run has no manifest")
	}
	c := *m
	c.CreatedAt = ""
	c.WallSeconds = 0
	c.Hostname = ""
	b, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func batchConfigs() []Config {
	var cfgs []Config
	for _, arch := range []string{"InO", "OoO", "Ballerino"} {
		for _, wl := range []string{"stream", "store-load"} {
			cfgs = append(cfgs, Config{Arch: arch, Workload: wl, MaxOps: 12_000, WarmupOps: 1_000})
		}
	}
	return cfgs
}

// TestRunAllDeterministicManifests is the batch API's core guarantee: a
// campaign at parallelism 4 (with trace sharing) produces byte-identical
// manifests to standalone RunContext runs of the same configs, each of
// which generates its own trace, modulo wall-time fields.
func TestRunAllDeterministicManifests(t *testing.T) {
	cfgs := batchConfigs()
	par := RunAll(context.Background(), cfgs, BatchOptions{Parallelism: 4})
	if err := par.FirstErr(); err != nil {
		t.Fatalf("parallel campaign: %v", err)
	}
	for i, cfg := range cfgs {
		solo, err := RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatalf("standalone %s/%s: %v", cfg.Arch, cfg.Workload, err)
		}
		sb := normalizeManifest(t, solo.Manifest)
		pb := normalizeManifest(t, par.Results[i].Result.Manifest)
		if string(sb) != string(pb) {
			t.Errorf("slot %d (%s/%s): batch manifest differs from standalone run:\nsolo:  %s\nbatch: %s",
				i, cfg.Arch, cfg.Workload, sb, pb)
		}
	}
}

// TestRunAllCacheCounters: a campaign of N runs over K distinct kernels
// generates exactly K traces; every other lookup is a hit or a
// singleflight join, and the counters in the batch expose that.
func TestRunAllCacheCounters(t *testing.T) {
	cfgs := batchConfigs() // 6 runs over 2 distinct kernels
	b := RunAll(context.Background(), cfgs, BatchOptions{Parallelism: 4})
	if err := b.FirstErr(); err != nil {
		t.Fatal(err)
	}
	st := b.Cache
	if st.Misses != 2 {
		t.Errorf("trace generations = %d, want 2 (one per distinct kernel)", st.Misses)
	}
	if st.Hits+st.Joins != uint64(len(cfgs))-st.Misses {
		t.Errorf("hits %d + joins %d != %d lookups - %d misses",
			st.Hits, st.Joins, len(cfgs), st.Misses)
	}
	if st.Entries != 2 || st.BytesUsed <= 0 {
		t.Errorf("entries/bytes = %d/%d, want 2 entries with positive residency", st.Entries, st.BytesUsed)
	}
}

// TestRunAllErrorIsolation: a failing slot carries its *SimError; its
// neighbours complete untouched.
func TestRunAllErrorIsolation(t *testing.T) {
	cfgs := []Config{
		{Arch: "Ballerino", Workload: "stream", MaxOps: 8_000},
		{Arch: "NoSuchArch", Workload: "stream", MaxOps: 8_000},
		{Arch: "OoO", Workload: "stream", MaxOps: 8_000},
	}
	b := RunAll(context.Background(), cfgs, BatchOptions{Parallelism: 2})
	if b.Results[0].Err != nil || b.Results[2].Err != nil {
		t.Fatalf("healthy slots failed: %v / %v", b.Results[0].Err, b.Results[2].Err)
	}
	var se *SimError
	if !errors.As(b.Results[1].Err, &se) || se.Stage != "config" {
		t.Fatalf("bad slot error = %v, want *SimError stage config", b.Results[1].Err)
	}
	if b.Results[1].Result != nil {
		t.Error("failed slot has a non-nil result")
	}
}

// TestRunAllCancel: cancelling the campaign context yields "canceled"
// *SimErrors in the unfinished slots and the result slice stays fully
// populated and ordered.
func TestRunAllCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancel before dispatch: every slot must report it
	cfgs := batchConfigs()
	b := RunAll(ctx, cfgs, BatchOptions{Parallelism: 4})
	if len(b.Results) != len(cfgs) {
		t.Fatalf("got %d results, want %d", len(b.Results), len(cfgs))
	}
	for i, rr := range b.Results {
		var se *SimError
		if !errors.As(rr.Err, &se) || se.Stage != "canceled" {
			t.Errorf("slot %d: err = %v, want *SimError stage canceled", i, rr.Err)
		}
		if !errors.Is(rr.Err, context.Canceled) {
			t.Errorf("slot %d: error does not unwrap to context.Canceled", i)
		}
	}
}

// TestPrepareTraceInjection: a run fed a PrepareTrace trace equals an
// inline-generated run bit for bit, and a trace prepared for a different
// configuration is rejected at Validate.
func TestPrepareTraceInjection(t *testing.T) {
	cfg := Config{Arch: "CASINO", Workload: "branchy", MaxOps: 10_000}
	tr, err := PrepareTrace(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Ops() != 10_000 || tr.Workload() != "branchy" {
		t.Fatalf("trace ops/workload = %d/%s", tr.Ops(), tr.Workload())
	}

	inline, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	injected := cfg
	injected.Trace = tr
	shared, err := Run(injected)
	if err != nil {
		t.Fatal(err)
	}
	if string(normalizeManifest(t, inline.Manifest)) != string(normalizeManifest(t, shared.Manifest)) {
		t.Error("injected-trace manifest differs from inline-generated run")
	}

	// Same trace, wrong budget: Validate must refuse it.
	wrong := cfg
	wrong.MaxOps = 20_000
	wrong.Trace = tr
	var se *SimError
	if err := wrong.Validate(); !errors.As(err, &se) || se.Stage != "config" {
		t.Fatalf("mismatched trace: Validate = %v, want config *SimError", err)
	}
}

// TestTraceSizeCountsBothImages: a cached trace's share of the LRU
// budget covers both memory images it holds — the program's initial image
// and the final state's overlay, the words the run wrote on top of that
// image. A store-heavy kernel writes much of its footprint, so counting
// only the initial image under-charges the budget.
func TestTraceSizeCountsBothImages(t *testing.T) {
	tc := NewTraceCache(0)
	tr, err := tc.Prepare(context.Background(), Config{Workload: "stream", MaxOps: 1000, FootprintBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	images := int64(len(tr.tr.Program.InitMem)+len(tr.tr.Final.Mem)) * mapEntry
	if got := tc.Stats().BytesUsed; got < images {
		t.Errorf("BytesUsed = %d, want at least %d for the initial and final memory images", got, images)
	}
}

// TestSharedImageConcurrentRuns: executions share their program's memory
// image instead of copying it. Two concurrent functional executions and an
// audited run — whose golden model replays every store — all read one map
// while their stores go to their own overlays. Under -race no access may
// write the image, and it must come out unchanged.
func TestSharedImageConcurrentRuns(t *testing.T) {
	b := uprog.NewBuilder("shared-image")
	for i := 0; i < 64; i++ {
		b.SetMem(0x1000+uint64(8*i), int64(i))
	}
	b.MovImm(uprog.R(1), 0x1000)
	top := b.NewLabel()
	b.Bind(top)
	b.Load(uprog.R(2), uprog.R(1), 0)
	b.AddImm(uprog.R(2), uprog.R(2), 7)
	b.Store(uprog.R(2), uprog.R(1), 0)
	b.AddImm(uprog.R(1), uprog.R(1), 8)
	b.Jmp(top)
	p := b.Build()
	want := maps.Clone(p.Internal().InitMem)

	const ops = 2_000
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, err := prog.ExecuteContext(context.Background(), p.Internal(), ops)
			if !errors.Is(err, prog.ErrFuel) {
				t.Errorf("ExecuteContext: %v", err)
				return
			}
			if got := tr.Final.LoadWord(0x1000); got != 7 {
				t.Errorf("final word 0x1000 = %d, want 7 (the store's value)", got)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		res, err := Run(Config{Arch: "Ballerino", Custom: p, MaxOps: ops, Audit: true})
		if err != nil {
			t.Errorf("audited run: %v", err)
			return
		}
		if res.Committed != ops {
			t.Errorf("audited run committed %d of %d", res.Committed, ops)
		}
	}()
	wg.Wait()
	if !maps.Equal(p.Internal().InitMem, want) {
		t.Error("the program's memory image changed")
	}
}

// TestKernels: the catalogue lists the standard suite sorted by name,
// then the extras in their fixed order — the order sweep's default rows
// and the experiments' columns follow — each kernel with its metadata, and
// repeated calls do not share backing storage.
func TestKernels(t *testing.T) {
	want := []string{
		"branchy", "compute", "hash-join", "mixed", "pointer-chase",
		"reduction", "sparse-trees", "stencil", "store-load", "stream",
		"bst-search", "shellsort-pass", "butterfly",
		"calib-alu25", "calib-div", "calib-fpmul", "calib-mem50", "calib-mix",
	}
	const std = 10
	ks := Kernels()
	if len(ks) != len(want) {
		t.Fatalf("Kernels() has %d entries, want %d", len(ks), len(want))
	}
	for i, k := range ks {
		if k.Name != want[i] {
			t.Errorf("kernel %d is %q, want %q", i, k.Name, want[i])
		}
		if k.Kind == "" || k.Emulate == "" {
			t.Errorf("kernel %+v has empty metadata", k)
		}
		if k.Extra != (i >= std) {
			t.Errorf("kernel %d (%s) Extra = %v, want standard suite first, then extras", i, k.Name, k.Extra)
		}
	}
	ks[0].Name = "mutated"
	if Kernels()[0].Name == "mutated" {
		t.Error("Kernels() returns shared backing storage")
	}
}
