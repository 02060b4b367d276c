package ballerino

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/span"
	"repro/uprog"
)

// sameMap reports whether a and b are one map, not merely equal ones.
func sameMap(a, b map[uint64]int64) bool {
	return reflect.ValueOf(a).UnsafePointer() == reflect.ValueOf(b).UnsafePointer()
}

// imageConfigs covers the image-dropping contract: every standard
// kernel, one calibrated preset, and one kernel at a non-default
// footprint, whose rebuilt image must follow that footprint. The budget
// is small because a kernel build does not depend on it.
func imageConfigs() []Config {
	var cfgs []Config
	for _, k := range Kernels() {
		if !k.Extra {
			cfgs = append(cfgs, Config{Workload: k.Name, MaxOps: 1_500, WarmupOps: 500})
		}
	}
	return append(cfgs,
		Config{Workload: "calib-mem50", MaxOps: 2_000},
		Config{Workload: "pointer-chase", MaxOps: 2_000, FootprintBytes: 1 << 20})
}

// TestTraceCacheDropsKernelImage: a TraceCache entry of a catalogue
// kernel holds no initial memory image, yet the image's two readers see
// it whole. An audited RunAll over the shared cache verifies every μop,
// and the cached trace exports byte for byte as PrepareTrace's trace of
// the same configuration does. PrepareTrace's traces, a custom program's
// cached trace and an imported trace keep their images.
func TestTraceCacheDropsKernelImage(t *testing.T) {
	ctx := context.Background()
	cfgs := imageConfigs()
	tc := NewTraceCache(0)
	audited := make([]Config, len(cfgs))
	for i, cfg := range cfgs {
		audited[i] = cfg
		audited[i].Arch = Architectures()[i%len(Architectures())]
		audited[i].Audit = true
	}
	b := RunAll(ctx, audited, BatchOptions{Parallelism: 2, Cache: tc})
	for i, rr := range b.Results {
		cfg := audited[i]
		if rr.Err != nil {
			t.Fatalf("audited %s/%s: %v", cfg.Arch, cfg.Workload, rr.Err)
		}
		if want := uint64(cfg.MaxOps + cfg.WarmupOps); rr.Result.GoldenOps != want {
			t.Errorf("audited %s/%s: golden model verified %d μops, want %d",
				cfg.Arch, cfg.Workload, rr.Result.GoldenOps, want)
		}
	}
	if b.Cache.Misses != uint64(len(cfgs)) {
		t.Fatalf("cache misses = %d, want one per config (%d)", b.Cache.Misses, len(cfgs))
	}

	// Exporting a memory kernel takes 0.1–0.3 s, so the configs run two
	// at a time.
	for _, cfg := range cfgs {
		t.Run(fmt.Sprintf("%s@%d", cfg.Workload, cfg.footprint()), func(t *testing.T) {
			t.Parallel()
			cached, err := tc.Prepare(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if cached.tr.Program.InitMem != nil || cached.tr.Final.Base != nil {
				t.Errorf("cached trace holds an initial image (%d words, final base %d words)",
					len(cached.tr.Program.InitMem), len(cached.tr.Final.Base))
			}
			prepared, err := PrepareTrace(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if img := prepared.tr.Program.InitMem; img == nil || !sameMap(prepared.tr.Final.Base, img) {
				t.Error("PrepareTrace's trace lost its image or its final state does not overlay it")
			}
			var fromCache, fromPrepare bytes.Buffer
			if err := WriteTrace(&fromCache, cached); err != nil {
				t.Fatal(err)
			}
			if err := WriteTrace(&fromPrepare, prepared); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fromCache.Bytes(), fromPrepare.Bytes()) {
				t.Errorf("cached trace exports %d bytes that differ from PrepareTrace's %d",
					fromCache.Len(), fromPrepare.Len())
			}
		})
	}

	// A custom program's image is its caller's: the cached trace keeps
	// that very map.
	ub := uprog.NewBuilder("custom-image")
	for i := 0; i < 16; i++ {
		ub.SetMem(0x2000+uint64(8*i), int64(i))
	}
	ub.MovImm(uprog.R(1), 0x2000)
	top := ub.NewLabel()
	ub.Bind(top)
	ub.Load(uprog.R(2), uprog.R(1), 0)
	ub.Store(uprog.R(2), uprog.R(1), 8)
	ub.Jmp(top)
	p := ub.Build()
	custom, err := tc.Prepare(ctx, Config{Custom: p, MaxOps: 500})
	if err != nil {
		t.Fatal(err)
	}
	if img := p.Internal().InitMem; !sameMap(custom.tr.Program.InitMem, img) || !sameMap(custom.tr.Final.Base, img) {
		t.Error("a custom program's cached trace does not share the program's own image")
	}

	// An imported trace keeps the image it decoded: the file is its only
	// source.
	cfg := Config{Workload: "compute", MaxOps: 1_000}
	prepared, err := PrepareTrace(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "compute.balltrace")
	if err := ExportTrace(path, prepared); err != nil {
		t.Fatal(err)
	}
	imp, err := NewTraceCache(0).Import(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(imp.tr.Program.InitMem, prepared.tr.Program.InitMem) || len(imp.tr.Program.InitMem) == 0 {
		t.Errorf("imported trace holds %d image words, want the exported %d",
			len(imp.tr.Program.InitMem), len(prepared.tr.Program.InitMem))
	}
}

// TestTraceSizeChargesHeldImages: a trace's share of the LRU budget is
// what it holds. A cached catalogue kernel's trace holds its μops and its
// final overlay, the words the run wrote, and no initial image, so a
// 30k-μop stream trace stays under a fixed bound (about 35 MB when the
// cache kept stream's 699,050-word image). An imported trace holds the
// image it decoded and is charged for it.
func TestTraceSizeChargesHeldImages(t *testing.T) {
	ctx := context.Background()
	tc := NewTraceCache(0)
	tr, err := tc.Prepare(ctx, Config{Workload: "stream", MaxOps: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(len(tr.tr.Ops))*opBytes + int64(len(tr.tr.Final.Mem))*mapEntry
	const bound = 2_500_000
	if got := tc.Stats().BytesUsed; got != want || got > bound {
		t.Errorf("BytesUsed = %d, want %d (μops and written words) and at most %d", got, want, bound)
	}

	cfg := Config{Workload: "stream", MaxOps: 1_000, FootprintBytes: 1 << 20}
	prepared, err := PrepareTrace(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "stream.balltrace")
	if err := ExportTrace(path, prepared); err != nil {
		t.Fatal(err)
	}
	cold := NewTraceCache(0)
	imp, err := cold.Import(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	image := int64(len(imp.tr.Program.InitMem)) * mapEntry
	if got := cold.Stats().BytesUsed; image == 0 || got < image {
		t.Errorf("imported BytesUsed = %d, want at least %d for its initial image", got, image)
	}
}

// TestTraceImageSpans: the image rebuild is visible, and a plain grid
// never pays for one. Over a shared cache with a tracer in the context,
// a plain RunAll grid opens no "trace.image" span; each audited run of a
// cached kernel opens exactly one, a child of the run's span beside
// "trace.generate" and "sim.run". The audited runs share one trace at
// once, so under -race they show that a rebuild never writes it.
func TestTraceImageSpans(t *testing.T) {
	tracer := span.NewTracer(0)
	root := tracer.Start("grid", "grid")
	ctx := span.ContextWith(context.Background(), root)
	tc := NewTraceCache(0)
	var grid []Config
	for _, arch := range []string{"InO", "OoO", "Ballerino"} {
		for _, wl := range []string{"pointer-chase", "compute"} {
			grid = append(grid, Config{Arch: arch, Workload: wl, MaxOps: 2_000, FootprintBytes: 1 << 20})
		}
	}
	count := func(name string) (n int) {
		tree := tracer.Tree("grid")
		run, _ := tree.Find("grid")
		for _, v := range tree.Spans {
			if v.Name == name {
				n++
				if v.Parent != run.ID && name != "trace.generate" {
					t.Errorf("%s span's parent is %d, want the run's span %d", name, v.Parent, run.ID)
				}
			}
		}
		return n
	}
	if err := RunAll(ctx, grid, BatchOptions{Parallelism: 2, Cache: tc}).FirstErr(); err != nil {
		t.Fatal(err)
	}
	if gen, runs := count("trace.generate"), count("sim.run"); gen != 2 || runs != len(grid) {
		t.Fatalf("plain grid recorded %d trace.generate and %d sim.run spans, want 2 and %d", gen, runs, len(grid))
	}
	if n := count("trace.image"); n != 0 {
		t.Errorf("plain grid opened %d trace.image spans, want none", n)
	}

	var audited []Config
	for _, cfg := range grid {
		if cfg.Workload == "pointer-chase" {
			cfg.Audit = true
			audited = append(audited, cfg)
		}
	}
	b := RunAll(ctx, audited, BatchOptions{Parallelism: len(audited), Cache: tc})
	if err := b.FirstErr(); err != nil {
		t.Fatal(err)
	}
	for _, rr := range b.Results {
		if rr.Result.GoldenOps != uint64(rr.Config.MaxOps) {
			t.Errorf("audited %s: golden model verified %d μops, want %d", rr.Config.Arch, rr.Result.GoldenOps, rr.Config.MaxOps)
		}
	}
	if n := count("trace.image"); n != len(audited) {
		t.Errorf("%d audited runs opened %d trace.image spans, want one each", len(audited), n)
	}
}
