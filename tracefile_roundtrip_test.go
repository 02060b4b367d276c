package ballerino_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	ballerino "repro"
)

// replayWorkloads mirrors the golden corpus grid (internal/pipeline's
// goldenWorkloads): the tier-1 micro set exercising streaming, dependent
// loads, store-to-load traffic and branches.
var replayWorkloads = []string{"stream", "pointer-chase", "store-load", "branchy"}

const replayOps = 30_000

// TestTraceRoundTripDifferential is the differential replay corpus: every
// tier-1 kernel trace is exported to ballerino.trace/v1, re-imported, and
// run on all twelve architectures; the canonical run manifest must be
// byte-identical to a run fed the in-memory trace. This locks down both
// directions of the format at once — the writer records everything the
// timing model consumes, and the reader's reconstruction of the dynamic
// stream from the minimal encoding mirrors the functional interpreter
// field for field.
func TestTraceRoundTripDifferential(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	for _, wl := range replayWorkloads {
		base := ballerino.Config{Workload: wl, MaxOps: replayOps}
		mem, err := ballerino.PrepareTrace(ctx, base)
		if err != nil {
			t.Fatalf("%s: prepare: %v", wl, err)
		}
		path := filepath.Join(dir, wl+".balltrace")
		if err := ballerino.ExportTrace(path, mem); err != nil {
			t.Fatalf("%s: export: %v", wl, err)
		}
		imp, err := ballerino.ImportTrace(path)
		if err != nil {
			t.Fatalf("%s: import: %v", wl, err)
		}
		if imp.Key() != mem.Key() {
			t.Fatalf("%s: imported key %q != in-memory key %q", wl, imp.Key(), mem.Key())
		}
		if imp.Ops() != mem.Ops() {
			t.Fatalf("%s: imported ops %d != in-memory ops %d", wl, imp.Ops(), mem.Ops())
		}
		for _, arch := range ballerino.Architectures() {
			cfg := base
			cfg.Arch = arch
			cfg.Trace = mem
			r1, err := ballerino.Run(cfg)
			if err != nil {
				t.Fatalf("%s/%s: in-memory run: %v", arch, wl, err)
			}
			r2, err := ballerino.Run(imp.Configure(ballerino.Config{Arch: arch}))
			if err != nil {
				t.Fatalf("%s/%s: replay run: %v", arch, wl, err)
			}
			b1, err := r1.Manifest.CanonicalJSON()
			if err != nil {
				t.Fatal(err)
			}
			b2, err := r2.Manifest.CanonicalJSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b1, b2) {
				t.Errorf("%s/%s: replay manifest differs from in-memory manifest:\n%s\n%s",
					arch, wl, b1, b2)
			}
		}
	}
}

// TestTraceImportContentKeyStable: a re-imported trace reproduces the
// original config's content key exactly, so the durable job store and
// TraceCache dedup a replayed file against an in-memory generation of the
// same kernel byte-stably.
func TestTraceImportContentKeyStable(t *testing.T) {
	ctx := context.Background()
	orig := ballerino.Config{Arch: "OoO", Workload: "stream", MaxOps: replayOps}
	mem, err := ballerino.PrepareTrace(ctx, orig)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "stream.balltrace")
	if err := ballerino.ExportTrace(path, mem); err != nil {
		t.Fatal(err)
	}
	imp, err := ballerino.ImportTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	k1, err := orig.ContentKey()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := imp.Configure(ballerino.Config{Arch: "OoO"}).ContentKey()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("replay content key %q != original %q", k2, k1)
	}
}

// TestTraceCacheImportDedup: importing a file whose trace the cache
// already generated is a hit on the existing entry — the header's
// normalized key matches the generation key, and the μop stream is not
// decoded a second time.
func TestTraceCacheImportDedup(t *testing.T) {
	ctx := context.Background()
	tc := ballerino.NewTraceCache(0)
	cfg := ballerino.Config{Workload: "pointer-chase", MaxOps: replayOps}
	mem, err := tc.Prepare(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "pc.balltrace")
	if err := ballerino.ExportTrace(path, mem); err != nil {
		t.Fatal(err)
	}
	imp, err := tc.Import(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	if imp != mem {
		t.Error("import of an exported trace did not return the cached entry")
	}
	if s := tc.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Errorf("cache stats = %+v, want exactly one hit on one generated entry", s)
	}
	// A cold cache imports the file itself and subsequent imports hit.
	cold := ballerino.NewTraceCache(0)
	first, err := cold.Import(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	again, err := cold.Import(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Error("second import of one file decoded a second copy")
	}
	if first.Key() != mem.Key() {
		t.Errorf("cold-import key %q != generated key %q", first.Key(), mem.Key())
	}
}

// TestLoadValueChunkFixture: testdata/compute-2000.balltrace was written
// when exports still carried the load-value chunk (type 0x03), by
// `ballsim -workload compute -ops 2000 -footprint 65536 -trace-out`. It
// must still import — the reader skips that chunk like any unknown type —
// and replay to the canonical manifest of a generated run of the same
// config. A fresh export of that config seals the same end chunk (op
// count and stream digest) without the load-value chunk.
func TestLoadValueChunkFixture(t *testing.T) {
	const fixture = "testdata/compute-2000.balltrace"
	cfg := ballerino.Config{Workload: "compute", MaxOps: 2000, FootprintBytes: 1 << 16}
	imp, err := ballerino.ImportTrace(fixture)
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	gen, err := ballerino.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ballerino.Run(imp.Configure(ballerino.Config{}))
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	b1, err := gen.Manifest.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := rep.Manifest.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("fixture replay manifest differs from a generated run:\n%s\n%s", b1, b2)
	}

	old, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := ballerino.PrepareTrace(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var fresh bytes.Buffer
	if err := ballerino.WriteTrace(&fresh, mem); err != nil {
		t.Fatal(err)
	}
	// The end chunk: type, length, uvarint(2000), 8-byte digest, CRC.
	const endChunk = 1 + 1 + 2 + 8 + 4
	if got, want := fresh.Bytes()[fresh.Len()-endChunk:], old[len(old)-endChunk:]; !bytes.Equal(got, want) {
		t.Errorf("fresh export's end chunk %x differs from the fixture's %x", got, want)
	}
	if fresh.Len() >= len(old) {
		t.Errorf("fresh export is %d bytes, not smaller than the fixture's %d: load-value chunk still written",
			fresh.Len(), len(old))
	}
}
