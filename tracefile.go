package ballerino

import (
	"context"
	"fmt"
	"io"
	"os"

	"repro/internal/tracefile"
)

// This file is the bridge between in-memory Traces and the on-disk
// ballerino.trace/v1 format (internal/tracefile): record any trace the
// simulator can run, replay any well-formed file through the same batch
// API, TraceCache and served job specs as a generated one. See DESIGN.md
// §16 for the wire format.

// WriteTrace records t to w in ballerino.trace/v1 format. The file
// carries the full replay bundle — static program, dynamic μop stream,
// and the final state the Audit golden model's end-of-run check compares
// against — plus t's content key, so a re-imported trace dedups
// byte-stably against an in-memory generation of the same kernel. A
// cached trace, which holds no initial memory image, is written with an
// image the catalogue rebuilds for the write, so its bytes equal those
// of PrepareTrace's trace of the same configuration.
func WriteTrace(w io.Writer, t *Trace) error {
	tr, err := t.withImage(context.TODO())
	if err != nil {
		return &SimError{Stage: "tracefile", Workload: t.wl, Err: err}
	}
	h := tracefile.Header{
		Workload:       t.wl,
		FootprintBytes: t.fp,
		Ops:            t.ops,
		TraceKey:       kernelTraceKey(t.wl, t.fp, t.ops),
		Generator:      "ballerino",
	}
	if err := tracefile.Encode(w, h, tr); err != nil {
		return &SimError{Stage: "tracefile", Workload: t.wl, Err: err}
	}
	return nil
}

// ExportTrace records t to a file at path (created or truncated).
func ExportTrace(path string, t *Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return &SimError{Stage: "tracefile", Workload: t.wl, Err: err}
	}
	if err := WriteTrace(f, t); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return &SimError{Stage: "tracefile", Workload: t.wl, Err: err}
	}
	return nil
}

// ReadTrace decodes one ballerino.trace/v1 stream into an immutable Trace
// ready for Config.Trace. Every failure — bad magic, version skew,
// checksum mismatch, truncation, malformed or out-of-range encoding — is
// a *SimError with Stage "tracefile" wrapping the typed
// tracefile error, and malformed input never panics.
func ReadTrace(r io.Reader) (*Trace, error) {
	d, err := tracefile.Decode(r)
	if err != nil {
		return nil, &SimError{Stage: "tracefile", Err: err}
	}
	h := d.Header
	fail := func(format string, args ...any) error {
		return &SimError{Stage: "tracefile", Workload: h.Workload,
			Err: fmt.Errorf(format, args...)}
	}
	if h.Workload == "" || h.Workload != d.Trace.Program.Name {
		return nil, fail("header workload %q does not name the program %q", h.Workload, d.Trace.Program.Name)
	}
	if h.Ops <= 0 {
		return nil, fail("header op budget %d must be positive", h.Ops)
	}
	if len(d.Trace.Ops) > h.Ops {
		return nil, fail("stream has %d ops, more than the header budget %d", len(d.Trace.Ops), h.Ops)
	}
	if want := kernelTraceKey(h.Workload, h.FootprintBytes, h.Ops); h.TraceKey != want {
		return nil, fail("header trace key %q does not match its identity fields (%q)", h.TraceKey, want)
	}
	return &Trace{
		key: h.TraceKey,
		tr:  d.Trace,
		wl:  h.Workload,
		fp:  h.FootprintBytes,
		ops: h.Ops,
	}, nil
}

// ImportTrace reads a trace file from path.
func ImportTrace(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, &SimError{Stage: "tracefile", Err: err}
	}
	defer f.Close()
	return ReadTrace(f)
}

// Configure returns cfg rewritten to run this trace: Trace set, workload
// identity (name, footprint, dynamic budget) overlaid from the trace so
// the config passes the trace-key equality check in Validate. A warm-up
// already in cfg is preserved and carved out of the trace's budget when
// it fits. All timing knobs — architecture, width, queue geometry, DVFS,
// faults, audit, topdown, observability — pass through untouched.
func (t *Trace) Configure(cfg Config) Config {
	cfg.Trace = t
	cfg.Custom = nil
	cfg.Workload = t.wl
	cfg.FootprintBytes = t.fp
	if cfg.WarmupOps < 0 || cfg.WarmupOps >= t.ops {
		cfg.WarmupOps = 0
	}
	cfg.MaxOps = t.ops - cfg.WarmupOps
	return cfg
}

// Import loads the trace file at path through the cache: the file's
// header is read first (cheap — no μop decoding) for its content key,
// and the full decode runs only on a miss, shared by concurrent
// importers of the same key. A kernel trace exported by this process and
// re-imported is a cache hit on the generated entry, not a second copy.
func (tc *TraceCache) Import(ctx context.Context, path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, &SimError{Stage: "tracefile", Err: err}
	}
	h, err := tracefile.DecodeHeader(f)
	f.Close()
	if err != nil {
		return nil, &SimError{Stage: "tracefile", Err: err}
	}
	return tc.c.Get(ctx, h.TraceKey, func(ctx context.Context) (*Trace, int64, error) {
		t, err := ImportTrace(path)
		if err != nil {
			return nil, 0, err
		}
		return t, t.sizeBytes(), nil
	})
}
