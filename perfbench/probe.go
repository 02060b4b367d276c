package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	ballerino "repro"
	"repro/internal/obs"
	"repro/internal/span"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// probeRun is one probed configuration, run plainly, with an event
// recorder attached and with topdown accounting attached.
type probeRun struct {
	o                 outcome // the window operation whose configuration this is
	plain, rec, td    time.Duration
	events, committed uint64
}

// probeResult is what the traced run measures after its window.
type probeResult struct {
	attempted, failed int
	runs              []probeRun
	storeHits         int          // store hits among the probe's served jobs
	trees             []*span.Tree // the probe server's job lifecycles
}

// probe times the layers the window cannot isolate from outside, and
// exercises the layers the workload leaves idle, so that the traced run
// measures every per-layer metric on every workload:
//
//   - workload.ByName, called directly on the window's first kernels;
//   - for the first configuration of each design in the window, RunContext
//     plain, with an event-counting obs.Recorder and with topdown on;
//   - one trace exported and imported through the tracefile layer;
//   - unless the workload is served, a few jobs on a fresh telemetry
//     server, replaying that trace file, one of them a store hit.
func probe(ctx context.Context, b *bench, r runner, outs []outcome) (probeResult, error) {
	var p probeResult
	root := b.start("probe", "probe")
	defer root.End()
	fail := func(err error) {
		p.failed++
		b.reportf("FAILED probe: %v", err)
	}

	seen := map[string]bool{}
	for _, o := range outs {
		if o.kernel == "" || seen[o.kernel] || len(seen) == 3 {
			continue
		}
		seen[o.kernel] = true
		sp := root.Child("workload.ByName")
		_, err := workload.ByName(o.kernel, workload.Params{})
		sp.End()
		p.attempted++
		if err != nil {
			fail(err)
		}
	}

	cache := ballerino.NewTraceCache(0)
	if s, ok := r.(*sweep); ok {
		cache = s.cache
	}
	var first *ballerino.Trace
	for _, o := range probeConfigs(outs) {
		cfg := ballerino.Config{Arch: o.design, Workload: o.kernel, Width: o.width, MaxOps: opsPerRequest}
		t, err := cache.Prepare(span.ContextWith(ctx, root), cfg)
		p.attempted++
		if err != nil {
			fail(err)
			continue
		}
		if first == nil {
			first = t
		}
		cfg.Trace = t
		pr := probeRun{o: o}
		var res [3]*ballerino.Result
		counter := &eventCounter{}
		for i, variant := range []struct {
			name string
			into *time.Duration
			set  func(*ballerino.Config)
		}{
			{"probe.plain", &pr.plain, func(*ballerino.Config) {}},
			{"probe.recorder", &pr.rec, func(c *ballerino.Config) { c.Recorder = obs.NewRecorder(0, counter) }},
			{"probe.topdown", &pr.td, func(c *ballerino.Config) { c.Topdown = true }},
		} {
			c := cfg
			variant.set(&c)
			sp := root.Child(variant.name)
			start := time.Now()
			res[i], err = ballerino.RunContext(span.ContextWith(ctx, sp), c)
			*variant.into = time.Since(start)
			sp.End()
			p.attempted++
			if err != nil {
				fail(err)
			} else if res[i].Committed != opsPerRequest || res[i].Cycles != res[0].Cycles {
				fail(fmt.Errorf("%s on %s: %s changed the simulation (%d cycles, %d committed)",
					o.design, o.kernel, variant.name, res[i].Cycles, res[i].Committed))
			}
		}
		if res[1] != nil {
			pr.events, pr.committed = counter.n, res[1].Committed
		}
		p.runs = append(p.runs, pr)
	}
	if first == nil {
		return p, fmt.Errorf("no configuration to probe")
	}

	dir, err := b.subdir("probe")
	if err != nil {
		return p, err
	}
	defer os.RemoveAll(dir)
	path, err := filepath.Abs(filepath.Join(dir, first.Workload()+".trace"))
	if err != nil {
		return p, err
	}
	sp := root.Child("ballerino.ExportTrace")
	err = ballerino.ExportTrace(path, first)
	sp.End()
	p.attempted++
	if err != nil {
		return p, err
	}
	if st, err := os.Stat(path); err == nil {
		sp = root.Child("ballerino.ImportTrace")
		sp.SetInt("bytes", st.Size())
		_, err = ballerino.ImportTrace(path)
		sp.End()
	}
	p.attempted++
	if err != nil {
		return p, err
	}

	if b.name != "served" {
		if err := probeServed(ctx, b, &p, path); err != nil {
			return p, err
		}
	}
	return p, nil
}

// probeConfigs picks the first simulated configuration of each design in
// the window, with topdown off.
func probeConfigs(outs []outcome) []outcome {
	var picked []outcome
	seen := map[string]bool{}
	for _, o := range outs {
		if o.failed() || o.fromStore || o.topdown || o.design == "" || seen[o.design] {
			continue
		}
		seen[o.design] = true
		picked = append(picked, o)
	}
	return picked
}

// probeServed replays the trace file on a fresh telemetry server: three
// designs, one of them again with topdown, then a resubmit the store
// serves.
func probeServed(ctx context.Context, b *bench, p *probeResult, path string) error {
	s, err := newServed(ctx, b, false)
	if err != nil {
		return err
	}
	var ops []servedOp
	for _, pr := range p.runs[:min(3, len(p.runs))] {
		ops = append(ops, servedOp{telemetry.JobSpec{Arch: pr.o.design, Width: pr.o.width, TraceFile: path}, len(ops)})
	}
	td := ops[0]
	td.spec.Topdown = true
	ops = append(ops, servedOp{td.spec, len(ops)}, servedOp{ops[0].spec, len(ops) + 1})
	outs := s.run(ctx, 0, ops, "probe-job")
	s.scr.scrape()
	failed, problems := check(outs)
	for _, pr := range problems {
		b.reportf("FAILED probe: %s", pr)
	}
	p.attempted += len(outs) + 1
	p.failed += failed + len(s.scr.takeErrors())
	for _, o := range outs {
		if o.fromStore {
			p.storeHits++
		}
	}
	p.trees, err = s.programTrees(ctx)
	if cerr := s.close(); err == nil {
		err = cerr
	}
	return err
}

// eventCounter is an obs.Sink that counts every pipeline event.
type eventCounter struct{ n uint64 }

func (c *eventCounter) Event(*obs.Event)      { c.n++ }
func (c *eventCounter) Interval(obs.Interval) {}
func (c *eventCounter) Close() error          { return nil }
