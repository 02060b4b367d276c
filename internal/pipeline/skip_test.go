package pipeline_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/sched"
	"repro/internal/topdown"
	"repro/internal/workload"
)

// The skipping loop against the reference stepper: the same trace on the
// same machine must leave every observable identical, whether the loop
// jumps over quiet cycles or steps through them.

const (
	skipOps    = 10_000
	skipWarmup = 1_000
)

// skipKernels are the differential test's kernels: the standard suite and
// the calibrated presets.
func skipKernels() []string {
	var ks []string
	for _, k := range workload.Kernels() {
		if !k.Extra || strings.HasPrefix(k.Name, "calib-") {
			ks = append(ks, k.Name)
		}
	}
	return ks
}

// newEngine builds a pipeline over tr; stepper selects the reference
// stepper. adjust, when non-nil, edits the pipeline configuration first.
func newEngine(t *testing.T, arch config.Arch, tr []isa.DynInst, stepper bool, adjust func(*pipeline.Config)) *pipeline.Pipeline {
	t.Helper()
	m := config.MustMachine(arch, goldenWidth, config.Options{MaxCycles: uint64(len(tr)) * 100})
	if adjust != nil {
		adjust(&m.Pipeline)
	}
	p, err := pipeline.New(m.Pipeline, tr, m.Factory)
	if err != nil {
		t.Fatal(err)
	}
	if stepper {
		pipeline.StepEveryCycle(p)
	}
	return p
}

// runEngine warms the machine up, optionally attaches top-down
// accounting and, when beat is non-zero, a sink-less recorder with that
// heartbeat interval, and runs the rest of tr. It returns what the machine
// did — the golden digest and, with top-down on, the CPI-stack report —
// and, with a recorder, everything the recorder saw (see attachRecorder).
func runEngine(t *testing.T, arch config.Arch, wl string, tr []isa.DynInst, stepper, withTopdown bool, beat uint64) (machine, seen []byte) {
	t.Helper()
	p := newEngine(t, arch, tr, stepper, nil)
	if err := p.Warmup(skipWarmup); err != nil {
		t.Fatalf("%s/%s warm-up: %v", arch, wl, err)
	}
	var td *topdown.Engine
	if withTopdown {
		td = topdown.New(goldenWidth)
		p.AttachTopdown(td)
	}
	var finish func() []byte
	if beat != 0 {
		finish = attachRecorder(p, beat)
	}
	if _, err := p.Run(uint64(len(tr) - skipWarmup)); err != nil {
		t.Fatalf("%s/%s: %v", arch, wl, err)
	}
	machine = goldenDigest(p, arch, wl)
	if td != nil {
		machine = fmt.Appendf(machine, "topdown: %+v\n", *td.Report(p.Stats().Committed))
	}
	if finish != nil {
		seen = finish()
	}
	return machine, seen
}

// attachRecorder attaches a recorder without sinks, as a served job does,
// with heartbeat interval beat. The returned function closes the last
// interval once the run is over and renders everything the recorder saw:
// each interval row together with the start and last snapshots read
// inside its hook (as a served job's gauges read them), the interval
// count and the metrics registry.
func attachRecorder(p *pipeline.Pipeline, beat uint64) func() []byte {
	rec := obs.NewRecorder(beat)
	var out []byte
	rec.OnInterval(func(iv obs.Interval) {
		start, last := rec.Snapshots()
		out = fmt.Appendf(out, "interval: %+v\nstart: %+v\nlast: %+v\n", iv, start, last)
	})
	p.AttachObs(rec)
	return func() []byte {
		rec.Finish(p.ObsSnapshot())
		return fmt.Appendf(out, "intervals: %d\nmetrics: %+v\n", rec.Intervals(), *rec.Registry().Dump())
	}
}

// skipBeats are the recorder heartbeat intervals the differential test
// rotates through: two short ones, so heartbeats land inside quiet
// stretches, and the default.
var skipBeats = []uint64{500, 997, obs.DefaultInterval}

// TestSkipMatchesStepper: on every architecture, over the standard suite
// and the calibrated presets, with warm-up and with top-down accounting
// off and on, the skipping loop and the reference stepper produce the
// same digest and the same top-down report — with no recorder, and with
// a sink-less recorder attached after warm-up, whose interval rows,
// snapshots and metrics must match too. The stepper runs once per
// configuration, with the recorder attached, and both skipping runs are
// held to it: a sink-less recorder does not change what the machine does.
// Each arch × kernel pair runs one heartbeat interval, rotating through
// skipBeats so that every architecture and every kernel meets each of
// them.
func TestSkipMatchesStepper(t *testing.T) {
	if testing.Short() {
		t.Skip("the differential grid is not worth it in -short")
	}
	for i, wl := range skipKernels() {
		for j, arch := range config.AllArchs() {
			wl, arch, beat := wl, arch, skipBeats[(i+j)%len(skipBeats)]
			t.Run(fmt.Sprintf("%s/%s", arch, wl), func(t *testing.T) {
				t.Parallel()
				tr := goldenTrace(t, wl)[:skipOps]
				for _, td := range []bool{false, true} {
					want, wantSeen := runEngine(t, arch, wl, tr, true, td, beat)
					plain, _ := runEngine(t, arch, wl, tr, false, td, 0)
					got, gotSeen := runEngine(t, arch, wl, tr, false, td, beat)
					if !bytes.Equal(plain, want) {
						t.Errorf("topdown=%v: skipping loop diverged from the stepper\n--- stepper ---\n%s--- skipping ---\n%s", td, want, plain)
					}
					if got, want := append(got, gotSeen...), append(want, wantSeen...); !bytes.Equal(got, want) {
						t.Errorf("topdown=%v beat=%d: skipping loop with a recorder diverged from the stepper\n--- stepper ---\n%s--- skipping ---\n%s", td, beat, want, got)
					}
				}
			})
		}
	}
}

// boundaryArchs are the designs the boundary tests run on: the baseline
// out-of-order queue and the paper's design.
var boundaryArchs = []config.Arch{config.ArchOoO, config.ArchBallerino}

// inDRAMWait fails t unless p's oldest μop is a load whose data is still
// on its way from beyond the L3 — the long waits the skipping loop jumps.
func inDRAMWait(t *testing.T, p *pipeline.Pipeline, cfg pipeline.Config) {
	t.Helper()
	if p.ROBLen() == 0 {
		t.Fatalf("stopped at cycle %d with an empty ROB", p.Cycle())
	}
	u := p.ROBEntry(0)
	if !u.D.IsLoad() || !u.Issued || u.CompleteCycle <= p.Cycle() ||
		u.CompleteCycle-u.IssueCycle <= cfg.Mem.L3.HitLatency {
		t.Fatalf("stopped at cycle %d outside a DRAM wait (head %v issued=%v at %d, completes %d)",
			p.Cycle(), u.D, u.Issued, u.IssueCycle, u.CompleteCycle)
	}
}

// TestSkipCancelMidWait: a pointer-chase run cancelled while its oldest
// load waits on DRAM stops at the same poll boundary, in the same state,
// under both engines.
func TestSkipCancelMidWait(t *testing.T) {
	tr := goldenTrace(t, "pointer-chase")[:skipOps]
	const cancelAfter = 400 // the commit that cancels the run
	for _, arch := range boundaryArchs {
		var outs [2][]byte
		for i, stepper := range []bool{true, false} {
			p := newEngine(t, arch, tr, stepper, nil)
			ctx, cancel := context.WithCancel(context.Background())
			p.OnCommit = func(u *sched.UOp) {
				if u.Seq() == cancelAfter {
					cancel()
				}
			}
			_, err := p.RunContext(ctx, uint64(len(tr)))
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: err = %v, want context.Canceled", arch, err)
			}
			inDRAMWait(t, p, newConfig(arch))
			outs[i] = fmt.Appendf(goldenDigest(p, arch, "pointer-chase"), "err: %v\n", err)
		}
		if !bytes.Equal(outs[0], outs[1]) {
			t.Errorf("%s: cancelled runs differ\n--- stepper ---\n%s--- skipping ---\n%s", arch, outs[0], outs[1])
		}
	}
}

// TestSkipDeadlockBoundaries: a cycle budget and a no-commit watchdog that
// trip inside a DRAM wait abort both engines at the same cycle, for the
// same reason, with the same autopsy.
func TestSkipDeadlockBoundaries(t *testing.T) {
	tr := goldenTrace(t, "pointer-chase")[:skipOps]
	cases := []struct {
		name   string
		adjust func(*pipeline.Config)
	}{
		{"max-cycles", func(c *pipeline.Config) { c.MaxCycles = 20_011 }},
		{"stall-watchdog", func(c *pipeline.Config) { c.StallCycles = 240 }},
	}
	for _, tc := range cases {
		for _, arch := range boundaryArchs {
			var outs [2][]byte
			for i, stepper := range []bool{true, false} {
				p := newEngine(t, arch, tr, stepper, tc.adjust)
				_, err := p.Run(uint64(len(tr)))
				var de *check.DeadlockError
				if !errors.As(err, &de) || de.Autopsy == nil {
					t.Fatalf("%s %s: err = %v, want a *check.DeadlockError with an autopsy", tc.name, arch, err)
				}
				cfg := newConfig(arch)
				tc.adjust(&cfg)
				inDRAMWait(t, p, cfg)
				outs[i] = fmt.Appendf(goldenDigest(p, arch, "pointer-chase"), "reason: %s\ncycle: %d\n%s",
					de.Reason, de.Autopsy.Cycle, de.Autopsy)
			}
			if !bytes.Equal(outs[0], outs[1]) {
				t.Errorf("%s %s: aborted runs differ\n--- stepper ---\n%s--- skipping ---\n%s", tc.name, arch, outs[0], outs[1])
			}
		}
	}
}

// newConfig is the pipeline configuration newEngine starts from.
func newConfig(arch config.Arch) pipeline.Config {
	return config.MustMachine(arch, goldenWidth, config.Options{}).Pipeline
}
