package pipeline_test

import (
	"testing"

	"repro/internal/check"
	"repro/internal/config"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// debugCases are diagnostic harnesses kept for regression: historically
// troublesome arch × kernel combinations that run to completion and dump
// the relevant machine state (visible with -v, and on any failure). The
// pass/fail assertions for these behaviours live in the functional tests;
// these exist to make a recurrence easy to diagnose.
var debugCases = []struct {
	name      string
	arch      config.Arch
	workload  string
	ops       int
	maxCycles uint64
	report    func(t *testing.T, p *pipeline.Pipeline)
}{
	{
		// The historically deadlock-prone CES store-load combination.
		name:      "ces-store-load",
		arch:      config.ArchCES,
		workload:  "store-load",
		ops:       4000,
		maxCycles: 200_000,
		report: func(t *testing.T, p *pipeline.Pipeline) {
			t.Logf("sched occupancy: %d", p.Scheduler().Occupancy())
			for k, v := range p.Scheduler().Counters() {
				t.Logf("  %s = %d", k, v)
			}
		},
	},
	{
		// MDP predictor activity on the violation-heavy kernel
		// (assertions live in TestMDPReducesViolations).
		name:      "mdp-store-load",
		arch:      config.ArchOoO,
		workload:  "store-load",
		ops:       20_000,
		maxCycles: 2_000_000,
		report: func(t *testing.T, p *pipeline.Pipeline) {
			t.Logf("mdp: %+v", p.MDP().Stats())
		},
	},
	{
		// Cache and prefetcher behaviour on the stencil kernel.
		name:      "stencil-memory",
		arch:      config.ArchOoO,
		workload:  "stencil",
		ops:       40_000,
		maxCycles: 10_000_000,
		report: func(t *testing.T, p *pipeline.Pipeline) {
			s := p.Stats()
			t.Logf("IPC=%.3f cycles=%d", s.IPC(), s.Cycles)
			t.Logf("L1D: %+v", p.Mem().L1D.Stats())
			t.Logf("L2 : %+v", p.Mem().L2.Stats())
			t.Logf("L3 : %+v", p.Mem().L3.Stats())
			t.Logf("PF : %+v", p.Mem().Prefetcher.Stats())
			t.Logf("DRAM: %+v", p.Mem().DRAM.Stats())
			t.Logf("delays: Ld=%+v LdC=%+v", s.Delay[1], s.Delay[2])
			t.Logf("dispatch stalls=%d", s.DispatchStall)
		},
	},
}

// TestDebugDiagnostics runs every diagnostic case to completion and dumps
// its machine-state report; a hang or error additionally dumps the
// stalled pipeline's autopsy.
func TestDebugDiagnostics(t *testing.T) {
	for _, tc := range debugCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			m := config.MustMachine(tc.arch, 8, config.Options{MaxCycles: tc.maxCycles})
			tr := traceOf(t, kernel(t, tc.workload, workload.Params{}), tc.ops)
			p, err := pipeline.New(m.Pipeline, tr, m.Factory)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.Run(uint64(tc.ops)); err != nil {
				t.Logf("stats: %s", p.Stats().String())
				tc.report(t, p)
				t.Logf("autopsy: %s", check.Collect(p))
				t.Fatal(err)
			}
			t.Logf("stats: %s", p.Stats().String())
			tc.report(t, p)
		})
	}
}
