package pipeline_test

import (
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/prog"
	"repro/internal/sched"
	"repro/internal/workload"
)

const (
	testOps    = 30000
	testCycles = 3_000_000
)

// kernel builds the named catalogue kernel.
func kernel(t *testing.T, name string, p workload.Params) workload.Workload {
	t.Helper()
	w, err := workload.ByName(name, p)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func traceOf(t *testing.T, w workload.Workload, n int) []isa.DynInst {
	t.Helper()
	return prog.MustExecute(w.Program, n).Ops
}

func runArch(t *testing.T, arch config.Arch, w workload.Workload, n int) (*pipeline.Pipeline, float64) {
	t.Helper()
	m := config.MustMachine(arch, 8, config.Options{MaxCycles: testCycles})
	tr := traceOf(t, w, n)
	p, err := pipeline.New(m.Pipeline, tr, m.Factory)
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.Run(uint64(n))
	if err != nil {
		t.Fatalf("%s on %s: %v", arch, w.Name, err)
	}
	return p, s.IPC()
}

func TestEveryArchRunsEveryKernel(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	var suite []workload.Workload
	for _, name := range workload.Names(false) {
		suite = append(suite, kernel(t, name, workload.Params{Footprint: 1 << 20}))
	}
	for _, arch := range config.AllArchs() {
		for _, w := range suite {
			arch, w := arch, w
			t.Run(string(arch)+"/"+w.Name, func(t *testing.T) {
				p, ipc := runArch(t, arch, w, 8000)
				if got := p.Stats().Committed; got != 8000 {
					t.Fatalf("committed %d of 8000", got)
				}
				if ipc <= 0 || ipc > 8 {
					t.Fatalf("IPC = %.3f out of range", ipc)
				}
			})
		}
	}
}

// TestCommitOrderAndExactlyOnce checks the DESIGN.md §6 ROB invariant:
// every correct-path μop commits exactly once, in program order, even with
// flushes and replays in between.
func TestCommitOrderAndExactlyOnce(t *testing.T) {
	for _, arch := range []config.Arch{config.ArchOoO, config.ArchBallerino, config.ArchCES} {
		arch := arch
		t.Run(string(arch), func(t *testing.T) {
			m := config.MustMachine(arch, 8, config.Options{MaxCycles: testCycles})
			tr := traceOf(t, kernel(t, "store-load", workload.Params{}), 10000)
			p, err := pipeline.New(m.Pipeline, tr, m.Factory)
			if err != nil {
				t.Fatal(err)
			}
			next := uint64(0)
			p.OnCommit = func(u *sched.UOp) {
				if u.Seq() != next {
					t.Fatalf("commit order broken: got seq %d, want %d", u.Seq(), next)
				}
				next++
			}
			if _, err := p.Run(10000); err != nil {
				t.Fatal(err)
			}
			if next != 10000 {
				t.Fatalf("committed %d, want 10000", next)
			}
		})
	}
}

// TestNoIssueBeforeReady checks the fundamental scheduling invariant for a
// sample of microarchitectures: a μop never issues before its operands are
// available and never completes before it issues.
func TestNoIssueBeforeReady(t *testing.T) {
	for _, arch := range []config.Arch{
		config.ArchInO, config.ArchOoO, config.ArchCES,
		config.ArchCASINO, config.ArchFXA, config.ArchBallerino,
	} {
		arch := arch
		t.Run(string(arch), func(t *testing.T) {
			m := config.MustMachine(arch, 8, config.Options{MaxCycles: testCycles})
			tr := traceOf(t, kernel(t, "mixed", workload.Params{Footprint: 1 << 20}), 8000)
			p, err := pipeline.New(m.Pipeline, tr, m.Factory)
			if err != nil {
				t.Fatal(err)
			}
			p.OnCommit = func(u *sched.UOp) {
				if u.IssueCycle < u.ReadyCycle {
					t.Fatalf("seq %d issued at %d before ready at %d", u.Seq(), u.IssueCycle, u.ReadyCycle)
				}
				if u.IssueCycle < u.DispatchCycle {
					t.Fatalf("seq %d issued at %d before dispatch at %d", u.Seq(), u.IssueCycle, u.DispatchCycle)
				}
				if u.CompleteCycle <= u.IssueCycle {
					t.Fatalf("seq %d completed at %d not after issue at %d", u.Seq(), u.CompleteCycle, u.IssueCycle)
				}
			}
			if _, err := p.Run(8000); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestInOrderIssueIsMonotone: the in-order core must issue in program order.
func TestInOrderIssueIsMonotone(t *testing.T) {
	m := config.MustMachine(config.ArchInO, 8, config.Options{MaxCycles: testCycles})
	tr := traceOf(t, kernel(t, "compute", workload.Params{}), 6000)
	p, err := pipeline.New(m.Pipeline, tr, m.Factory)
	if err != nil {
		t.Fatal(err)
	}
	last := uint64(0)
	p.OnCommit = func(u *sched.UOp) {
		if u.IssueCycle < last {
			t.Fatalf("seq %d issued at %d, older op issued at %d", u.Seq(), u.IssueCycle, last)
		}
		last = u.IssueCycle
	}
	if _, err := p.Run(6000); err != nil {
		t.Fatal(err)
	}
}

func TestOoOBeatsInOOnCompute(t *testing.T) {
	w := kernel(t, "compute", workload.Params{})
	_, inoIPC := runArch(t, config.ArchInO, w, 12000)
	_, oooIPC := runArch(t, config.ArchOoO, w, 12000)
	if oooIPC <= inoIPC {
		t.Errorf("OoO IPC %.3f not above InO %.3f", oooIPC, inoIPC)
	}
}

func TestOoOToleratesCacheMissesBetter(t *testing.T) {
	// Pointer chase over an L3-overflowing footprint: the OoO core should
	// hide some latency (MLP for the payload loads) relative to InO.
	w := kernel(t, "pointer-chase", workload.Params{Footprint: 4 << 20})
	_, inoIPC := runArch(t, config.ArchInO, w, 6000)
	_, oooIPC := runArch(t, config.ArchOoO, w, 6000)
	if oooIPC < inoIPC {
		t.Errorf("OoO IPC %.3f below InO %.3f on pointer chase", oooIPC, inoIPC)
	}
}

func TestMDPReducesViolations(t *testing.T) {
	w := kernel(t, "store-load", workload.Params{})
	tr := traceOf(t, w, 20000)

	run := func(disable bool) *pipeline.Pipeline {
		m := config.MustMachine(config.ArchOoO, 8, config.Options{
			MaxCycles:  testCycles,
			DisableMDP: disable,
		})
		p, err := pipeline.New(m.Pipeline, tr, m.Factory)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run(20000); err != nil {
			t.Fatal(err)
		}
		return p
	}
	noMDP := run(true)
	withMDP := run(false)

	vNo, vYes := noMDP.Stats().Violations, withMDP.Stats().Violations
	if vNo == 0 {
		t.Fatal("store-load kernel produced no violations without MDP")
	}
	// The paper reports MDP removing 96% of violations.
	if float64(vYes) > 0.2*float64(vNo) {
		t.Errorf("MDP left %d of %d violations (>20%%)", vYes, vNo)
	}
	// The paper's 1.5× speedup does not reproduce on this suite: replayed
	// loads merge into still-in-flight fills, so violation flushes are
	// cheap in memory-bound code (see EXPERIMENTS.md §III-B). Require
	// only that honouring the predictions is not costly.
	if ipcOn, ipcOff := withMDP.Stats().IPC(), noMDP.Stats().IPC(); ipcOn < 0.85*ipcOff {
		t.Errorf("MDP cost too much IPC: %.3f vs %.3f", ipcOn, ipcOff)
	}
}

func TestBranchyWorkloadMispredicts(t *testing.T) {
	p, _ := runArch(t, config.ArchOoO, kernel(t, "branchy", workload.Params{}), 12000)
	s := p.Stats()
	if s.Branches == 0 {
		t.Fatal("no branches recorded")
	}
	rate := s.MispredictRate()
	// ~half the branches are a coin flip on hashed data; the loop branches
	// are easy. Expect a rate clearly above zero but below 60%.
	if rate < 0.02 || rate > 0.6 {
		t.Errorf("mispredict rate = %.3f, expected hard-but-not-impossible", rate)
	}
}

func TestStreamMispredictsRare(t *testing.T) {
	p, _ := runArch(t, config.ArchOoO, kernel(t, "stream", workload.Params{Footprint: 1 << 20}), 12000)
	if rate := p.Stats().MispredictRate(); rate > 0.05 {
		t.Errorf("stream mispredict rate = %.3f, want ≈0", rate)
	}
}

func TestDelayBreakdownRecorded(t *testing.T) {
	p, _ := runArch(t, config.ArchOoO, kernel(t, "pointer-chase", workload.Params{Footprint: 2 << 20}), 8000)
	s := p.Stats()
	if s.Delay[sched.ClassLd].Count == 0 {
		t.Error("no loads classified")
	}
	if s.Delay[sched.ClassLdC].Count == 0 {
		t.Error("no load-dependents classified")
	}
	if s.Delay[sched.ClassRst].Count == 0 {
		t.Error("no Rst μops classified")
	}
	// Pointer chase: load consumers wait for cache misses, so LdC
	// dispatch→ready delay must dominate Rst's.
	_, ldcWait, _ := s.Delay[sched.ClassLdC].Avg()
	_, rstWait, _ := s.Delay[sched.ClassRst].Avg()
	if ldcWait <= rstWait {
		t.Errorf("LdC wait %.1f not above Rst wait %.1f", ldcWait, rstWait)
	}
}

func TestSchedulerOccupancyBounded(t *testing.T) {
	for _, arch := range []config.Arch{config.ArchOoO, config.ArchCES, config.ArchBallerino, config.ArchCASINO} {
		arch := arch
		t.Run(string(arch), func(t *testing.T) {
			m := config.MustMachine(arch, 8, config.Options{MaxCycles: testCycles})
			tr := traceOf(t, kernel(t, "hash-join", workload.Params{Footprint: 1 << 20}), 6000)
			p, err := pipeline.New(m.Pipeline, tr, m.Factory)
			if err != nil {
				t.Fatal(err)
			}
			capacity := p.Scheduler().Capacity()
			done := make(chan struct{})
			go func() { defer close(done); p.Run(6000) }()
			<-done
			if occ := p.Scheduler().Occupancy(); occ > capacity {
				t.Errorf("occupancy %d exceeds capacity %d", occ, capacity)
			}
		})
	}
}

func TestConfigValidation(t *testing.T) {
	bad := pipeline.DefaultConfig()
	bad.Ports = nil
	if bad.Validate() == nil {
		t.Error("nil ports accepted")
	}
	bad = pipeline.DefaultConfig()
	bad.IssueWidth = 3
	if bad.Validate() == nil {
		t.Error("mismatched issue width accepted")
	}
	bad = pipeline.DefaultConfig()
	bad.ROBSize = 0
	if bad.Validate() == nil {
		t.Error("zero ROB accepted")
	}
	if _, err := pipeline.New(bad, nil, nil); err == nil {
		t.Error("New accepted invalid config")
	}
}

func TestMaxCyclesAborts(t *testing.T) {
	m := config.MustMachine(config.ArchOoO, 8, config.Options{MaxCycles: 10})
	tr := traceOf(t, kernel(t, "pointer-chase", workload.Params{Footprint: 4 << 20}), 5000)
	p, err := pipeline.New(m.Pipeline, tr, m.Factory)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(5000); err == nil {
		t.Error("MaxCycles=10 did not abort")
	}
}
