package pipeline_test

import (
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/pipeline"
	"repro/internal/topdown"
)

// runTopdown simulates one arch × workload pair with cycle accounting and
// the invariant auditor attached, so the slot-conservation invariant is
// verified at every stepped cycle and after every jump, not just at the
// end.
func runTopdown(t *testing.T, arch config.Arch, wl string, ops int) (*pipeline.Pipeline, *topdown.Engine) {
	t.Helper()
	tr := goldenTrace(t, wl)
	if ops < len(tr) {
		tr = tr[:ops]
	}
	m := config.MustMachine(arch, goldenWidth, config.Options{MaxCycles: uint64(ops) * 100})
	pl, err := pipeline.New(m.Pipeline, tr, m.Factory)
	if err != nil {
		t.Fatal(err)
	}
	td := topdown.New(m.Pipeline.IssueWidth)
	pl.AttachTopdown(td)
	pl.EnableAudit()
	if _, err := pl.Run(uint64(len(tr))); err != nil {
		t.Fatalf("%s/%s: %v", arch, wl, err)
	}
	return pl, td
}

// TestTopdownConservation proves the accounting identity — every issue
// slot of every cycle blamed exactly once — across the full tier-1 grid:
// all twelve architectures over the four tier-1 kernels, with the auditor
// checking the invariant at every tick (each jump over quiet cycles
// included, after top-down charges it) and the test re-checking the final
// totals and the category/stat cross-ties.
func TestTopdownConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("full tier-1 grid; skipped in -short")
	}
	for _, arch := range config.AllArchs() {
		for _, wl := range goldenWorkloads {
			arch, wl := arch, wl
			t.Run(fmt.Sprintf("%s/%s", arch, wl), func(t *testing.T) {
				t.Parallel()
				pl, td := runTopdown(t, arch, wl, 10_000)

				got, want, on := td.Conservation()
				if !on {
					t.Fatal("engine reports off")
				}
				if got != want {
					t.Fatalf("conservation: blamed %d slots, want width×cycles = %d", got, want)
				}

				st := pl.Stats()
				counts := td.Counts()

				// Base slots equal issued μops up to the over-issue clamp
				// (FXA's IXU can execute beyond the backend width).
				if counts[topdown.Base]+td.OverIssue() != st.Issued {
					t.Errorf("base %d + over-issue %d ≠ issued %d",
						counts[topdown.Base], td.OverIssue(), st.Issued)
				}

				// The typed dispatch-stall split must sum to the legacy
				// conflated counter.
				sum := st.StallROBFull + st.StallLSQFull + st.StallRename +
					st.StallIQFull + st.StallInjected
				if sum != st.DispatchStall {
					t.Errorf("typed stalls sum %d ≠ dispatch stalls %d", sum, st.DispatchStall)
				}

				// A structural dispatch category can only be charged if the
				// matching typed stall fired at least once.
				for cat, stat := range map[topdown.Category]uint64{
					topdown.ROBFull:     st.StallROBFull,
					topdown.LSQFull:     st.StallLSQFull,
					topdown.RenameStall: st.StallRename,
					topdown.IQFull:      st.StallIQFull,
				} {
					if counts[cat] > 0 && stat == 0 {
						t.Errorf("category %s charged %d slots but its stall counter is 0",
							cat, counts[cat])
					}
				}
			})
		}
	}
}

// TestTopdownLittlesLaw is the Carroll & Lin closed-form cross-check on the
// stream kernel: over the scheduling window, average occupancy must equal
// issue rate × average dispatch→issue residency (Little's law). A broken
// slot attribution would desynchronise the occupancy-driven categories from
// the queue model this identity pins down.
func TestTopdownLittlesLaw(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a long steady-state region; skipped in -short")
	}
	pl, td := runTopdown(t, config.ArchOoO, "stream", 30_000)
	st := pl.Stats()
	if st.All.Count == 0 || st.Cycles == 0 {
		t.Fatal("empty run")
	}

	occupancy := float64(st.OccupancySum) / float64(st.Cycles) // L
	issueRate := float64(st.Issued) / float64(st.Cycles)       // λ
	residency := float64(st.All.DispatchToReady+st.All.ReadyToIssue) /
		float64(st.All.Count) // W

	want := issueRate * residency
	if want == 0 {
		t.Fatal("degenerate Little's-law terms")
	}
	if rel := (occupancy - want) / want; rel > 0.10 || rel < -0.10 {
		t.Errorf("Little's law: occupancy %.3f vs λ·W = %.3f·%.3f = %.3f (%.1f%% off, tolerance 10%%)",
			occupancy, issueRate, residency, want, rel*100)
	}

	// The stream kernel at an 8 MiB-class footprint is memory-bound: the
	// memory category must dominate the idle slots.
	counts := td.Counts()
	var idleMax topdown.Category
	for c := topdown.Category(1); c < topdown.NumCategories; c++ {
		if counts[c] > counts[idleMax] || idleMax == topdown.Base {
			idleMax = c
		}
	}
	if idleMax != topdown.Memory {
		t.Errorf("stream idle slots dominated by %s, want memory (counts %v)", idleMax, counts)
	}
}

// TestTopdownSteadyStateAllocs extends the zero-allocation contract to the
// accounting-on configuration: the engine's per-cycle scratch is scalar, so
// attaching it must not introduce steady-state allocations either.
func TestTopdownSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state warmup is not worth it in -short")
	}
	const totalOps = 400_000
	tr := hotLoopTrace(t, "mixed", totalOps)
	m := config.MustMachine(config.ArchBallerino, 8, config.Options{})
	pl, err := pipeline.New(m.Pipeline, tr, m.Factory)
	if err != nil {
		t.Fatal(err)
	}
	pl.AttachTopdown(topdown.New(8))
	if _, err := pl.Run(50_000); err != nil {
		t.Fatal(err)
	}
	target := pl.Stats().Committed
	avg := testing.AllocsPerRun(10, func() {
		target += 5_000
		if _, err := pl.Run(target); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("%.1f allocs per 5k-commit slice with topdown attached, want 0", avg)
	}
}

// TestTopdownDetach verifies AttachTopdown(nil) restores the original
// issue-path closures and the conservation surface reports off.
func TestTopdownDetach(t *testing.T) {
	tr := goldenTrace(t, "stream")[:2_000]
	m := config.MustMachine(config.ArchOoO, goldenWidth, config.Options{})
	pl, err := pipeline.New(m.Pipeline, tr, m.Factory)
	if err != nil {
		t.Fatal(err)
	}
	pl.AttachTopdown(topdown.New(goldenWidth))
	pl.AttachTopdown(nil)
	if pl.Topdown() != nil {
		t.Fatal("engine still attached")
	}
	if _, err := pl.Run(uint64(len(tr))); err != nil {
		t.Fatal(err)
	}
	if _, _, on := pl.TopdownConservation(); on {
		t.Error("detached pipeline reports accounting on")
	}
	if snap := pl.ObsSnapshot(); snap.TopdownOn {
		t.Error("snapshot carries TopdownOn after detach")
	}
}
