package pipeline_test

import (
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/prog"
	"repro/internal/workload"
)

// hotLoopArchs covers every scheduler implementation (and the OoO
// oldest-first selection variant, whose issue loop takes a different path).
var hotLoopArchs = []config.Arch{
	config.ArchInO,
	config.ArchOoO,
	config.ArchOoOOldest,
	config.ArchCESMDA,
	config.ArchCASINO,
	config.ArchFXA,
	config.ArchBallerino,
	config.ArchBallerinoIdeal,
}

func hotLoopTrace(t testing.TB, wl string, ops int) []isa.DynInst {
	t.Helper()
	w, err := workload.ByName(wl, workload.Params{})
	if err != nil {
		t.Fatal(err)
	}
	return prog.MustExecute(w.Program, ops).Ops
}

// TestSteadyStateAllocs proves the zero-allocation contract of the cycle
// engine: once the pipeline is warmed (arenas grown to the workload's peak,
// ring buffers and scratch structs at full size), simulating additional
// μops must not allocate at all. The mixed kernel exercises loads, stores,
// branches, violations and flush recovery — every recycling path.
func TestSteadyStateAllocs(t *testing.T) {
	steadyStateAllocs(t, nil)
}

// TestRecorderSteadyStateAllocs extends the zero-allocation contract to a
// recorder with no sinks and no hooks attached — the configuration every
// served job runs under to feed its heartbeats and gauges. Every commit
// feeds its delay histograms and every heartbeat is taken, yet the cycle
// loop must still not allocate.
func TestRecorderSteadyStateAllocs(t *testing.T) {
	steadyStateAllocs(t, func(t *testing.T, pl *pipeline.Pipeline) {
		rec := obs.NewRecorder(0)
		pl.AttachObs(rec)
		t.Cleanup(func() {
			if rec.Intervals() == 0 {
				t.Error("recorder took no heartbeats, want > 0")
			}
		})
	})
}

// TestAuditAllocs: once an audited pipeline is warm, an audit allocates
// nothing — the auditor reuses its scratch, the schedulers' queue
// snapshots included — on every scheduler implementation.
func TestAuditAllocs(t *testing.T) {
	tr := hotLoopTrace(t, "mixed", 20_000)
	for _, arch := range hotLoopArchs {
		t.Run(string(arch), func(t *testing.T) {
			m := config.MustMachine(arch, 8, config.Options{})
			pl, err := pipeline.New(m.Pipeline, tr, m.Factory)
			if err != nil {
				t.Fatal(err)
			}
			a := pl.EnableAudit()
			if _, err := pl.Run(10_000); err != nil {
				t.Fatal(err)
			}
			if pl.Scheduler().Occupancy() == 0 {
				t.Fatal("audited an empty scheduler")
			}
			avg := testing.AllocsPerRun(100, func() {
				if err := a.Check(pl); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Errorf("%s: %.1f allocs per audit on a warm pipeline, want 0", arch, avg)
			}
		})
	}
}

// steadyStateAllocs runs the mixed kernel on every hotLoopArchs entry,
// instrumented by attach when it is non-nil, and requires zero allocations
// per 5k-commit slice once the pipeline is warm.
func steadyStateAllocs(t *testing.T, attach func(*testing.T, *pipeline.Pipeline)) {
	if testing.Short() {
		t.Skip("steady-state warmup is not worth it in -short")
	}
	const totalOps = 400_000
	tr := hotLoopTrace(t, "mixed", totalOps)
	for _, arch := range hotLoopArchs {
		t.Run(string(arch), func(t *testing.T) {
			m := config.MustMachine(arch, 8, config.Options{})
			pl, err := pipeline.New(m.Pipeline, tr, m.Factory)
			if err != nil {
				t.Fatal(err)
			}
			if attach != nil {
				attach(t, pl)
			}
			// Warm every pool and table well past the steady-state water
			// mark before measuring.
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
				t.Errorf("%s: %.1f allocs per 5k-commit slice in steady state, want 0", arch, avg)
			}
		})
	}
}

// BenchmarkHotLoop measures end-to-end simulation throughput per scheduler
// over the tier-1 micro workloads (the bench.DefaultConfigs kernel spread),
// reporting simulated μops per wall-clock second.
func BenchmarkHotLoop(b *testing.B) {
	const ops = 30_000
	wls := []string{"stream", "pointer-chase", "store-load", "branchy"}
	traces := make([][]isa.DynInst, len(wls))
	for i, wl := range wls {
		traces[i] = hotLoopTrace(b, wl, ops)
	}
	for _, arch := range hotLoopArchs {
		b.Run(string(arch), func(b *testing.B) {
			var committed uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, tr := range traces {
					m := config.MustMachine(arch, 8, config.Options{MaxCycles: ops * 100})
					pl, err := pipeline.New(m.Pipeline, tr, m.Factory)
					if err != nil {
						b.Fatal(err)
					}
					st, err := pl.Run(uint64(len(tr)))
					if err != nil {
						b.Fatal(err)
					}
					committed += st.Committed
				}
			}
			b.StopTimer()
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(float64(committed)/s, "uops/sec")
			}
		})
	}
}

// BenchmarkHotLoopSteady isolates the per-cycle cost from construction and
// cold-start: one warmed pipeline per scheduler, timed over commit slices.
func BenchmarkHotLoopSteady(b *testing.B) {
	const totalOps = 4_000_000
	tr := hotLoopTrace(b, "mixed", totalOps)
	for _, arch := range hotLoopArchs {
		b.Run(string(arch), func(b *testing.B) {
			m := config.MustMachine(arch, 8, config.Options{})
			pl, err := pipeline.New(m.Pipeline, tr, m.Factory)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := pl.Run(50_000); err != nil {
				b.Fatal(err)
			}
			target := pl.Stats().Committed
			before := target
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				target += 10_000
				if pl.Stats().Committed+10_000 > totalOps {
					b.StopTimer()
					b.Fatal(fmt.Sprintf("trace exhausted after %d commits; raise totalOps", pl.Stats().Committed))
				}
				if _, err := pl.Run(target); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(float64(pl.Stats().Committed-before)/s, "uops/sec")
			}
		})
	}
}
