package pipeline_test

import (
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/faults"
	"repro/internal/pipeline"
	"repro/internal/sched"
	"repro/internal/workload"
)

// TestWakeupDifferential drives every scheduler's skip through seeded
// random programs whose dispatches, grants and flushes (memory-order
// violations and a fault plan's flush storms, with latency jitter) come
// in varied sequences, and checks every skipped μop against the consult
// it replaced: select may skip a μop without a consult only while one of
// its register sources is not ready or its predicted store still holds
// it, it may consult a μop only once neither does, and a consulted μop's
// SrcReady must be the one the scoreboard and the store queue give. A
// wakeup that is lost, late or filed under the wrong register or store
// fails here before it moves a digest.
func TestWakeupDifferential(t *testing.T) {
	for _, arch := range config.AllArchs() {
		for _, seed := range []uint64{3, 8, 21, 34, 55} {
			arch, seed := arch, seed
			width := []int{4, 8, 10}[seed%3]
			t.Run(fmt.Sprintf("%s/seed%d", arch, seed), func(t *testing.T) {
				t.Parallel()
				tr := traceOf(t, workload.Random(workload.RandomParams{Seed: seed}), 5_000)
				m := config.MustMachine(arch, width, config.Options{MaxCycles: 2_000_000})
				p, err := pipeline.New(m.Pipeline, tr, m.Factory)
				if err != nil {
					t.Fatal(err)
				}
				inj, err := faults.New(faults.Plan{Seed: seed, JitterMax: 8, FlushEvery: 97 + seed})
				if err != nil {
					t.Fatal(err)
				}
				p.SetInjector(inj)
				bad := 0
				skips, consults := pipeline.CheckWakeups(p, func(u *sched.UOp, why string) {
					if bad++; bad <= 5 {
						t.Errorf("cycle %d seq %d (%v, src %v): %s", p.Cycle(), u.Seq(), u.D.Op, u.Src, why)
					}
				})
				if _, err := p.Run(uint64(len(tr))); err != nil {
					t.Fatal(err)
				}
				if *skips == 0 || *consults == 0 || p.Stats().Flushes == 0 {
					t.Errorf("%d skips, %d consults, %d flushes: the run did not exercise all three", *skips, *consults, p.Stats().Flushes)
				}
			})
		}
	}
}
