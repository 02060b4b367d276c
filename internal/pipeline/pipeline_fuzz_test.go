package pipeline_test

import (
	"bytes"
	"testing"

	"repro/internal/config"
	"repro/internal/faults"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// FuzzPipeline is the native fuzz target behind the CI fuzz smoke: a
// fuzzer-chosen random program runs through a fuzzer-chosen architecture
// and width with the invariant auditor enabled and — for odd seeds — a
// deterministic fault campaign injected. Any invariant violation, deadlock
// or lost μop fails the target. The same trace then runs plainly (no
// auditor, no faults) through the skipping loop and the reference
// stepper, whose digests must match.
func FuzzPipeline(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(2))
	f.Add(uint64(42), uint8(7), uint8(0))
	f.Add(uint64(99999), uint8(5), uint8(3))
	f.Add(uint64(7), uint8(11), uint8(1))
	// FXA 10-wide: a simple μop the full back-end refused enters the IXU
	// on the scheduler's retry timer, which a skip must not jump.
	f.Add(uint64(116), uint8(6), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, archSel, widthSel uint8) {
		archs := config.AllArchs()
		arch := archs[int(archSel)%len(archs)]
		width := []int{2, 4, 8, 10}[int(widthSel)%4]

		w := workload.Random(workload.RandomParams{Seed: seed})
		tr := traceOf(t, w, 1500)
		m, err := config.NewMachine(arch, width, config.Options{MaxCycles: 2_000_000})
		if err != nil {
			t.Fatal(err)
		}
		p, err := pipeline.New(m.Pipeline, tr, m.Factory)
		if err != nil {
			t.Fatal(err)
		}
		p.EnableAudit()
		if seed%2 == 1 {
			inj, err := faults.New(faults.CampaignPlan(seed))
			if err != nil {
				t.Fatal(err)
			}
			p.SetInjector(inj)
		}
		if _, err := p.Run(uint64(len(tr))); err != nil {
			t.Fatalf("seed %d %s %d-wide: %v", seed, arch, width, err)
		}
		if got := p.Stats().Committed; got != uint64(len(tr)) {
			t.Fatalf("seed %d %s %d-wide: committed %d of %d", seed, arch, width, got, len(tr))
		}

		var digests [2][]byte
		for i, stepper := range []bool{true, false} {
			p, err := pipeline.New(m.Pipeline, tr, m.Factory)
			if err != nil {
				t.Fatal(err)
			}
			if stepper {
				pipeline.StepEveryCycle(p)
			}
			if _, err := p.Run(uint64(len(tr))); err != nil {
				t.Fatalf("seed %d %s %d-wide, plain run: %v", seed, arch, width, err)
			}
			digests[i] = goldenDigest(p, arch, "fuzz")
		}
		if !bytes.Equal(digests[0], digests[1]) {
			t.Fatalf("seed %d %s %d-wide: skipping loop diverged from the stepper\n--- stepper ---\n%s--- skipping ---\n%s",
				seed, arch, width, digests[0], digests[1])
		}
	})
}
