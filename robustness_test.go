package ballerino

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/faults"
)

// TestAuditCampaign runs every architecture over every standard kernel
// with the full self-verification stack on: invariant audits at every
// tick, commit-stream checking and the golden-model replay. Any invariant
// violation, deadlock or architectural divergence fails the campaign.
// Each kernel's trace is generated once and shared by all architectures,
// as a RunAll grid shares it.
func TestAuditCampaign(t *testing.T) {
	for _, k := range Kernels() {
		if k.Extra {
			continue
		}
		cfg := Config{Workload: k.Name, MaxOps: 20_000, WarmupOps: 2_000, Audit: true}
		tr, err := PrepareTrace(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Trace = tr
		for _, arch := range Architectures() {
			cfg := cfg
			cfg.Arch = arch
			t.Run(arch+"/"+k.Name, func(t *testing.T) {
				t.Parallel()
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("audited run failed: %v", err)
				}
				if res.AuditChecks == 0 {
					t.Fatal("auditor never ran")
				}
				if res.GoldenOps != 22_000 {
					t.Fatalf("golden model verified %d μops, want 22000", res.GoldenOps)
				}
			})
		}
	}
}

// TestFaultCampaign32Seeds injects 32 deterministic fault campaigns —
// latency jitter, flush storms, dispatch squeezes and fabricated memory
// dependence waits — across rotating architectures and kernels, with the
// auditor and golden model watching. Faults are timing-only, so every run
// must still commit the exact architectural trace; a run may only fail
// with a typed error carrying an autopsy, never a panic (runNoPanic).
func TestFaultCampaign32Seeds(t *testing.T) {
	archs := Architectures()
	kernels := []string{"stream", "hash-join", "pointer-chase", "mixed"}
	for seed := uint64(0); seed < 32; seed++ {
		seed := seed
		plan := faults.CampaignPlan(seed)
		arch := archs[int(seed)%len(archs)]
		wl := kernels[int(seed)%len(kernels)]
		t.Run(fmt.Sprintf("seed%02d_%s_%s", seed, arch, wl), func(t *testing.T) {
			t.Parallel()
			res, err := runNoPanic(t, "fault campaign", Config{
				Arch: arch, Workload: wl, MaxOps: 10_000, Audit: true,
				FaultSpec: plan.String(),
			})
			if err != nil {
				t.Fatalf("plan %s: %v", plan, err)
			}
			if res.GoldenOps != 10_000 {
				t.Fatalf("plan %s: golden model verified %d μops, want 10000", plan, res.GoldenOps)
			}
			injected := uint64(0)
			for _, n := range res.InjectedFaults {
				injected += n
			}
			if injected == 0 {
				t.Fatalf("plan %s: no faults injected", plan)
			}
		})
	}
}
