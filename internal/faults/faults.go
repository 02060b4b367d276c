// Package faults is the deterministic fault-injection harness for the
// robustness test campaigns: it perturbs the simulated machine with
// adversarial — but architecturally legal — events and lets the invariant
// auditor (internal/check) and the golden-model cross-check prove the
// pipeline's bookkeeping survives them.
//
// Every injected fault is timing-only, so a faulted run must still commit
// the exact architectural trace:
//
//   - Latency jitter: extra completion cycles on granted μops, stressing
//     wakeup ordering and the completion event map.
//   - Flush storms: periodic mid-ROB pipeline flushes, stressing rename
//     recovery, LFST/LSQ cleanup and refetch. The flush bound is always
//     younger than the ROB head, preserving forward progress.
//   - Dispatch squeezes: random dispatch vetoes, stressing queue-pressure
//     corner cases (full windows, stalled rename).
//   - MDP storms: fabricated memory-dependence waits on the youngest
//     unissued store, stressing the cross-queue wait machinery. The target
//     is always strictly older than the waiter, so no wait cycle can form.
//
// All randomness comes from a splitmix64 stream seeded by Plan.Seed: the
// same plan over the same workload injects the identical fault sequence.
package faults

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sched"
)

// Plan describes one fault-injection campaign. The zero value injects
// nothing.
type Plan struct {
	// Seed seeds the deterministic fault stream.
	Seed uint64
	// JitterMax adds 0..JitterMax extra completion cycles to every granted
	// μop (0 = off).
	JitterMax uint64
	// FlushEvery triggers a mid-ROB flush every FlushEvery cycles (0 = off).
	FlushEvery uint64
	// SqueezeMilli vetoes dispatch with probability SqueezeMilli/1000 per
	// cycle (0 = off). Must stay below 1000: a certain veto would stop
	// dispatch forever.
	SqueezeMilli uint64
	// MDPMilli fabricates a memory-dependence wait on a dispatching memory
	// μop with probability MDPMilli/1000 (0 = off).
	MDPMilli uint64
}

// Validate reports plan errors, including knob settings that would destroy
// liveness rather than merely stress it.
func (p Plan) Validate() error {
	if p.SqueezeMilli >= 1000 {
		return fmt.Errorf("faults: squeeze=%d would veto every dispatch (must be < 1000)", p.SqueezeMilli)
	}
	if p.MDPMilli > 1000 {
		return fmt.Errorf("faults: mdp=%d is not a per-mille probability (must be ≤ 1000)", p.MDPMilli)
	}
	if p.JitterMax > 1_000_000 {
		return fmt.Errorf("faults: jitter=%d cycles is beyond any plausible latency", p.JitterMax)
	}
	return nil
}

// Active reports whether the plan injects any fault at all.
func (p Plan) Active() bool {
	return p.JitterMax > 0 || p.FlushEvery > 0 || p.SqueezeMilli > 0 || p.MDPMilli > 0
}

func (p Plan) String() string {
	return fmt.Sprintf("seed=%d,jitter=%d,flush=%d,squeeze=%d,mdp=%d",
		p.Seed, p.JitterMax, p.FlushEvery, p.SqueezeMilli, p.MDPMilli)
}

// Parse builds a Plan from a comma-separated spec like
// "seed=1,jitter=8,flush=2000,squeeze=50,mdp=100". Every key is optional;
// unknown keys are errors.
func Parse(spec string) (Plan, error) {
	var p Plan
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return p, nil
	}
	for _, field := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return Plan{}, fmt.Errorf("faults: bad field %q (want key=value)", field)
		}
		n, err := strconv.ParseUint(strings.TrimSpace(val), 10, 64)
		if err != nil {
			return Plan{}, fmt.Errorf("faults: bad value in %q: %v", field, err)
		}
		switch strings.TrimSpace(key) {
		case "seed":
			p.Seed = n
		case "jitter":
			p.JitterMax = n
		case "flush":
			p.FlushEvery = n
		case "squeeze":
			p.SqueezeMilli = n
		case "mdp":
			p.MDPMilli = n
		default:
			return Plan{}, fmt.Errorf("faults: unknown knob %q (valid: seed, jitter, flush, squeeze, mdp)", key)
		}
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// CampaignPlan derives the fault mix for one seed of the standard
// robustness campaign: every knob active at moderate intensity, with the
// magnitudes varied deterministically per seed so a 32-seed sweep covers a
// spread of fault densities.
func CampaignPlan(seed uint64) Plan {
	r := rng{state: seed*0x9e3779b97f4a7c15 + 1}
	return Plan{
		Seed:         seed,
		JitterMax:    1 + r.below(16),     // 1..16 extra cycles
		FlushEvery:   500 + r.below(4000), // one storm per 500..4499 cycles
		SqueezeMilli: 10 + r.below(140),   // 1%..15% dispatch vetoes
		MDPMilli:     10 + r.below(190),   // 1%..20% fabricated waits
	}
}

// Stats counts the faults actually injected.
type Stats struct {
	JitterCycles uint64 // total extra latency cycles added
	JitteredOps  uint64 // grants that received extra latency
	Flushes      uint64 // injected mid-ROB flushes
	Squeezes     uint64 // vetoed dispatch cycles
	MDPWaits     uint64 // fabricated memory-dependence waits
}

// Injector implements pipeline.Injector: the pipeline consults it at grant,
// dispatch, rename and once per cycle. Call sites are visited in a fixed
// per-cycle order, so one seed yields one fault sequence.
type Injector struct {
	plan  Plan
	r     rng
	stats Stats
}

// New builds an injector for a validated plan.
func New(plan Plan) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return &Injector{plan: plan, r: rng{state: plan.Seed ^ 0x6a09e667f3bcc909}}, nil
}

// Plan returns the injector's plan.
func (in *Injector) Plan() Plan { return in.plan }

// Stats returns the injected-fault counters.
func (in *Injector) Stats() Stats { return in.stats }

// ExtraLatency returns extra completion cycles for a μop granted this
// cycle.
func (in *Injector) ExtraLatency(u *sched.UOp, cycle uint64) uint64 {
	if in.plan.JitterMax == 0 {
		return 0
	}
	extra := in.r.below(in.plan.JitterMax + 1)
	if extra > 0 {
		in.stats.JitteredOps++
		in.stats.JitterCycles += extra
	}
	return extra
}

// FlushNow reports whether the pipeline should inject a mid-ROB flush this
// cycle. The pipeline picks the bound (always younger than the ROB head).
func (in *Injector) FlushNow(cycle uint64) bool {
	if in.plan.FlushEvery == 0 || cycle == 0 || cycle%in.plan.FlushEvery != 0 {
		return false
	}
	in.stats.Flushes++
	return true
}

// StallDispatch reports whether to veto all dispatch this cycle.
func (in *Injector) StallDispatch(cycle uint64) bool {
	if in.plan.SqueezeMilli == 0 || in.r.below(1000) >= in.plan.SqueezeMilli {
		return false
	}
	in.stats.Squeezes++
	return true
}

// ForceMDPWait reports whether to fabricate a memory-dependence wait for a
// memory μop being renamed. The pipeline targets the youngest unissued
// store — strictly older than u — so fabricated waits cannot form cycles.
func (in *Injector) ForceMDPWait(u *sched.UOp, cycle uint64) bool {
	if in.plan.MDPMilli == 0 || in.r.below(1000) >= in.plan.MDPMilli {
		return false
	}
	in.stats.MDPWaits++
	return true
}

// rng is a splitmix64 stream: tiny, fast, and reproducible everywhere.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// below returns a value in [0, n). n must be positive.
func (r *rng) below(n uint64) uint64 { return r.next() % n }
