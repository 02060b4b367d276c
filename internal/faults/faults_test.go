package faults_test

import (
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/isa"
	"repro/internal/sched"
)

func TestParseRoundTrip(t *testing.T) {
	spec := "seed=7,jitter=8,flush=2000,squeeze=50,mdp=100"
	p, err := faults.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := faults.Plan{Seed: 7, JitterMax: 8, FlushEvery: 2000, SqueezeMilli: 50, MDPMilli: 100}
	if p != want {
		t.Fatalf("Parse(%q) = %+v, want %+v", spec, p, want)
	}
	if p.String() != spec {
		t.Fatalf("String() = %q, want %q", p.String(), spec)
	}
	back, err := faults.Parse(p.String())
	if err != nil || back != p {
		t.Fatalf("round trip: %+v, %v", back, err)
	}
}

func TestParseEmptyAndPartial(t *testing.T) {
	p, err := faults.Parse("")
	if err != nil || p.Active() {
		t.Fatalf("empty spec: %+v, %v", p, err)
	}
	p, err = faults.Parse(" jitter=4 ")
	if err != nil || p.JitterMax != 4 || !p.Active() {
		t.Fatalf("partial spec: %+v, %v", p, err)
	}
}

func TestParseRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"jitter",         // no value
		"jitter=x",       // non-numeric
		"warp=9",         // unknown knob
		"squeeze=1000",   // would veto every dispatch
		"mdp=1001",       // not a probability
		"jitter=2000000", // absurd latency
		"seed=-1",        // negative
	} {
		if _, err := faults.Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
}

func TestDeterminism(t *testing.T) {
	plan := faults.Plan{Seed: 11, JitterMax: 9, FlushEvery: 100, SqueezeMilli: 200, MDPMilli: 300}
	mk := func() (*faults.Injector, []uint64) {
		in, err := faults.New(plan)
		if err != nil {
			t.Fatal(err)
		}
		u := &sched.UOp{D: &isa.DynInst{Op: isa.OpLoad}}
		var seq []uint64
		for c := uint64(0); c < 500; c++ {
			seq = append(seq, in.ExtraLatency(u, c))
			if in.StallDispatch(c) {
				seq = append(seq, ^uint64(0))
			}
			if in.ForceMDPWait(u, c) {
				seq = append(seq, ^uint64(1))
			}
		}
		return in, seq
	}
	a, sa := mk()
	b, sb := mk()
	if len(sa) != len(sb) {
		t.Fatalf("stream lengths differ: %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("streams diverge at %d", i)
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverge: %+v vs %+v", a.Stats(), b.Stats())
	}
	other, _ := faults.New(faults.Plan{Seed: 12, JitterMax: 9})
	u := &sched.UOp{D: &isa.DynInst{Op: isa.OpLoad}}
	diff := false
	for c := uint64(0); c < 64; c++ {
		if other.ExtraLatency(u, c) != sa[0] {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different seeds produced an identical prefix")
	}
}

func TestFlushCadence(t *testing.T) {
	in, err := faults.New(faults.Plan{Seed: 1, FlushEvery: 250})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for c := uint64(0); c < 1000; c++ {
		if in.FlushNow(c) {
			n++
		}
	}
	if n != 3 { // cycles 250, 500, 750 (cycle 0 excluded)
		t.Fatalf("got %d flushes in 1000 cycles at FlushEvery=250, want 3", n)
	}
	if in.Stats().Flushes != 3 {
		t.Fatalf("Stats().Flushes = %d", in.Stats().Flushes)
	}
}

func TestCampaignPlansAreValidAndVaried(t *testing.T) {
	seen := map[string]bool{}
	for seed := uint64(0); seed < 32; seed++ {
		p := faults.CampaignPlan(seed)
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !p.Active() {
			t.Fatalf("seed %d: inactive plan", seed)
		}
		if p.Seed != seed {
			t.Fatalf("seed %d: plan has seed %d", seed, p.Seed)
		}
		_, mix, _ := strings.Cut(p.String(), ",") // drop the seed field
		seen[mix] = true
	}
	if len(seen) < 16 {
		t.Fatalf("only %d distinct fault mixes across 32 seeds", len(seen))
	}
}
