package pipeline_test

import (
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/prog"
	"repro/internal/sched"
)

// runProgram simulates a hand-built program on an architecture and returns
// the pipeline plus the committed μops in order.
func runProgram(t *testing.T, arch config.Arch, p *prog.Program, ops int) (*pipeline.Pipeline, []*sched.UOp) {
	t.Helper()
	m := config.MustMachine(arch, 8, config.Options{MaxCycles: 1_000_000})
	tr := prog.MustExecute(p, ops)
	pl, err := pipeline.New(m.Pipeline, tr.Ops, m.Factory)
	if err != nil {
		t.Fatal(err)
	}
	var committed []*sched.UOp
	pl.OnCommit = func(u *sched.UOp) { committed = append(committed, u) }
	if _, err := pl.Run(uint64(len(tr.Ops))); err != nil {
		t.Fatal(err)
	}
	return pl, committed
}

// TestStoreToLoadForwarding: a load reading a just-stored address must
// complete via forwarding (a few cycles), not via the cache-miss path.
func TestStoreToLoadForwarding(t *testing.T) {
	b := prog.NewBuilder("fwd")
	b.MovImm(isa.R(1), 0x40000) // cold line, never loaded directly
	b.MovImm(isa.R(2), 77)
	b.Store(isa.R(2), isa.R(1), 0)
	b.Load(isa.R(3), isa.R(1), 0) // must forward from the SQ
	b.AddImm(isa.R(4), isa.R(3), 1)
	p := b.Build()

	_, committed := runProgram(t, config.ArchOoO, p, 100)
	var ld *sched.UOp
	for _, u := range committed {
		if u.D.IsLoad() {
			ld = u
		}
	}
	if ld == nil {
		t.Fatal("no load committed")
	}
	if lat := ld.CompleteCycle - ld.IssueCycle; lat > 6 {
		t.Errorf("forwarded load latency = %d cycles, want ≤ 6 (cold line would be ≫)", lat)
	}
}

// TestDividerBlocksPort: back-to-back divides on the same port must
// serialise by the unpipelined divider latency.
func TestDividerBlocksPort(t *testing.T) {
	b := prog.NewBuilder("div")
	b.MovImm(isa.R(1), 100)
	b.MovImm(isa.R(2), 3)
	b.MovImm(isa.R(3), 200)
	b.IntDiv(isa.R(4), isa.R(1), isa.R(2)) // independent divides
	b.IntDiv(isa.R(5), isa.R(3), isa.R(2))
	p := b.Build()

	_, committed := runProgram(t, config.ArchOoO, p, 100)
	var divs []*sched.UOp
	for _, u := range committed {
		if u.D.Op == isa.OpIntDiv {
			divs = append(divs, u)
		}
	}
	if len(divs) != 2 {
		t.Fatalf("divides committed = %d", len(divs))
	}
	gap := divs[1].IssueCycle - divs[0].IssueCycle
	if gap < 18 {
		t.Errorf("second divide issued %d cycles after the first, want ≥ 18 (unpipelined)", gap)
	}
}

// TestIndependentALUOpsIssueTogether: four independent adds must issue in
// the same cycle on the four ALU ports of the 8-wide machine.
func TestIndependentALUOpsIssueTogether(t *testing.T) {
	b := prog.NewBuilder("par")
	for i := 1; i <= 4; i++ {
		b.MovImm(isa.R(i), int64(i))
	}
	for i := 1; i <= 4; i++ {
		b.AddImm(isa.R(10+i), isa.R(i), 5)
	}
	p := b.Build()

	_, committed := runProgram(t, config.ArchOoO, p, 100)
	issueCycles := map[uint64]int{}
	for _, u := range committed[4:8] { // the four adds
		issueCycles[u.IssueCycle]++
	}
	best := 0
	for _, n := range issueCycles {
		if n > best {
			best = n
		}
	}
	if best < 4 {
		t.Errorf("max same-cycle issues = %d, want 4 (ALU ports P0,P1,P5,P6)", best)
	}
}

// TestDependentChainIssuesBackToBack: a chain of single-cycle adds must
// issue one per cycle (full bypass), not one per two cycles.
func TestDependentChainIssuesBackToBack(t *testing.T) {
	b := prog.NewBuilder("chain")
	b.MovImm(isa.R(1), 0)
	for i := 0; i < 8; i++ {
		b.AddImm(isa.R(1), isa.R(1), 1)
	}
	p := b.Build()

	_, committed := runProgram(t, config.ArchOoO, p, 100)
	adds := committed[1:9]
	for i := 1; i < len(adds); i++ {
		if adds[i].IssueCycle != adds[i-1].IssueCycle+1 {
			t.Fatalf("chain link %d issued at %d, previous at %d (want back-to-back)",
				i, adds[i].IssueCycle, adds[i-1].IssueCycle)
		}
	}
}

// TestLongLatencyLoadConsumersWait: the consumer of a DRAM-missing load
// must not issue until the load completes.
func TestLongLatencyLoadConsumersWait(t *testing.T) {
	b := prog.NewBuilder("miss")
	b.MovImm(isa.R(1), 0x900000) // never-touched line → DRAM
	b.Load(isa.R(2), isa.R(1), 0)
	b.AddImm(isa.R(3), isa.R(2), 1)
	p := b.Build()

	_, committed := runProgram(t, config.ArchBallerino, p, 100)
	var ld, consumer *sched.UOp
	for _, u := range committed {
		if u.D.IsLoad() {
			ld = u
		}
		if u.D.Op == isa.OpIntALU && u.D.Fn == isa.FnAdd && ld != nil && u.Seq() > ld.Seq() {
			consumer = u
			break
		}
	}
	if ld == nil || consumer == nil {
		t.Fatal("missing load/consumer")
	}
	if ld.CompleteCycle-ld.IssueCycle < 50 {
		t.Fatalf("load latency %d too low for a DRAM miss", ld.CompleteCycle-ld.IssueCycle)
	}
	if consumer.IssueCycle < ld.CompleteCycle {
		t.Errorf("consumer issued at %d before load completed at %d",
			consumer.IssueCycle, ld.CompleteCycle)
	}
}

// TestViolationReplayRetrainsAndForwards: a violating store→load pair must
// flush once, train the MDP, and run violation-free afterwards.
func TestViolationReplayRetrainsAndForwards(t *testing.T) {
	b := prog.NewBuilder("viol")
	// Loop: slow store data (via multiply chain), immediate reload.
	wp, rp, i := isa.R(1), isa.R(2), isa.R(3)
	v, tt, three := isa.R(4), isa.R(5), isa.R(6)
	b.MovImm(wp, 0x10000)
	b.MovImm(rp, 0x10000)
	b.MovImm(i, 1000)
	b.MovImm(three, 3)
	top := b.NewLabel()
	b.Bind(top)
	b.IntMul(tt, i, three)
	b.IntMul(tt, tt, three) // delay the store's data
	b.Store(tt, wp, 0)
	b.Load(v, rp, 0) // would issue before the store without MDP
	b.AddImm(wp, wp, 8)
	b.AddImm(rp, rp, 8)
	b.AddImm(i, i, -1)
	b.Branch(isa.BrNEZ, i, top)
	p := b.Build()

	pl, _ := runProgram(t, config.ArchOoO, p, 6000)
	s := pl.Stats()
	if s.Violations == 0 {
		t.Fatal("no violation ever occurred — kernel not racing")
	}
	if s.Violations > 20 {
		t.Errorf("violations = %d: MDP did not learn the pair", s.Violations)
	}
	if pl.MDP().Stats().LoadWaits == 0 {
		t.Error("MDP never made a load wait")
	}
}

// TestICacheColdStartStallsFetch: the very first fetch misses the L1I and
// the pipeline still makes progress afterwards.
func TestICacheColdStartStallsFetch(t *testing.T) {
	b := prog.NewBuilder("icache")
	b.MovImm(isa.R(1), 1)
	b.AddImm(isa.R(2), isa.R(1), 1)
	p := b.Build()
	pl, committed := runProgram(t, config.ArchOoO, p, 10)
	if len(committed) != 2 {
		t.Fatalf("committed %d", len(committed))
	}
	if pl.Mem().L1I.Stats().Misses == 0 {
		t.Error("no instruction-cache miss on a cold start")
	}
	// The first μop cannot decode before the I-miss returns (DRAM-scale).
	if committed[0].DecodeCycle < 50 {
		t.Errorf("first decode at cycle %d, expected after the I-miss", committed[0].DecodeCycle)
	}
}
