package rename

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func newR(t *testing.T) *Renamer {
	t.Helper()
	r, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func aluOp(dst, s1, s2 isa.Reg) *isa.DynInst {
	return &isa.DynInst{Op: isa.OpIntALU, Dst: dst, Src1: s1, Src2: s2}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if (Config{IntRegs: 64, FpRegs: 168}).Validate() == nil {
		t.Error("IntRegs == arch regs accepted")
	}
	if (Config{IntRegs: 180, FpRegs: 10}).Validate() == nil {
		t.Error("FpRegs < arch regs accepted")
	}
	if _, err := New(Config{IntRegs: 1, FpRegs: 1}); err == nil {
		t.Error("New accepted bad config")
	}
}

func TestInitialMappingsReady(t *testing.T) {
	r := newR(t)
	for a := 0; a < isa.NumIntRegs; a++ {
		p := r.Lookup(isa.R(a))
		if p == PhysNone || !r.Ready(p, 0) {
			t.Fatalf("r%d initial mapping not ready", a)
		}
	}
	p := r.Lookup(isa.F(5))
	if !r.Ready(p, 0) {
		t.Error("f5 initial mapping not ready")
	}
}

func TestRenameCreatesDependency(t *testing.T) {
	r := newR(t)
	// producer: r1 = r2 + r3
	_, dst1, _, ok := r.Rename(aluOp(isa.R(1), isa.R(2), isa.R(3)))
	if !ok {
		t.Fatal("rename failed")
	}
	if r.Ready(dst1, 0) {
		t.Error("fresh destination already ready")
	}
	// consumer: r4 = r1 + r1 must see the new mapping.
	src, _, _, _ := r.Rename(aluOp(isa.R(4), isa.R(1), isa.R(1)))
	if src[0] != dst1 || src[1] != dst1 {
		t.Errorf("consumer sources = %v, want both %d", src, dst1)
	}
	r.SetReadyAt(dst1, 17)
	if r.Ready(dst1, 16) || !r.Ready(dst1, 17) {
		t.Error("ReadyAt semantics wrong")
	}
}

func TestRenameSeparatePools(t *testing.T) {
	r := newR(t)
	_, dint, _, _ := r.Rename(aluOp(isa.R(1), isa.RegNone, isa.RegNone))
	_, dfp, _, _ := r.Rename(aluOp(isa.F(1), isa.RegNone, isa.RegNone))
	if int(dint) >= DefaultConfig().IntRegs {
		t.Errorf("int dest %d allocated from fp pool", dint)
	}
	if int(dfp) < DefaultConfig().IntRegs {
		t.Errorf("fp dest %d allocated from int pool", dfp)
	}
}

func TestFreeListExhaustionStalls(t *testing.T) {
	r := newR(t)
	free := DefaultConfig().IntRegs - isa.NumIntRegs
	for i := 0; i < free; i++ {
		if _, _, _, ok := r.Rename(aluOp(isa.R(1), isa.RegNone, isa.RegNone)); !ok {
			t.Fatalf("rename %d failed early", i)
		}
	}
	if _, _, _, ok := r.Rename(aluOp(isa.R(1), isa.RegNone, isa.RegNone)); ok {
		t.Fatal("rename succeeded with empty free list")
	}
	// A refusal changes nothing; the pipeline charges each stalled cycle.
	if _, stalls := r.Stats(); stalls != 0 {
		t.Errorf("stallsFree = %d after a refusal, want 0", stalls)
	}
	r.NoteStalls(1)
	_, stalls := r.Stats()
	if stalls != 1 {
		t.Errorf("stallsFree = %d", stalls)
	}
	// FP pool unaffected.
	if _, _, _, ok := r.Rename(aluOp(isa.F(1), isa.RegNone, isa.RegNone)); !ok {
		t.Error("fp rename blocked by int exhaustion")
	}
}

func TestCommitFreesOldMapping(t *testing.T) {
	r := newR(t)
	intFree0, _ := r.FreeCount()
	_, _, rec, _ := r.Rename(aluOp(isa.R(1), isa.RegNone, isa.RegNone))
	intFree1, _ := r.FreeCount()
	if intFree1 != intFree0-1 {
		t.Fatalf("free count after rename = %d", intFree1)
	}
	r.Commit(rec)
	intFree2, _ := r.FreeCount()
	if intFree2 != intFree0 {
		t.Errorf("free count after commit = %d, want %d", intFree2, intFree0)
	}
}

func TestSquashRestoresRAT(t *testing.T) {
	r := newR(t)
	before := r.Lookup(isa.R(1))
	_, dst, rec, _ := r.Rename(aluOp(isa.R(1), isa.RegNone, isa.RegNone))
	if r.Lookup(isa.R(1)) != dst {
		t.Fatal("RAT not updated by rename")
	}
	r.Squash(rec)
	if r.Lookup(isa.R(1)) != before {
		t.Error("RAT not restored by squash")
	}
	// Squashed phys must be ready-for-reuse and not leak.
	intFreeAfter, _ := r.FreeCount()
	intFree0 := DefaultConfig().IntRegs - isa.NumIntRegs
	if intFreeAfter != intFree0 {
		t.Errorf("free count after squash = %d, want %d", intFreeAfter, intFree0)
	}
}

func TestSquashStackDiscipline(t *testing.T) {
	// Rename a chain, squash all in reverse order: RAT returns to initial.
	r := newR(t)
	initial := r.Lookup(isa.R(7))
	var recs []Entry
	for i := 0; i < 20; i++ {
		_, _, rec, ok := r.Rename(aluOp(isa.R(7), isa.R(7), isa.RegNone))
		if !ok {
			t.Fatal("rename failed")
		}
		recs = append(recs, rec)
	}
	for i := len(recs) - 1; i >= 0; i-- {
		r.Squash(recs[i])
	}
	if got := r.Lookup(isa.R(7)); got != initial {
		t.Errorf("RAT after full unwind = %d, want %d", got, initial)
	}
}

// TestFreeListConservation is the invariant from DESIGN.md §6: across any
// interleaving of rename/commit/squash, every physical register is either
// free or mapped/in-flight exactly once.
func TestFreeListConservation(t *testing.T) {
	r := newR(t)
	type inflight struct{ rec Entry }
	var pipeline []inflight
	seed := uint64(42)
	rnd := func(n int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int(seed>>33) % n
	}
	for step := 0; step < 5000; step++ {
		switch rnd(3) {
		case 0: // rename
			arch := isa.R(rnd(isa.NumIntRegs))
			if _, _, rec, ok := r.Rename(aluOp(arch, isa.RegNone, isa.RegNone)); ok {
				pipeline = append(pipeline, inflight{rec})
			}
		case 1: // commit oldest
			if len(pipeline) > 0 {
				r.Commit(pipeline[0].rec)
				pipeline = pipeline[1:]
			}
		case 2: // squash youngest
			if len(pipeline) > 0 {
				r.Squash(pipeline[len(pipeline)-1].rec)
				pipeline = pipeline[:len(pipeline)-1]
			}
		}
	}
	// Drain and verify conservation.
	for _, f := range pipeline {
		r.Commit(f.rec)
	}
	intFree, fpFree := r.FreeCount()
	wantInt := DefaultConfig().IntRegs - isa.NumIntRegs
	wantFp := DefaultConfig().FpRegs - isa.NumFpRegs
	if intFree != wantInt || fpFree != wantFp {
		t.Errorf("free counts = (%d,%d), want (%d,%d)", intFree, fpFree, wantInt, wantFp)
	}
}

func TestPSCBSteeringFields(t *testing.T) {
	r := newR(t)
	_, dst, _, _ := r.Rename(aluOp(isa.R(1), isa.RegNone, isa.RegNone))
	if _, _, ok := r.ProducerIQ(dst); ok {
		t.Fatal("fresh register has a producer IQ")
	}
	r.SetProducerIQ(dst, 5)
	iq, reserved, ok := r.ProducerIQ(dst)
	if !ok || iq != 5 || reserved {
		t.Fatalf("ProducerIQ = %d,%v,%v", iq, reserved, ok)
	}
	r.ReserveProducer(dst)
	if _, reserved, _ := r.ProducerIQ(dst); !reserved {
		t.Error("ReserveProducer did not stick")
	}
	// Completion clears steering fields (§IV-C).
	r.SetReadyAt(dst, 10)
	if _, _, ok := r.ProducerIQ(dst); ok {
		t.Error("steering fields survive completion")
	}
}

func TestLoadDepFlag(t *testing.T) {
	r := newR(t)
	_, dst, _, _ := r.Rename(&isa.DynInst{Op: isa.OpLoad, Dst: isa.R(1), Src1: isa.R(2)})
	r.SetLoadDep(dst, true)
	if !r.LoadDep(dst) {
		t.Error("loadDep not set")
	}
	if r.LoadDep(PhysNone) {
		t.Error("PhysNone is load-dependent")
	}
}

func TestPhysNoneAlwaysReady(t *testing.T) {
	r := newR(t)
	f := func(cycle uint64) bool { return r.Ready(PhysNone, cycle) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStoreAndBranchNeedNoDest(t *testing.T) {
	r := newR(t)
	intFree0, fpFree0 := r.FreeCount()
	if _, dst, _, ok := r.Rename(&isa.DynInst{Op: isa.OpStore, Src1: isa.R(1), Src2: isa.R(2)}); !ok || dst != PhysNone {
		t.Error("store rename allocated a register")
	}
	if _, dst, _, ok := r.Rename(&isa.DynInst{Op: isa.OpBranch, Src1: isa.R(1)}); !ok || dst != PhysNone {
		t.Error("branch rename allocated a register")
	}
	intFree1, fpFree1 := r.FreeCount()
	if intFree0 != intFree1 || fpFree0 != fpFree1 {
		t.Error("free lists changed for dest-less μops")
	}
}
