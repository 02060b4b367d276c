package sched

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/mdp"
	"repro/internal/rename"
)

// mkUOp builds a minimal in-flight μop for scheduler unit tests.
func mkUOp(seq uint64, op isa.Op, port int) *UOp {
	return &UOp{
		D:       &isa.DynInst{Seq: seq, Op: op},
		Dst:     rename.PhysNone,
		Src:     [2]rename.PhysReg{rename.PhysNone, rename.PhysNone},
		Port:    port,
		MDPWait: mdp.NoStore,
		SSID:    -1,
	}
}

// ctxAll grants every Ready consult; readyFn customises readiness.
func ctx(readyFn func(*UOp) bool, granted *[]*UOp) *IssueCtx {
	return &IssueCtx{
		Ready: readyFn,
		Grant: func(u *UOp) { *granted = append(*granted, u) },
	}
}

func always(*UOp) bool { return true }
func never(*UOp) bool  { return false }

func TestInOCapacityAndFIFO(t *testing.T) {
	s := NewInO(4, 8)
	for i := uint64(0); i < 4; i++ {
		if !s.Dispatch(mkUOp(i, isa.OpIntALU, int(i)), 0) {
			t.Fatalf("dispatch %d refused", i)
		}
	}
	if s.Dispatch(mkUOp(9, isa.OpIntALU, 0), 0) {
		t.Fatal("dispatch beyond capacity accepted")
	}
	var granted []*UOp
	s.Issue(1, ctx(always, &granted))
	if len(granted) != 4 {
		t.Fatalf("granted %d, want 4", len(granted))
	}
	for i, u := range granted {
		if u.Seq() != uint64(i) {
			t.Errorf("grant order broken at %d: seq %d", i, u.Seq())
		}
	}
	if s.Occupancy() != 0 {
		t.Errorf("occupancy %d after drain", s.Occupancy())
	}
}

func TestInOStallsOnHead(t *testing.T) {
	s := NewInO(4, 8)
	blocked := mkUOp(0, isa.OpIntALU, 0)
	readyYounger := mkUOp(1, isa.OpIntALU, 1)
	s.Dispatch(blocked, 0)
	s.Dispatch(readyYounger, 0)
	var granted []*UOp
	s.Issue(1, ctx(func(u *UOp) bool { return u != blocked }, &granted))
	if len(granted) != 0 {
		t.Errorf("in-order core bypassed a blocked head: %d grants", len(granted))
	}
}

func TestInOOnePerPort(t *testing.T) {
	s := NewInO(8, 8)
	s.Dispatch(mkUOp(0, isa.OpIntALU, 3), 0)
	s.Dispatch(mkUOp(1, isa.OpIntALU, 3), 0) // same port
	var granted []*UOp
	s.Issue(1, ctx(always, &granted))
	if len(granted) != 1 {
		t.Errorf("granted %d on one port, want 1", len(granted))
	}
}

func TestInOFlush(t *testing.T) {
	s := NewInO(8, 8)
	for i := uint64(0); i < 5; i++ {
		s.Dispatch(mkUOp(i, isa.OpIntALU, int(i)), 0)
	}
	s.Flush(2)
	if s.Occupancy() != 2 {
		t.Errorf("occupancy after flush = %d, want 2", s.Occupancy())
	}
}

func TestOoOOutOfOrderIssue(t *testing.T) {
	s := NewOoO(8, 8, false)
	blocked := mkUOp(0, isa.OpIntALU, 0)
	ready := mkUOp(1, isa.OpIntALU, 1)
	s.Dispatch(blocked, 0)
	s.Dispatch(ready, 0)
	var granted []*UOp
	s.Issue(1, ctx(func(u *UOp) bool { return u != blocked }, &granted))
	if len(granted) != 1 || granted[0] != ready {
		t.Fatalf("OoO did not bypass blocked older op")
	}
	if s.Occupancy() != 1 {
		t.Errorf("occupancy = %d", s.Occupancy())
	}
}

func TestOoOOldestFirstPriority(t *testing.T) {
	// Dispatch in program order, issue seq 1 so slot 0 frees, then
	// dispatch seq 4 into it. With seqs 2 and 4 ready on one port,
	// oldest-first must grant 2; position-first grants slot 0's seq 4.
	grantOf := func(oldestFirst bool) uint64 {
		s := NewOoO(4, 8, oldestFirst)
		for seq := uint64(1); seq <= 3; seq++ {
			s.Dispatch(mkUOp(seq, isa.OpIntALU, int(seq)), 0)
		}
		var granted []*UOp
		s.Issue(1, ctx(func(u *UOp) bool { return u.Seq() == 1 }, &granted))
		if len(granted) != 1 || granted[0].Seq() != 1 {
			t.Fatalf("oldestFirst=%v: first issue granted %d μops, want seq 1", oldestFirst, len(granted))
		}
		s.Dispatch(mkUOp(4, isa.OpIntALU, 2), 0)
		granted = nil
		s.Issue(2, ctx(func(u *UOp) bool { return u.Seq() != 3 }, &granted))
		if len(granted) != 1 {
			t.Fatalf("oldestFirst=%v: granted %d on one port, want 1", oldestFirst, len(granted))
		}
		return granted[0].Seq()
	}
	if got := grantOf(true); got != 2 {
		t.Errorf("oldest-first granted seq %d, want 2", got)
	}
	if got := grantOf(false); got != 4 {
		t.Errorf("position-first granted seq %d, want 4 (slot order)", got)
	}
}

func TestOoOWakeupEnergyScalesWithEntries(t *testing.T) {
	small := NewOoO(16, 8, false)
	big := NewOoO(96, 8, false)
	small.Complete(rename.PhysReg(3), 0)
	big.Complete(rename.PhysReg(3), 0)
	if small.Energy().WakeupCompares >= big.Energy().WakeupCompares {
		t.Error("CAM compare energy does not scale with queue size")
	}
	small.Complete(rename.PhysNone, 0)
	if small.Energy().WakeupBroadcasts != 1 {
		t.Error("PhysNone completion broadcast counted")
	}
}

func TestOoOFlushFreesSlots(t *testing.T) {
	s := NewOoO(4, 8, false)
	for i := uint64(0); i < 4; i++ {
		s.Dispatch(mkUOp(i, isa.OpIntALU, int(i)), 0)
	}
	s.Flush(2)
	if s.Occupancy() != 2 {
		t.Fatalf("occupancy = %d, want 2", s.Occupancy())
	}
	if !s.Dispatch(mkUOp(9, isa.OpIntALU, 0), 0) {
		t.Error("dispatch refused after flush")
	}
}

func TestCASINOPassesNonReadyDownstream(t *testing.T) {
	s := NewCASINO([]int{4, 8, 4}, 2, 2, 8)
	// Two non-ready ops: examined in S-IQ0's window, they must migrate
	// toward the final queue over successive cycles.
	s.Dispatch(mkUOp(0, isa.OpIntALU, 0), 0)
	s.Dispatch(mkUOp(1, isa.OpIntALU, 1), 0)
	var granted []*UOp
	for c := uint64(0); c < 3; c++ {
		s.Issue(c, ctx(never, &granted))
	}
	if len(granted) != 0 {
		t.Fatal("non-ready ops issued")
	}
	if got := s.Counters()["passed"]; got < 2 {
		t.Errorf("passed = %d, want ≥ 2 migrations", got)
	}
	// Once ready, the ops issue from wherever they are, oldest first.
	s.Issue(5, ctx(always, &granted))
	if len(granted) != 2 || granted[0].Seq() != 0 {
		t.Errorf("grants after readiness: %d (first seq %d)", len(granted), granted[0].Seq())
	}
}

func TestCASINOSpeculativeIssueSkipsOlderNonReady(t *testing.T) {
	s := NewCASINO([]int{4, 8}, 2, 2, 8)
	blocked := mkUOp(0, isa.OpIntALU, 0)
	ready := mkUOp(1, isa.OpIntALU, 1)
	s.Dispatch(blocked, 0)
	s.Dispatch(ready, 0)
	var granted []*UOp
	s.Issue(1, ctx(func(u *UOp) bool { return u != blocked }, &granted))
	if len(granted) != 1 || granted[0] != ready {
		t.Fatal("S-IQ did not speculatively issue the younger ready op")
	}
}

func TestCASINOFinalQueueInOrder(t *testing.T) {
	s := NewCASINO([]int{2, 2}, 2, 2, 8)
	blocked := mkUOp(0, isa.OpIntALU, 0)
	younger := mkUOp(1, isa.OpIntALU, 1)
	s.Dispatch(blocked, 0)
	s.Dispatch(younger, 0)
	// Push both into the final queue.
	var granted []*UOp
	for c := uint64(0); c < 4; c++ {
		s.Issue(c, ctx(never, &granted))
	}
	// blocked is at the final queue head; the younger ready op behind it
	// must NOT issue (strict program order there).
	s.Issue(9, ctx(func(u *UOp) bool { return u != blocked }, &granted))
	if len(granted) != 0 {
		t.Error("final in-order queue issued out of order")
	}
}

func TestCASINODispatchStallsWhenFirstQueueFull(t *testing.T) {
	s := NewCASINO([]int{2, 2}, 2, 2, 8)
	s.Dispatch(mkUOp(0, isa.OpIntALU, 0), 0)
	s.Dispatch(mkUOp(1, isa.OpIntALU, 0), 0)
	if s.Dispatch(mkUOp(2, isa.OpIntALU, 0), 0) {
		t.Error("dispatch into full S-IQ0 accepted")
	}
}

func TestFXACapturesReadyALUOps(t *testing.T) {
	s := NewFXA(16, 8)
	u := mkUOp(0, isa.OpIntALU, 0) // PhysNone sources: ready immediately
	if !s.Dispatch(u, 10) {
		t.Fatal("dispatch refused")
	}
	if s.Counters()["ixu_execs"] != 1 {
		t.Fatal("ready ALU op not captured by the IXU")
	}
	var granted []*UOp
	s.Issue(11, ctx(always, &granted))
	if len(granted) != 1 {
		t.Fatalf("IXU op not executed at its slot: %d grants", len(granted))
	}
}

func TestFXASendsLoadsToBackend(t *testing.T) {
	s := NewFXA(16, 8)
	s.Dispatch(mkUOp(0, isa.OpLoad, 2), 0)
	if s.Counters()["backend_execs"] != 1 {
		t.Error("load not routed to the back-end IQ")
	}
}

func TestFXASendsNonReadyToBackend(t *testing.T) {
	s := NewFXA(16, 8)
	u := mkUOp(1, isa.OpIntALU, 0)
	u.SrcReady = rename.NeverReady // a producer has not issued
	s.Dispatch(u, 0)
	if s.Counters()["backend_execs"] != 1 {
		t.Error("non-ready ALU op captured by the IXU")
	}
}

func TestFXAFlush(t *testing.T) {
	s := NewFXA(16, 8)
	s.Dispatch(mkUOp(0, isa.OpIntALU, 0), 0)
	s.Dispatch(mkUOp(1, isa.OpLoad, 2), 0)
	s.Flush(0)
	if s.Occupancy() != 0 {
		t.Errorf("occupancy after flush = %d", s.Occupancy())
	}
}

func TestCESSteersConsumerBehindProducer(t *testing.T) {
	rn := rename.MustNew(rename.DefaultConfig())
	m := mdp.New(mdp.DefaultConfig())
	s := NewCES(4, 8, 8, rn, m, false)

	// Producer writes a fresh physical register.
	_, dst, _, _ := rn.Rename(&isa.DynInst{Op: isa.OpIntALU, Dst: isa.R(1)})
	prod := mkUOp(0, isa.OpIntALU, 0)
	prod.Dst = dst
	if !s.Dispatch(prod, 0) {
		t.Fatal("producer dispatch failed")
	}
	cons := mkUOp(1, isa.OpIntALU, 1)
	cons.Src[0] = dst
	if !s.Dispatch(cons, 0) {
		t.Fatal("consumer dispatch failed")
	}
	c := s.Counters()
	if c["steer_dc"] != 1 {
		t.Errorf("steer_dc = %d, want 1 (consumer follows producer)", c["steer_dc"])
	}
	// Only the producer is at a head; the consumer is behind it.
	var granted []*UOp
	s.Issue(1, ctx(always, &granted))
	if len(granted) != 1 || granted[0] != prod {
		t.Fatalf("expected only the producer at a P-IQ head")
	}
}

func TestCESChainSplitAllocatesNewQueue(t *testing.T) {
	rn := rename.MustNew(rename.DefaultConfig())
	m := mdp.New(mdp.DefaultConfig())
	s := NewCES(4, 8, 8, rn, m, false)
	_, dst, _, _ := rn.Rename(&isa.DynInst{Op: isa.OpIntALU, Dst: isa.R(1)})
	prod := mkUOp(0, isa.OpIntALU, 0)
	prod.Dst = dst
	s.Dispatch(prod, 0)
	c1 := mkUOp(1, isa.OpIntALU, 1)
	c1.Src[0] = dst
	s.Dispatch(c1, 0)
	c2 := mkUOp(2, isa.OpIntALU, 2) // second consumer → chain split
	c2.Src[0] = dst
	s.Dispatch(c2, 0)
	c := s.Counters()
	if c["steer_dc"] != 1 {
		t.Errorf("steer_dc = %d, want 1", c["steer_dc"])
	}
	if c["alloc_ready"]+c["alloc_nonready"] != 2 { // producer + split consumer
		t.Errorf("allocations = %d, want 2", c["alloc_ready"]+c["alloc_nonready"])
	}
}

func TestCESStallsWhenNoQueueFree(t *testing.T) {
	rn := rename.MustNew(rename.DefaultConfig())
	m := mdp.New(mdp.DefaultConfig())
	s := NewCES(2, 4, 8, rn, m, false)
	// Two independent ops occupy both queues; a third independent op stalls.
	s.Dispatch(mkUOp(0, isa.OpIntALU, 0), 0)
	s.Dispatch(mkUOp(1, isa.OpIntALU, 1), 0)
	if s.Dispatch(mkUOp(2, isa.OpIntALU, 2), 0) {
		t.Fatal("dispatch succeeded with no free P-IQ")
	}
	s.Tick(1) // the stall is a per-cycle charge: it lands when the cycle closes
	c := s.Counters()
	if c["stall_ready"]+c["stall_nonready"] != 1 {
		t.Errorf("stalls = %d, want 1", c["stall_ready"]+c["stall_nonready"])
	}
}

func TestCESMDASteersLoadBehindStore(t *testing.T) {
	rn := rename.MustNew(rename.DefaultConfig())
	m := mdp.New(mdp.DefaultConfig())
	s := NewCES(4, 8, 8, rn, m, true)

	// Train the pair, then dispatch store and load as the pipeline would.
	m.TrainViolation(100, 200)
	st := mkUOp(0, isa.OpStore, 2)
	st.MDPWait, st.SSID = m.StoreDispatched(100, 0, mdp.NoIQ)
	s.Dispatch(st, 0)
	ld := mkUOp(1, isa.OpLoad, 3)
	ld.MDPWait, ld.SSID = m.LoadDispatched(200)
	s.Dispatch(ld, 0)
	if s.Counters()["steer_m"] != 1 {
		t.Errorf("steer_m = %d, want 1 (load follows store)", s.Counters()["steer_m"])
	}
	// The load must sit behind the store in the same queue: only the
	// store is at a head.
	var granted []*UOp
	s.Issue(1, ctx(always, &granted))
	if len(granted) != 1 || granted[0] != st {
		t.Fatal("MDA steering did not place the load behind its store")
	}
}
