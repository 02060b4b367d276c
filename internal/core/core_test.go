package core

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/mdp"
	"repro/internal/rename"
	"repro/internal/sched"
)

func testConfig(opt Options) Config {
	return Config{
		SIQSize:   8,
		SIQWindow: 4,
		NumPIQs:   3,
		PIQDepth:  4,
		Width:     8,
		Options:   opt,
	}
}

func harness(t *testing.T, opt Options) (*Ballerino, *rename.Renamer, *mdp.MDP) {
	t.Helper()
	rn := rename.MustNew(rename.DefaultConfig())
	m := mdp.New(mdp.DefaultConfig())
	return New(testConfig(opt), rn, m), rn, m
}

func mkUOp(seq uint64, op isa.Op, port int) *sched.UOp {
	return &sched.UOp{
		D:       &isa.DynInst{Seq: seq, Op: op},
		Dst:     rename.PhysNone,
		Src:     [2]rename.PhysReg{rename.PhysNone, rename.PhysNone},
		Port:    port,
		MDPWait: mdp.NoStore,
		SSID:    -1,
	}
}

func issueCtx(readyFn func(*sched.UOp) bool, granted *[]*sched.UOp) *sched.IssueCtx {
	return &sched.IssueCtx{
		Ready: readyFn,
		Grant: func(u *sched.UOp) { *granted = append(*granted, u) },
	}
}

func always(*sched.UOp) bool { return true }
func never(*sched.UOp) bool  { return false }

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad config accepted")
		}
	}()
	New(Config{}, nil, nil)
}

func TestReadyOpsIssueSpeculativelyFromSIQ(t *testing.T) {
	b, _, _ := harness(t, Options{})
	for i := uint64(0); i < 4; i++ {
		if !b.Dispatch(mkUOp(i, isa.OpIntALU, int(i)), 0) {
			t.Fatalf("dispatch %d refused", i)
		}
	}
	var granted []*sched.UOp
	b.Issue(1, issueCtx(always, &granted))
	if len(granted) != 4 {
		t.Fatalf("granted %d of 4 ready μops", len(granted))
	}
	if b.Counters()["issued_siq"] != 4 {
		t.Error("speculative issues not attributed to the S-IQ")
	}
	if b.Occupancy() != 0 {
		t.Errorf("occupancy = %d", b.Occupancy())
	}
}

func TestNonReadyOpsSteerToPIQs(t *testing.T) {
	b, _, _ := harness(t, Options{})
	b.Dispatch(mkUOp(0, isa.OpIntALU, 0), 0)
	var granted []*sched.UOp
	b.Issue(1, issueCtx(never, &granted))
	if len(granted) != 0 {
		t.Fatal("non-ready op issued")
	}
	if b.Counters()["alloc_empty"] != 1 {
		t.Error("non-ready op not steered to an empty P-IQ")
	}
	// Once ready, it issues from the P-IQ head.
	b.Issue(2, issueCtx(always, &granted))
	if len(granted) != 1 || b.Counters()["issued_piq"] != 1 {
		t.Error("steered op did not issue from its P-IQ head")
	}
}

func TestConsumerFollowsProducerIntoPIQ(t *testing.T) {
	b, rn, _ := harness(t, Options{})
	_, dst, _, _ := rn.Rename(&isa.DynInst{Op: isa.OpIntALU, Dst: isa.R(1)})
	prod := mkUOp(0, isa.OpIntALU, 0)
	prod.Dst = dst
	cons := mkUOp(1, isa.OpIntALU, 1)
	cons.Src[0] = dst
	b.Dispatch(prod, 0)
	b.Dispatch(cons, 0)
	var granted []*sched.UOp
	b.Issue(1, issueCtx(never, &granted))
	c := b.Counters()
	if c["alloc_empty"] != 1 || c["steer_dc"] != 1 {
		t.Errorf("steering outcome: alloc=%d steer_dc=%d, want 1/1",
			c["alloc_empty"], c["steer_dc"])
	}
	// Heads: only the producer is visible.
	granted = nil
	b.Issue(2, issueCtx(always, &granted))
	if len(granted) != 1 || granted[0] != prod {
		t.Fatal("producer not the only P-IQ head")
	}
	// Next cycle the consumer pops to the head.
	granted = nil
	b.Issue(3, issueCtx(always, &granted))
	if len(granted) != 1 || granted[0] != cons {
		t.Fatal("consumer did not reach the head after producer issued")
	}
}

func TestSteeringStallBlocksWindow(t *testing.T) {
	b, _, _ := harness(t, Options{}) // 3 P-IQs, no sharing
	// Four independent non-ready ops: three take the P-IQs, the fourth
	// stalls the window.
	for i := uint64(0); i < 4; i++ {
		b.Dispatch(mkUOp(i, isa.OpIntALU, int(i)), 0)
	}
	var granted []*sched.UOp
	b.Issue(1, issueCtx(never, &granted))
	b.Tick(1) // the steering stall is a per-cycle charge: it lands when the cycle closes
	c := b.Counters()
	if c["alloc_empty"] != 3 {
		t.Errorf("alloc_empty = %d, want 3", c["alloc_empty"])
	}
	if c["steer_stalls"] != 1 {
		t.Errorf("steer_stalls = %d, want 1", c["steer_stalls"])
	}
	if b.Occupancy() != 4 {
		t.Errorf("occupancy = %d, want 4 (1 stuck in S-IQ)", b.Occupancy())
	}
}

func TestSharingActivatesUnderPressure(t *testing.T) {
	b, _, _ := harness(t, Options{Sharing: true})
	// Fill the three P-IQs with stalled chains, then add one more chain:
	// sharing must open a partition instead of stalling.
	for i := uint64(0); i < 4; i++ {
		b.Dispatch(mkUOp(i, isa.OpIntALU, int(i)), 0)
	}
	var granted []*sched.UOp
	b.Issue(1, issueCtx(never, &granted))
	c := b.Counters()
	if c["alloc_shared"] != 1 || c["share_activates"] != 1 {
		t.Errorf("sharing not used: %+v", c)
	}
	if c["steer_stalls"] != 0 {
		t.Errorf("steer stalled despite sharing: %d", c["steer_stalls"])
	}
}

func TestSharingSkipsActivelyIssuingQueues(t *testing.T) {
	b, _, _ := harness(t, Options{Sharing: true})
	// One chain that issues every cycle (marks lastIssued), two stalled.
	busy := mkUOp(0, isa.OpIntALU, 0)
	b.Dispatch(busy, 0)
	var granted []*sched.UOp
	b.Issue(1, issueCtx(never, &granted)) // busy steered to P-IQ 0
	b.Dispatch(mkUOp(1, isa.OpIntALU, 1), 1)
	b.Dispatch(mkUOp(2, isa.OpIntALU, 2), 1)
	// busy issues this cycle; the two others steer to queues 1 and 2.
	b.Issue(2, issueCtx(func(u *sched.UOp) bool { return u == busy }, &granted))
	if len(granted) != 1 {
		t.Fatalf("busy chain did not issue")
	}
	if b.Counters()["alloc_empty"] != 3 {
		t.Fatalf("setup wrong: alloc_empty=%d", b.Counters()["alloc_empty"])
	}
}

func TestMDASteeringFollowsLFST(t *testing.T) {
	b, _, m := harness(t, Options{MDASteering: true})
	m.TrainViolation(100, 200)

	st := mkUOp(0, isa.OpStore, 2)
	st.MDPWait, st.SSID = m.StoreDispatched(100, 0, mdp.NoIQ)
	b.Dispatch(st, 0)
	ld := mkUOp(1, isa.OpLoad, 3)
	ld.MDPWait, ld.SSID = m.LoadDispatched(200)
	b.Dispatch(ld, 0)

	var granted []*sched.UOp
	b.Issue(1, issueCtx(never, &granted)) // both steered
	if b.Counters()["steer_m"] != 1 {
		t.Errorf("steer_m = %d, want 1", b.Counters()["steer_m"])
	}
	// The store is the only P-IQ head (the load queued behind it).
	granted = nil
	b.Issue(2, issueCtx(always, &granted))
	if len(granted) != 1 || granted[0] != st {
		t.Fatal("load not behind its producer store")
	}
}

func TestFlushClearsEverything(t *testing.T) {
	b, _, _ := harness(t, Options{Sharing: true})
	for i := uint64(0); i < 6; i++ {
		b.Dispatch(mkUOp(i, isa.OpIntALU, int(i%8)), 0)
	}
	var granted []*sched.UOp
	b.Issue(1, issueCtx(never, &granted)) // distribute into P-IQs
	b.Flush(2)
	if occ := b.Occupancy(); occ != 2 {
		t.Errorf("occupancy after flush = %d, want 2", occ)
	}
	b.Flush(0)
	if b.Occupancy() != 0 {
		t.Error("flush(0) left residue")
	}
}

func TestSIQCapacityBackpressure(t *testing.T) {
	b, _, _ := harness(t, Options{})
	for i := uint64(0); i < 8; i++ {
		if !b.Dispatch(mkUOp(i, isa.OpIntALU, 0), 0) {
			t.Fatalf("dispatch %d refused below capacity", i)
		}
	}
	if b.Dispatch(mkUOp(9, isa.OpIntALU, 0), 0) {
		t.Error("dispatch into full S-IQ accepted")
	}
}

func TestOnlyOneGrantPerPort(t *testing.T) {
	b, _, _ := harness(t, Options{})
	// Two ready ops on the same port in the S-IQ window.
	b.Dispatch(mkUOp(0, isa.OpIntALU, 5), 0)
	b.Dispatch(mkUOp(1, isa.OpIntALU, 5), 0)
	var granted []*sched.UOp
	b.Issue(1, issueCtx(always, &granted))
	if len(granted) != 1 {
		t.Fatalf("granted %d on one port", len(granted))
	}
	// The port-conflicted ready op is steered (§IV-C case 3).
	if b.Counters()["alloc_empty"] != 1 {
		t.Error("case-3 steering did not happen")
	}
}

func TestCapacityAndName(t *testing.T) {
	b, _, _ := harness(t, Options{Sharing: true, MDASteering: true})
	if b.Capacity() != 8+3*4 {
		t.Errorf("capacity = %d", b.Capacity())
	}
	if b.Name() != "Ballerino" {
		t.Errorf("name = %q", b.Name())
	}
	v, _, _ := harness(t, Options{})
	if v.Name() != "Ballerino-step1" {
		t.Errorf("step1 name = %q", v.Name())
	}
	v2, _, _ := harness(t, Options{MDASteering: true})
	if v2.Name() != "Ballerino-step2" {
		t.Errorf("step2 name = %q", v2.Name())
	}
	v3, _, _ := harness(t, Options{IdealSharing: true})
	if v3.Name() != "Ballerino-ideal" {
		t.Errorf("ideal name = %q", v3.Name())
	}
}

func TestSIQFirstSelectOption(t *testing.T) {
	b, _, _ := harness(t, Options{SIQFirstSelect: true})
	// A ready S-IQ op and a ready P-IQ head compete for the same port:
	// with inverted priority the S-IQ op wins.
	headOp := mkUOp(0, isa.OpIntALU, 2)
	b.Dispatch(headOp, 0)
	var granted []*sched.UOp
	b.Issue(1, issueCtx(never, &granted)) // steer headOp into a P-IQ
	siqOp := mkUOp(1, isa.OpIntALU, 2)
	b.Dispatch(siqOp, 1)
	granted = nil
	b.Issue(2, issueCtx(always, &granted))
	if len(granted) != 1 || granted[0] != siqOp {
		t.Fatalf("SIQFirstSelect: granted %v, want the S-IQ op", granted)
	}
	// Default priority grants the (older) P-IQ head instead.
	d, _, _ := harness(t, Options{})
	headOp2 := mkUOp(0, isa.OpIntALU, 2)
	d.Dispatch(headOp2, 0)
	granted = nil
	d.Issue(1, issueCtx(never, &granted))
	siqOp2 := mkUOp(1, isa.OpIntALU, 2)
	d.Dispatch(siqOp2, 1)
	granted = nil
	d.Issue(2, issueCtx(always, &granted))
	if len(granted) != 1 || granted[0] != headOp2 {
		t.Fatalf("default priority: granted %v, want the P-IQ head", granted)
	}
}

func TestAlwaysSwitchHeadOption(t *testing.T) {
	b, _, _ := harness(t, Options{Sharing: true, AlwaysSwitchHead: true})
	// Two shared chains both permanently ready on distinct ports: the
	// forced alternation must issue from BOTH partitions over two cycles.
	b.Dispatch(mkUOp(0, isa.OpIntALU, 0), 0)
	b.Dispatch(mkUOp(1, isa.OpIntALU, 1), 0)
	b.Dispatch(mkUOp(2, isa.OpIntALU, 2), 0)
	b.Dispatch(mkUOp(3, isa.OpIntALU, 3), 0)
	var granted []*sched.UOp
	b.Issue(1, issueCtx(never, &granted)) // fill 3 P-IQs + 1 shared partition
	if b.Counters()["alloc_shared"] != 1 {
		t.Skip("layout did not trigger sharing")
	}
	b.Issue(2, issueCtx(always, &granted))
	b.Issue(3, issueCtx(always, &granted))
	b.Issue(4, issueCtx(always, &granted))
	if len(granted) < 4 {
		t.Errorf("granted %d of 4 with forced switching", len(granted))
	}
}

// TestSteeringBeyond64PIQs: steering's sets of empty and shareable P-IQs
// span more than one 64-bit word. With 70 P-IQs and chains that never
// issue, the first 70 chains take P-IQs 0–69 in order, the next 64 split
// P-IQs 0–63, and the one after that splits P-IQ 64.
func TestSteeringBeyond64PIQs(t *testing.T) {
	cfg := testConfig(Options{Sharing: true})
	cfg.NumPIQs, cfg.SIQWindow = 70, 8
	b := New(cfg, rename.MustNew(rename.DefaultConfig()), mdp.New(mdp.DefaultConfig()))
	const chains = 70 + 64 + 1
	var granted []*sched.UOp
	seq := uint64(0)
	for cycle := uint64(1); b.Occupancy() < chains || b.siq.Len() > 0; cycle++ {
		for seq < chains && b.Dispatch(mkUOp(seq, isa.OpIntALU, int(seq%8)), cycle) {
			seq++
		}
		b.Issue(cycle, issueCtx(never, &granted))
		b.Tick(1)
		if cycle > chains {
			t.Fatalf("cycle %d: %d chains steered, counters %v", cycle, b.Occupancy()-b.siq.Len(), b.Counters())
		}
	}
	c := b.Counters()
	if c["alloc_empty"] != 70 || c["alloc_shared"] != 65 || c["steer_stalls"] != 0 {
		t.Fatalf("alloc_empty %d, alloc_shared %d, steer_stalls %d; want 70, 65, 0",
			c["alloc_empty"], c["alloc_shared"], c["steer_stalls"])
	}
	want := map[string][]uint64{"P-IQ64.0": {64}, "P-IQ69.0": {69}, "P-IQ63.1": {133}, "P-IQ64.1": {134}, "P-IQ65.0": {65}}
	for _, q := range b.Queues(nil) {
		if w, ok := want[q.Name]; ok {
			if len(q.Seqs) != len(w) || q.Seqs[0] != w[0] {
				t.Errorf("%s holds %v, want %v", q.Name, q.Seqs, w)
			}
			delete(want, q.Name)
		}
	}
	if len(want) > 0 {
		t.Errorf("queues missing from the snapshot: %v", want)
	}
}
