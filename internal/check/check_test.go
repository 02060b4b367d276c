package check_test

import (
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/isa"
	"repro/internal/lsq"
	"repro/internal/rename"
	"repro/internal/sched"
)

// fakeSched is a scriptable scheduler whose queue snapshots the tests
// corrupt one invariant at a time.
type fakeSched struct {
	queues []sched.QueueSnapshot
	occ    int
}

func (s *fakeSched) Name() string                     { return "fake" }
func (s *fakeSched) Capacity() int                    { return 64 }
func (s *fakeSched) Dispatch(*sched.UOp, uint64) bool { return true }
func (s *fakeSched) Issue(uint64, *sched.IssueCtx)    {}
func (s *fakeSched) Tick(uint64)                      {}
func (s *fakeSched) Wake(uint64) uint64               { return sched.NoWake }
func (s *fakeSched) Complete(rename.PhysReg, uint64)  {}
func (s *fakeSched) Flush(uint64)                     {}
func (s *fakeSched) Occupancy() int                   { return s.occ }
func (s *fakeSched) Energy() sched.EnergyEvents       { return sched.EnergyEvents{} }
func (s *fakeSched) Counters() map[string]uint64      { return nil }
func (s *fakeSched) Queues() []sched.QueueSnapshot    { return s.queues }

// fakeSource is a hand-built machine state implementing check.Source.
type fakeSource struct {
	cycle                        uint64
	rob                          []*sched.UOp
	decode                       int
	fetchIdx, traceLen           int
	fetched, committed, squashed uint64
	sch                          *fakeSched
	q                            *lsq.Queues
	rn                           *rename.Renamer
}

func (f *fakeSource) Cycle() uint64              { return f.cycle }
func (f *fakeSource) ROBLen() int                { return len(f.rob) }
func (f *fakeSource) ROBEntry(i int) *sched.UOp  { return f.rob[i] }
func (f *fakeSource) DecodeDepth() int           { return f.decode }
func (f *fakeSource) FetchIndex() int            { return f.fetchIdx }
func (f *fakeSource) TraceLen() int              { return f.traceLen }
func (f *fakeSource) Scheduler() sched.Scheduler { return f.sch }
func (f *fakeSource) LSQ() *lsq.Queues           { return f.q }
func (f *fakeSource) Renamer() *rename.Renamer   { return f.rn }
func (f *fakeSource) TopdownConservation() (uint64, uint64, bool) {
	return 0, 0, false
}
func (f *fakeSource) Totals() (uint64, uint64, uint64) {
	return f.fetched, f.committed, f.squashed
}

func uop(seq uint64, op isa.Op) *sched.UOp {
	return &sched.UOp{
		D:   &isa.DynInst{Seq: seq, Op: op},
		Dst: rename.PhysNone,
		Src: [2]rename.PhysReg{rename.PhysNone, rename.PhysNone},
	}
}

// consistent builds a small machine state that satisfies every invariant:
// two unissued ALU μops, both buffered in one FIFO queue.
func consistent(t *testing.T) *fakeSource {
	t.Helper()
	q, err := lsq.New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeSource{
		cycle:    10,
		rob:      []*sched.UOp{uop(0, isa.OpIntALU), uop(1, isa.OpIntALU)},
		fetched:  2,
		traceLen: 100,
		fetchIdx: 2,
		sch: &fakeSched{
			occ:    2,
			queues: []sched.QueueSnapshot{{Name: "IQ", FIFO: true, Cap: 4, Seqs: []uint64{0, 1}}},
		},
		q:  q,
		rn: rename.MustNew(rename.DefaultConfig()),
	}
	return f
}

func wantViolation(t *testing.T, err error, invariant string) {
	t.Helper()
	ve, ok := err.(*check.ViolationError)
	if !ok {
		t.Fatalf("want *ViolationError(%s), got %v", invariant, err)
	}
	if ve.Invariant != invariant {
		t.Fatalf("want invariant %q, got %q (%s)", invariant, ve.Invariant, ve.Detail)
	}
}

func TestCheckConsistentState(t *testing.T) {
	a := check.NewAuditor()
	if err := a.Check(consistent(t)); err != nil {
		t.Fatalf("consistent state flagged: %v", err)
	}
	if a.Checks() != 1 {
		t.Fatalf("Checks() = %d, want 1", a.Checks())
	}
}

func TestObserveCommitOrder(t *testing.T) {
	a := check.NewAuditor()
	u := uop(0, isa.OpIntALU)
	u.Issued = true
	if err := a.ObserveCommit(u); err != nil {
		t.Fatalf("in-order commit flagged: %v", err)
	}
	// Skipping seq 1 is a lost μop.
	u2 := uop(2, isa.OpIntALU)
	u2.Issued = true
	wantViolation(t, a.ObserveCommit(u2), "commit-order")
}

func TestObserveCommitRejectsSquashedAndUnissued(t *testing.T) {
	a := check.NewAuditor()
	sq := uop(0, isa.OpIntALU)
	sq.Issued = true
	sq.Squashed = true
	wantViolation(t, a.ObserveCommit(sq), "commit-order")

	a = check.NewAuditor()
	wantViolation(t, a.ObserveCommit(uop(0, isa.OpIntALU)), "commit-order")
}

func TestCheckROBOrder(t *testing.T) {
	f := consistent(t)
	f.rob[0], f.rob[1] = f.rob[1], f.rob[0] // program order broken
	wantViolation(t, check.NewAuditor().Check(f), "rob-order")
}

func TestCheckROBHeadMatchesNextCommit(t *testing.T) {
	f := consistent(t)
	a := check.NewAuditor()
	u := uop(5, isa.OpIntALU) // head is seq 5 but nothing committed yet
	f.rob = []*sched.UOp{u}
	f.fetched = 1
	f.sch.occ = 1
	f.sch.queues[0].Seqs = []uint64{5}
	wantViolation(t, a.Check(f), "commit-order")
}

func TestCheckLostUop(t *testing.T) {
	f := consistent(t)
	f.fetched = 5 // 5 fetched but only 2 accounted for
	wantViolation(t, check.NewAuditor().Check(f), "lost-uop")
}

func TestCheckQueueFIFO(t *testing.T) {
	f := consistent(t)
	f.sch.queues[0].Seqs = []uint64{1, 0} // descending: FIFO discipline broken
	wantViolation(t, check.NewAuditor().Check(f), "queue-fifo")
}

func TestCheckQueueCapacity(t *testing.T) {
	f := consistent(t)
	f.sch.queues[0].Cap = 1
	wantViolation(t, check.NewAuditor().Check(f), "queue-capacity")
}

func TestCheckQueueResidency(t *testing.T) {
	// A buffered μop that is not a live ROB entry.
	f := consistent(t)
	f.sch.queues[0].Seqs = []uint64{0, 7}
	wantViolation(t, check.NewAuditor().Check(f), "queue-residency")

	// Scheduler occupancy disagrees with the queue contents.
	f = consistent(t)
	f.sch.occ = 3
	wantViolation(t, check.NewAuditor().Check(f), "queue-residency")

	// An unissued ROB μop missing from every queue.
	f = consistent(t)
	f.sch.occ = 1
	f.sch.queues[0].Seqs = []uint64{0}
	wantViolation(t, check.NewAuditor().Check(f), "queue-residency")

	// One μop buffered in two queues.
	f = consistent(t)
	f.sch.queues = append(f.sch.queues, sched.QueueSnapshot{Name: "IQ2", FIFO: true, Cap: 4, Seqs: []uint64{1}})
	err := check.NewAuditor().Check(f)
	wantViolation(t, err, "queue-residency")
	if !strings.Contains(err.Error(), "more than one scheduler queue") {
		t.Fatalf("want a duplicate-residency violation, got %v", err)
	}
}

func TestCheckLSQOrder(t *testing.T) {
	f := consistent(t)
	ld0 := uop(0, isa.OpLoad)
	ld1 := uop(1, isa.OpLoad)
	f.rob = []*sched.UOp{ld0, ld1}
	f.q.Insert(ld1) // inserted out of program order
	f.q.Insert(ld0)
	wantViolation(t, check.NewAuditor().Check(f), "lsq-order")
}

func TestCheckTiming(t *testing.T) {
	f := consistent(t)
	u := f.rob[1]
	u.Issued = true
	u.DispatchCycle = 3
	u.IssueCycle = 5
	u.CompleteCycle = 5 // must be strictly after issue
	f.sch.occ = 1
	f.sch.queues[0].Seqs = []uint64{0}
	wantViolation(t, check.NewAuditor().Check(f), "timing")
}

func TestCheckLostWakeup(t *testing.T) {
	f := consistent(t)
	// Allocate a physical register whose producer "vanished": Rename marks
	// it NeverReady, and no ROB entry produces it.
	_, dst, _, ok := f.rn.Rename(&isa.DynInst{Op: isa.OpIntALU, Dst: 3, Src1: isa.RegNone, Src2: isa.RegNone})
	if !ok || dst == rename.PhysNone {
		t.Fatal("rename failed")
	}
	f.rob[1].Src[0] = dst
	wantViolation(t, check.NewAuditor().Check(f), "readiness")
}

func TestCheckStaleCompletion(t *testing.T) {
	f := consistent(t)
	_, dst, _, ok := f.rn.Rename(&isa.DynInst{Op: isa.OpIntALU, Dst: 3, Src1: isa.RegNone, Src2: isa.RegNone})
	if !ok {
		t.Fatal("rename failed")
	}
	// The producer issued and completed cycles ago, but its P-SCB entry
	// still says NeverReady — a lost wakeup broadcast.
	prod := f.rob[0]
	prod.Dst = dst
	prod.Issued = true
	prod.DispatchCycle = 1
	prod.IssueCycle = 2
	prod.CompleteCycle = 4 // f.cycle is 10
	f.rob[1].Src[0] = dst
	f.sch.occ = 1
	f.sch.queues[0].Seqs = []uint64{1}
	wantViolation(t, check.NewAuditor().Check(f), "readiness")
}

func TestCollectAndRender(t *testing.T) {
	f := consistent(t)
	f.rob[0].MDPBlockedSince = 4
	a := check.Collect(f)
	if a.Cycle != 10 || a.ROBLen != 2 || a.SchedulerName != "fake" {
		t.Fatalf("bad autopsy: %+v", a)
	}
	if a.Head == nil || a.Head.Seq != 0 {
		t.Fatalf("bad autopsy head: %+v", a.Head)
	}
	if a.OldestUnissued == nil || a.OldestUnissued.Seq != 0 || a.OldestUnissuedAge != 10 {
		t.Fatalf("bad oldest-unissued: %+v", a.OldestUnissued)
	}
	s := a.String()
	for _, want := range []string{"deadlock autopsy @ cycle 10", "rob=2", "queue IQ", "rob head"} {
		if !strings.Contains(s, want) {
			t.Fatalf("autopsy rendering missing %q:\n%s", want, s)
		}
	}

	de := &check.DeadlockError{Reason: "stuck", Autopsy: a}
	if msg := de.Error(); !strings.Contains(msg, "stuck") || !strings.Contains(msg, "deadlock autopsy") {
		t.Fatalf("DeadlockError rendering: %s", msg)
	}
	ve := &check.ViolationError{Invariant: "rob-order", Cycle: 10, Detail: "d", Autopsy: a}
	if msg := ve.Error(); !strings.Contains(msg, "rob-order") || !strings.Contains(msg, "deadlock autopsy") {
		t.Fatalf("ViolationError rendering: %s", msg)
	}
}
