package topdown

import (
	"encoding/json"
	"testing"
)

// checkConservation fails the test unless the engine's slot accounting
// balances.
func checkConservation(t *testing.T, e *Engine) {
	t.Helper()
	got, want, on := e.Conservation()
	if !on {
		t.Fatalf("Conservation() reports off on a live engine")
	}
	if got != want {
		t.Fatalf("conservation broken: blamed %d slots, want %d", got, want)
	}
}

func TestNilEngineIsSafe(t *testing.T) {
	var e *Engine
	e.NoteMemBlock()
	e.NoteDepBlock()
	e.NoteFUBlock()
	e.NoteDispatchStall(StallROB)
	e.EndCycle(1, 3, true, true)
	if e.Width() != 0 || e.Cycles() != 0 || e.OverIssue() != 0 {
		t.Fatalf("nil engine reports non-zero state")
	}
	if c := e.Counts(); c != ([NumCategories]uint64{}) {
		t.Fatalf("nil engine Counts = %v, want zero", c)
	}
	if _, _, on := e.Conservation(); on {
		t.Fatalf("nil engine claims to be accounting")
	}
	if e.Report(100) != nil {
		t.Fatalf("nil engine Report != nil")
	}
	if e.Fraction(Base) != 0 {
		t.Fatalf("nil engine Fraction != 0")
	}
}

// TestRepeatMatchesEndCycles: k cycles closed by Repeat charge exactly
// what k more EndCycle calls charge when the quiet cycles alternate
// between the last two closed cycles' blame, and leave the alternation
// where stepping leaves it.
func TestRepeatMatchesEndCycles(t *testing.T) {
	quiet := func(e *Engine, i uint64) { // mem, dep, mem, ...
		if i%2 == 0 {
			e.NoteMemBlock()
		} else {
			e.NoteDepBlock()
		}
		e.EndCycle(0, 4, false, false)
	}
	for _, k := range []uint64{1, 2, 5, 6} {
		stepped, repeated := New(4), New(4)
		for _, e := range []*Engine{stepped, repeated} {
			e.EndCycle(1, 4, false, false) // a busy cycle before the stretch
			quiet(e, 0)
			quiet(e, 1)
		}
		for i := uint64(0); i < k; i++ {
			quiet(stepped, i)
		}
		repeated.Repeat(k)
		quiet(stepped, k) // the cycle after the stretch continues it
		repeated.Repeat(1)
		if stepped.Counts() != repeated.Counts() || stepped.Cycles() != repeated.Cycles() {
			t.Errorf("k=%d: Repeat charged %v over %d cycles, stepping %v over %d",
				k, repeated.Counts(), repeated.Cycles(), stepped.Counts(), stepped.Cycles())
		}
		checkConservation(t, repeated)
	}
}

func TestBaseAndIdleSplit(t *testing.T) {
	e := New(4)
	// Cycle 0: 3 grants, 1 idle slot, μops waiting in the window → DepWait.
	e.EndCycle(3, 5, false, false)
	checkConservation(t, e)
	c := e.Counts()
	if c[Base] != 3 || c[DepWait] != 1 {
		t.Fatalf("base=%d depwait=%d, want 3/1", c[Base], c[DepWait])
	}
	// Cycle 1: nothing granted, empty window, recovering → BranchRecovery.
	e.EndCycle(0, 0, true, false)
	checkConservation(t, e)
	if c := e.Counts(); c[BranchRecovery] != 4 {
		t.Fatalf("branch_recovery=%d, want 4", c[BranchRecovery])
	}
	// Cycle 2: empty window, not recovering, dispatch queue full.
	e.EndCycle(0, 0, false, true)
	checkConservation(t, e)
	if c := e.Counts(); c[DispatchQFull] != 4 {
		t.Fatalf("dispatch_q_full=%d, want 4", c[DispatchQFull])
	}
	// Cycle 3: nothing at all → Frontend.
	e.EndCycle(0, 0, false, false)
	checkConservation(t, e)
	if c := e.Counts(); c[Frontend] != 4 {
		t.Fatalf("frontend=%d, want 4", c[Frontend])
	}
}

func TestBlamePrecedence(t *testing.T) {
	// Memory beats everything.
	e := New(2)
	e.NoteMemBlock()
	e.NoteDepBlock()
	e.NoteFUBlock()
	e.NoteDispatchStall(StallROB)
	e.EndCycle(0, 9, true, true)
	if c := e.Counts(); c[Memory] != 2 {
		t.Fatalf("memory=%d, want 2", c[Memory])
	}
	// Dep beats FU and dispatch causes.
	e = New(2)
	e.NoteDepBlock()
	e.NoteFUBlock()
	e.NoteDispatchStall(StallIQ)
	e.EndCycle(0, 9, false, false)
	if c := e.Counts(); c[DepWait] != 2 {
		t.Fatalf("dep_wait=%d, want 2", c[DepWait])
	}
	// FU beats dispatch causes.
	e = New(2)
	e.NoteFUBlock()
	e.NoteDispatchStall(StallLSQ)
	e.EndCycle(0, 0, false, false)
	if c := e.Counts(); c[FUContention] != 2 {
		t.Fatalf("fu_contention=%d, want 2", c[FUContention])
	}
	// Dispatch cause beats the occupancy fallback.
	e = New(2)
	e.NoteDispatchStall(StallLSQ)
	e.EndCycle(0, 7, false, false)
	if c := e.Counts(); c[LSQFull] != 2 {
		t.Fatalf("lsq_full=%d, want 2", c[LSQFull])
	}
}

func TestDispatchCauseMapping(t *testing.T) {
	cases := []struct {
		cause StallCause
		want  Category
	}{
		{StallROB, ROBFull},
		{StallLSQ, LSQFull},
		{StallRename, RenameStall},
		{StallIQ, IQFull},
		{StallInjected, Frontend},
	}
	for _, tc := range cases {
		e := New(1)
		e.NoteDispatchStall(tc.cause)
		e.EndCycle(0, 0, false, false)
		if c := e.Counts(); c[tc.want] != 1 {
			t.Errorf("cause %d: category %s = %d, want 1", tc.cause, tc.want, c[tc.want])
		}
		checkConservation(t, e)
	}
}

func TestFirstDispatchCauseWins(t *testing.T) {
	e := New(1)
	e.NoteDispatchStall(StallRename)
	e.NoteDispatchStall(StallROB)
	e.EndCycle(0, 0, false, false)
	if c := e.Counts(); c[RenameStall] != 1 {
		t.Fatalf("rename_stall=%d, want 1 (first cause must win)", c[RenameStall])
	}
}

func TestOverIssueClamped(t *testing.T) {
	e := New(2)
	e.EndCycle(5, 0, false, false) // e.g. FXA's IXU executing beyond the port budget
	checkConservation(t, e)
	c := e.Counts()
	if c[Base] != 2 {
		t.Fatalf("base=%d, want clamped to width 2", c[Base])
	}
	if e.OverIssue() != 3 {
		t.Fatalf("overIssue=%d, want 3", e.OverIssue())
	}
}

func TestScratchResetsBetweenCycles(t *testing.T) {
	e := New(2)
	e.NoteMemBlock()
	e.EndCycle(0, 1, false, false)
	// The next cycle must not inherit the memory blame.
	e.EndCycle(0, 1, false, false)
	c := e.Counts()
	if c[Memory] != 2 || c[DepWait] != 2 {
		t.Fatalf("memory=%d dep_wait=%d, want 2/2 (scratch leaked across cycles)", c[Memory], c[DepWait])
	}
}

func TestReport(t *testing.T) {
	e := New(4)
	e.EndCycle(2, 3, false, false) // 2 base + 2 dep_wait
	e.EndCycle(0, 0, true, false)  // 4 branch_recovery
	r := e.Report(2)
	if r.Width != 4 || r.Cycles != 2 || r.TotalSlots != 8 {
		t.Fatalf("report header %+v", r)
	}
	if r.Slots["base"] != 2 || r.Slots["dep_wait"] != 2 || r.Slots["branch_recovery"] != 4 {
		t.Fatalf("slots %v", r.Slots)
	}
	if got := r.Fractions["branch_recovery"]; got != 0.5 {
		t.Fatalf("branch_recovery fraction %v, want 0.5", got)
	}
	// The CPI stack must sum to total CPI = cycles/committed = 1.
	var sum float64
	for _, v := range r.CPIStack {
		sum += v
	}
	if r.CPI != 1 || sum != r.CPI {
		t.Fatalf("CPI=%v stack sum=%v, want both 1", r.CPI, sum)
	}
	if r.Counts != e.Counts() {
		t.Fatalf("Counts mismatch: %v vs %v", r.Counts, e.Counts())
	}
	// The JSON form must be deterministic and carry the section name keys.
	b1, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := json.Marshal(e.Report(2))
	if string(b1) != string(b2) {
		t.Fatalf("report JSON not deterministic:\n%s\n%s", b1, b2)
	}
}

func TestNamesCoverEveryCategory(t *testing.T) {
	seen := map[string]bool{}
	for c := Category(0); c < NumCategories; c++ {
		n := c.String()
		if n == "" || n == "unknown" {
			t.Fatalf("category %d has no name", c)
		}
		if seen[n] {
			t.Fatalf("duplicate category name %q", n)
		}
		seen[n] = true
	}
	if Category(NumCategories).String() != "unknown" {
		t.Fatalf("out-of-range category must render unknown")
	}
	if got := Names(); len(got) != int(NumCategories) {
		t.Fatalf("Names() length %d, want %d", len(got), NumCategories)
	}
}
