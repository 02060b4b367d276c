package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestRegConstructors(t *testing.T) {
	if got := R(0); got != 0 {
		t.Errorf("R(0) = %d, want 0", got)
	}
	if got := R(63); got != 63 {
		t.Errorf("R(63) = %d, want 63", got)
	}
	if got := F(0); got != Reg(NumIntRegs) {
		t.Errorf("F(0) = %d, want %d", got, NumIntRegs)
	}
	if got := F(63); got != Reg(NumIntRegs+63) {
		t.Errorf("F(63) = %d, want %d", got, NumIntRegs+63)
	}
}

func TestRegConstructorPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"R(-1)", func() { R(-1) }},
		{"R(64)", func() { R(64) }},
		{"F(-1)", func() { F(-1) }},
		{"F(64)", func() { F(64) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", tc.name)
				}
			}()
			tc.fn()
		})
	}
}

func TestRegPredicates(t *testing.T) {
	if RegNone.Valid() {
		t.Error("RegNone.Valid() = true")
	}
	if !R(5).Valid() || R(5).IsFP() {
		t.Error("R(5) should be valid, non-FP")
	}
	if !F(5).Valid() || !F(5).IsFP() {
		t.Error("F(5) should be valid FP")
	}
}

func TestRegString(t *testing.T) {
	for _, tc := range []struct {
		r    Reg
		want string
	}{
		{R(0), "r0"}, {R(63), "r63"}, {F(0), "f0"}, {F(12), "f12"}, {RegNone, "-"},
	} {
		if got := tc.r.String(); got != tc.want {
			t.Errorf("Reg(%d).String() = %q, want %q", tc.r, got, tc.want)
		}
	}
}

func TestOpString(t *testing.T) {
	for op, want := range map[Op]string{
		OpNop: "nop", OpIntALU: "alu", OpIntDiv: "div",
		OpLoad: "load", OpStore: "store", OpBranch: "branch",
	} {
		if got := op.String(); got != want {
			t.Errorf("Op %d String = %q, want %q", op, got, want)
		}
	}
}

func TestOpIsMem(t *testing.T) {
	for op := Op(0); int(op) < NumOps; op++ {
		want := op == OpLoad || op == OpStore
		if got := op.IsMem(); got != want {
			t.Errorf("%v.IsMem() = %v, want %v", op, got, want)
		}
	}
}

func TestBrCondEval(t *testing.T) {
	cases := []struct {
		c    BrCond
		v    int64
		want bool
	}{
		{BrAlways, 0, true}, {BrAlways, -7, true},
		{BrEQZ, 0, true}, {BrEQZ, 1, false},
		{BrNEZ, 0, false}, {BrNEZ, -1, true},
		{BrLTZ, -1, true}, {BrLTZ, 0, false}, {BrLTZ, 1, false},
		{BrGEZ, 0, true}, {BrGEZ, 5, true}, {BrGEZ, -5, false},
	}
	for _, tc := range cases {
		if got := tc.c.Eval(tc.v); got != tc.want {
			t.Errorf("%v.Eval(%d) = %v, want %v", tc.c, tc.v, got, tc.want)
		}
	}
}

func TestBrCondComplement(t *testing.T) {
	// EQZ/NEZ and LTZ/GEZ are complementary for every value.
	f := func(v int64) bool {
		return BrEQZ.Eval(v) != BrNEZ.Eval(v) && BrLTZ.Eval(v) != BrGEZ.Eval(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestInstReadsWrites: the μop an instruction issues (Inst.Dyn) reads and
// writes the registers its class implies — loads their base, stores their
// base and data, branches their condition input, ALU ops both sources —
// and carries the static fields plus a fall-through Next.
func TestInstReadsWrites(t *testing.T) {
	ld := Inst{Op: OpLoad, Dst: R(1), Src1: R(9), Src2: R(9), Base: R(2), Imm: 16}
	d := ld.Dyn(7, 3)
	if rs := d.Reads(); rs != [2]Reg{R(2), RegNone} {
		t.Errorf("load reads = %v, want [r2 -]", rs)
	}
	if w := d.Writes(); w != R(1) {
		t.Errorf("load writes = %v, want r1", w)
	}
	if d.Seq != 7 || d.PC != 3 || d.Next != 4 || d.Imm != 16 || d.Size != 8 {
		t.Errorf("load μop = %+v, want seq 7, pc 3, next 4, imm 16, size 8", d)
	}

	st := Inst{Op: OpStore, Src1: R(3), Base: R(4)}
	d = st.Dyn(0, 0)
	if rs := d.Reads(); rs != [2]Reg{R(4), R(3)} {
		t.Errorf("store reads = %v, want [r4 r3]", rs)
	}
	if w := d.Writes(); w != RegNone {
		t.Errorf("store writes = %v, want none", w)
	}

	br := Inst{Op: OpBranch, Cond: BrNEZ, Src1: R(5), Src2: R(6), Target: 1}
	if d := br.Dyn(0, 9); d.Reads() != [2]Reg{R(5), RegNone} || d.Cond != BrNEZ || d.Next != 10 {
		t.Errorf("branch μop = %+v, want reads [r5 -], bnez, fall-through next 10", d)
	}

	alu := Inst{Op: OpIntALU, Fn: FnAdd, Dst: R(1), Src1: R(2), Src2: R(3)}
	if d := alu.Dyn(0, 0); d.Reads() != [2]Reg{R(2), R(3)} || d.Fn != FnAdd || d.Writes() != R(1) {
		t.Errorf("alu μop = %+v, want reads [r2 r3], add, writes r1", d)
	}
	nop := Inst{Op: OpNop, Src1: R(2), Src2: R(3)}
	if d := nop.Dyn(0, 0); d.Src1 != RegNone || d.Src2 != RegNone {
		t.Errorf("nop μop = %+v, want no sources", d)
	}
}

func TestDynInstReads(t *testing.T) {
	ld := DynInst{Op: OpLoad, Dst: R(1), Src1: R(2)}
	if rs := ld.Reads(); rs[0] != R(2) || rs[1] != RegNone {
		t.Errorf("dyn load reads = %v", rs)
	}
	st := DynInst{Op: OpStore, Src1: R(4), Src2: R(3)}
	if rs := st.Reads(); rs[0] != R(4) || rs[1] != R(3) {
		t.Errorf("dyn store reads = %v", rs)
	}
	nop := DynInst{Op: OpNop}
	if rs := nop.Reads(); rs[0] != RegNone || rs[1] != RegNone {
		t.Errorf("dyn nop reads = %v", rs)
	}
	if w := (&DynInst{Op: OpBranch}).Writes(); w != RegNone {
		t.Errorf("branch writes = %v", w)
	}
	if w := (&DynInst{Op: OpFpMul, Dst: F(2)}).Writes(); w != F(2) {
		t.Errorf("fpmul writes = %v", w)
	}
}

func TestPredicateHelpers(t *testing.T) {
	if !(&DynInst{Op: OpLoad}).IsLoad() || (&DynInst{Op: OpStore}).IsLoad() {
		t.Error("IsLoad misclassifies")
	}
	if !(&DynInst{Op: OpStore}).IsStore() || (&DynInst{Op: OpLoad}).IsStore() {
		t.Error("IsStore misclassifies")
	}
	if !(&DynInst{Op: OpBranch}).IsBranch() {
		t.Error("IsBranch misclassifies")
	}
}

func TestInstString(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: OpNop}, "nop"},
		{Inst{Op: OpNop, Halt: true}, "halt"},
		{Inst{Op: OpLoad, Dst: R(1), Base: R(2), Imm: 8}, "load r1, [r2+8]"},
		{Inst{Op: OpStore, Src1: R(3), Base: R(4), Imm: -8}, "store r3, [r4-8]"},
		{Inst{Op: OpBranch, Cond: BrNEZ, Src1: R(5), Target: 7}, "bnez r5, @7"},
	}
	for _, tc := range cases {
		if got := tc.in.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
	alu := Inst{Op: OpIntALU, Fn: FnAdd, Dst: R(1), Src1: R(2), Src2: R(3), Imm: 4}
	if got := alu.String(); !strings.Contains(got, "alu.add") || !strings.Contains(got, "#4") {
		t.Errorf("alu String() = %q", got)
	}
}

func TestDynInstString(t *testing.T) {
	cases := []struct {
		d    DynInst
		want []string
	}{
		{DynInst{Seq: 1, PC: 2, Op: OpLoad, Dst: R(3), Addr: 0x40}, []string{"#1", "pc=2", "load", "0x40"}},
		{DynInst{Seq: 2, PC: 3, Op: OpStore, Src2: R(4), Addr: 0x80}, []string{"store", "0x80"}},
		{DynInst{Seq: 3, PC: 4, Op: OpBranch, Cond: BrEQZ, Taken: true, Next: 9}, []string{"beqz", "taken=true", "next=9"}},
		{DynInst{Seq: 4, PC: 5, Op: OpFpMul, Fn: FnMul, Dst: F(1)}, []string{"fmul.mul", "f1"}},
	}
	for _, tc := range cases {
		got := tc.d.String()
		for _, want := range tc.want {
			if !strings.Contains(got, want) {
				t.Errorf("String() = %q missing %q", got, want)
			}
		}
	}
}

func TestFnString(t *testing.T) {
	if FnMovImm.String() != "movi" || FnMix.String() != "mix" {
		t.Error("Fn names wrong")
	}
	if got := Fn(200).String(); !strings.Contains(got, "fn?") {
		t.Errorf("unknown Fn String = %q", got)
	}
	if got := Op(200).String(); !strings.Contains(got, "op?") {
		t.Errorf("unknown Op String = %q", got)
	}
	if got := BrCond(200).String(); !strings.Contains(got, "br?") {
		t.Errorf("unknown BrCond String = %q", got)
	}
	if got := BrCond(200).Eval(1); got {
		t.Error("unknown BrCond evaluates true")
	}
}
