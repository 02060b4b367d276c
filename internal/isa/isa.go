// Package isa defines the micro-operation (μop) instruction set used by the
// simulator: opcode classes, ALU function codes, the static instruction
// encoding produced by the program builder, and the dynamic μop record that
// flows through the timing pipeline.
//
// The machine is a small load/store register machine with 64 integer and
// 64 floating-point architectural registers and a byte-addressed 64-bit
// memory. Values are int64 throughout; "floating-point" opcodes differ from
// integer ones only in which functional units (and latencies) service them,
// which is all the scheduling study needs.
package isa

import "fmt"

// Reg names an architectural register. Integer registers are R(0)..R(63),
// floating-point registers are F(0)..F(63). RegNone marks an absent operand.
type Reg uint8

// NumIntRegs and NumFpRegs give the size of each architectural register file.
const (
	NumIntRegs = 64
	NumFpRegs  = 64
	// NumArchRegs is the total architectural register count (int + fp).
	NumArchRegs = NumIntRegs + NumFpRegs
	// RegNone marks an unused operand slot.
	RegNone Reg = 255
)

// R returns the i-th integer register.
func R(i int) Reg {
	if i < 0 || i >= NumIntRegs {
		panic(fmt.Sprintf("isa: integer register index %d out of range", i))
	}
	return Reg(i)
}

// F returns the i-th floating-point register.
func F(i int) Reg {
	if i < 0 || i >= NumFpRegs {
		panic(fmt.Sprintf("isa: fp register index %d out of range", i))
	}
	return Reg(NumIntRegs + i)
}

// Valid reports whether r names a real register (not RegNone).
func (r Reg) Valid() bool { return r < NumArchRegs }

// IsFP reports whether r is a floating-point register.
func (r Reg) IsFP() bool { return r.Valid() && r >= NumIntRegs }

// String renders the register in assembly style (r7, f12, -).
func (r Reg) String() string {
	switch {
	case r == RegNone:
		return "-"
	case r.IsFP():
		return fmt.Sprintf("f%d", int(r)-NumIntRegs)
	case r.Valid():
		return fmt.Sprintf("r%d", int(r))
	default:
		return fmt.Sprintf("reg?%d", int(r))
	}
}

// Op is a μop opcode class. The class determines which functional units can
// execute the μop (see internal/config for the port bindings of Table I) and
// its execution latency.
type Op uint8

// Opcode classes. OpLoad and OpStore use an AGU for address generation and
// then access the memory hierarchy (loads) or the store queue (stores).
const (
	OpNop Op = iota
	OpIntALU
	OpIntMul
	OpIntDiv
	OpFpAdd
	OpFpMul
	OpFpDiv
	OpLoad
	OpStore
	OpBranch
	numOps
)

// NumOps is the number of distinct opcode classes.
const NumOps = int(numOps)

// Valid reports whether o names a real opcode class — the range check a
// trace importer runs before letting a decoded μop near the pipeline.
func (o Op) Valid() bool { return o < numOps }

var opNames = [...]string{
	OpNop:    "nop",
	OpIntALU: "alu",
	OpIntMul: "mul",
	OpIntDiv: "div",
	OpFpAdd:  "fadd",
	OpFpMul:  "fmul",
	OpFpDiv:  "fdiv",
	OpLoad:   "load",
	OpStore:  "store",
	OpBranch: "branch",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op?%d", int(o))
}

// IsMem reports whether the opcode accesses memory (load or store).
func (o Op) IsMem() bool { return o == OpLoad || o == OpStore }

// Fn selects the arithmetic function an ALU-class μop computes. It affects
// functional semantics only, never timing: timing is fully determined by Op.
type Fn uint8

// ALU function codes.
const (
	FnAdd    Fn = iota // dst = src1 + src2 + imm
	FnSub              // dst = src1 - src2 + imm
	FnMul              // dst = src1 * src2
	FnDiv              // dst = src1 / src2 (0 divisor yields 0)
	FnAnd              // dst = src1 & src2
	FnOr               // dst = src1 | src2
	FnXor              // dst = src1 ^ src2
	FnShl              // dst = src1 << (src2 & 63)
	FnShr              // dst = int64(uint64(src1) >> (src2 & 63))
	FnSlt              // dst = 1 if src1 < src2 else 0
	FnMovImm           // dst = imm
	FnMix              // dst = hash mix of src1, src2, imm (for synthetic branchy code)
	numFns
)

// NumFns is the number of distinct ALU function codes.
const NumFns = int(numFns)

// Valid reports whether f names a real ALU function code.
func (f Fn) Valid() bool { return f < numFns }

var fnNames = [...]string{
	FnAdd: "add", FnSub: "sub", FnMul: "mul", FnDiv: "div",
	FnAnd: "and", FnOr: "or", FnXor: "xor", FnShl: "shl",
	FnShr: "shr", FnSlt: "slt", FnMovImm: "movi", FnMix: "mix",
}

func (f Fn) String() string {
	if int(f) < len(fnNames) {
		return fnNames[f]
	}
	return fmt.Sprintf("fn?%d", int(f))
}

// BrCond is the condition a branch evaluates against its Src1 value.
type BrCond uint8

// Branch conditions. BrAlways is an unconditional jump.
const (
	BrAlways BrCond = iota // always taken
	BrEQZ                  // taken if src1 == 0
	BrNEZ                  // taken if src1 != 0
	BrLTZ                  // taken if src1 < 0
	BrGEZ                  // taken if src1 >= 0
	numBrConds
)

// NumBrConds is the number of distinct branch conditions.
const NumBrConds = int(numBrConds)

// Valid reports whether c names a real branch condition.
func (c BrCond) Valid() bool { return c < numBrConds }

func (c BrCond) String() string {
	switch c {
	case BrAlways:
		return "jmp"
	case BrEQZ:
		return "beqz"
	case BrNEZ:
		return "bnez"
	case BrLTZ:
		return "bltz"
	case BrGEZ:
		return "bgez"
	}
	return fmt.Sprintf("br?%d", int(c))
}

// Eval reports whether the condition holds for the given source value.
func (c BrCond) Eval(v int64) bool {
	switch c {
	case BrAlways:
		return true
	case BrEQZ:
		return v == 0
	case BrNEZ:
		return v != 0
	case BrLTZ:
		return v < 0
	case BrGEZ:
		return v >= 0
	}
	return false
}

// Inst is a static instruction as laid out by the program builder.
//
// Memory operands address memory at regVal(Base)+Imm; loads write Dst,
// stores read Data. Branches evaluate Cond against Src1 and jump to Target
// (a static instruction index) when taken.
type Inst struct {
	Op   Op
	Fn   Fn
	Cond BrCond

	Dst  Reg // destination register (RegNone if none)
	Src1 Reg // first source (also branch condition input, store data)
	Src2 Reg // second source

	Base Reg   // base address register for loads/stores
	Imm  int64 // immediate: ALU immediate or address offset

	Target int // branch target (static instruction index)

	// Halt marks the final pseudo-instruction that stops functional
	// execution. It never enters the timing pipeline.
	Halt bool
}

// Dyn returns the μop this instruction issues as the seq-th of a dynamic
// stream at static index pc, with every field the static instruction
// determines: opcode class, function, condition, destination, immediate,
// access size, fall-through Next, and the source operands by class —
// loads read their base, stores their base and data, branches their
// condition input, ALU classes both sources. The caller adds the dynamic
// facts: effective address, branch outcome, and Next of a taken branch.
// The functional interpreter and the trace-file reader both build their
// μops here, so their streams agree by construction.
func (in *Inst) Dyn(seq uint64, pc int) DynInst {
	d := DynInst{
		Seq:  seq,
		PC:   pc,
		Op:   in.Op,
		Fn:   in.Fn,
		Cond: in.Cond,
		Dst:  in.Dst,
		Src1: in.Src1,
		Src2: in.Src2,
		Imm:  in.Imm,
		Size: 8,
		Next: pc + 1,
	}
	switch in.Op {
	case OpNop:
		d.Src1, d.Src2 = RegNone, RegNone
	case OpLoad:
		d.Src1, d.Src2 = in.Base, RegNone
	case OpStore:
		d.Src1, d.Src2 = in.Base, in.Src1 // base, data
	case OpBranch:
		d.Src2 = RegNone
	}
	return d
}

func (in *Inst) String() string {
	switch in.Op {
	case OpNop:
		if in.Halt {
			return "halt"
		}
		return "nop"
	case OpLoad:
		return fmt.Sprintf("load %s, [%s%+d]", in.Dst, in.Base, in.Imm)
	case OpStore:
		return fmt.Sprintf("store %s, [%s%+d]", in.Src1, in.Base, in.Imm)
	case OpBranch:
		return fmt.Sprintf("%s %s, @%d", in.Cond, in.Src1, in.Target)
	default:
		return fmt.Sprintf("%s.%s %s, %s, %s, #%d", in.Op, in.Fn, in.Dst, in.Src1, in.Src2, in.Imm)
	}
}

// DynInst is one dynamic μop: a static instruction instance with its
// runtime-resolved effective address and branch outcome. The functional
// engine produces the dynamic stream; the timing pipeline consumes it.
type DynInst struct {
	Seq uint64 // dynamic sequence number, 0-based, program order
	PC  int    // static instruction index

	Op   Op
	Fn   Fn
	Cond BrCond

	Dst  Reg
	Src1 Reg
	Src2 Reg

	// Imm carries the static instruction's immediate (ALU immediate or
	// address offset) so an independent replay executor can recompute
	// results and effective addresses from the committed μop stream.
	Imm int64

	Addr  uint64 // effective address (loads/stores)
	Size  uint8  // access size in bytes (always 8 in this machine)
	Taken bool   // branch outcome
	Next  int    // next static PC in the dynamic stream
}

// IsLoad reports whether the μop is a load.
func (d *DynInst) IsLoad() bool { return d.Op == OpLoad }

// IsStore reports whether the μop is a store.
func (d *DynInst) IsStore() bool { return d.Op == OpStore }

// IsBranch reports whether the μop is a branch.
func (d *DynInst) IsBranch() bool { return d.Op == OpBranch }

// Reads returns the architectural registers the μop reads, in operand order.
func (d *DynInst) Reads() [2]Reg {
	switch d.Op {
	case OpLoad:
		return [2]Reg{d.Src1, RegNone} // Src1 holds the base register
	case OpStore:
		return [2]Reg{d.Src1, d.Src2} // base, data
	case OpBranch:
		return [2]Reg{d.Src1, RegNone}
	case OpNop:
		return [2]Reg{RegNone, RegNone}
	default:
		return [2]Reg{d.Src1, d.Src2}
	}
}

// Writes returns the architectural destination register, or RegNone.
func (d *DynInst) Writes() Reg {
	switch d.Op {
	case OpStore, OpBranch, OpNop:
		return RegNone
	default:
		return d.Dst
	}
}

func (d *DynInst) String() string {
	switch d.Op {
	case OpLoad:
		return fmt.Sprintf("#%d pc=%d load %s, [%#x]", d.Seq, d.PC, d.Dst, d.Addr)
	case OpStore:
		return fmt.Sprintf("#%d pc=%d store %s, [%#x]", d.Seq, d.PC, d.Src2, d.Addr)
	case OpBranch:
		return fmt.Sprintf("#%d pc=%d %s taken=%v next=%d", d.Seq, d.PC, d.Cond, d.Taken, d.Next)
	default:
		return fmt.Sprintf("#%d pc=%d %s.%s %s", d.Seq, d.PC, d.Op, d.Fn, d.Dst)
	}
}
