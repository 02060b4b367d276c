package prog

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/isa"
)

// ErrFuel is returned when functional execution exceeds its μop budget
// without reaching the halt instruction.
var ErrFuel = errors.New("prog: out of fuel before halt")

// ArchState is the architectural state of the machine: registers and a
// sparse 8-byte-word memory.
type ArchState struct {
	Regs [isa.NumArchRegs]int64
	Mem  map[uint64]int64
}

// NewArchState returns a zeroed state with an empty memory.
func NewArchState() *ArchState {
	return &ArchState{Mem: make(map[uint64]int64)}
}

// LoadWord reads the 8-byte-aligned word containing addr.
func (s *ArchState) LoadWord(addr uint64) int64 { return s.Mem[addr&^7] }

// StoreWord writes the 8-byte-aligned word containing addr.
func (s *ArchState) StoreWord(addr uint64, v int64) { s.Mem[addr&^7] = v }

// mix is the FnMix semantic: a cheap invertible-ish hash used by synthetic
// kernels to derive data-dependent branch conditions and addresses.
func mix(a, b, imm int64) int64 {
	x := uint64(a)*0x9E3779B97F4A7C15 ^ uint64(b) + uint64(imm)
	x ^= x >> 29
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 32
	return int64(x)
}

// evalALU computes the arithmetic result for ALU-class μops.
func evalALU(fn isa.Fn, a, b, imm int64) int64 {
	switch fn {
	case isa.FnAdd:
		return a + b + imm
	case isa.FnSub:
		return a - b + imm
	case isa.FnMul:
		return a * b
	case isa.FnDiv:
		if b == 0 {
			return 0
		}
		return a / b
	case isa.FnAnd:
		return a & b
	case isa.FnOr:
		return a | b
	case isa.FnXor:
		return a ^ b
	case isa.FnShl:
		return a << (uint64(b) & 63)
	case isa.FnShr:
		return int64(uint64(a) >> (uint64(b) & 63))
	case isa.FnSlt:
		if a < b {
			return 1
		}
		return 0
	case isa.FnMovImm:
		return imm
	case isa.FnMix:
		return mix(a, b, imm)
	default:
		panic(fmt.Sprintf("prog: unknown fn %v", fn))
	}
}

// Trace is the fully materialised dynamic μop stream of one program run,
// together with the final architectural state (the oracle for end-to-end
// timing-vs-functional checks).
type Trace struct {
	Program *Program
	Ops     []isa.DynInst
	Final   *ArchState
}

// Execute runs the program functionally and returns its dynamic trace.
// maxOps bounds the dynamic μop count (the trace excludes the halt pseudo-op
// and OpNop padding never enters the stream is false: nops are traced so the
// front-end sees them, matching a real fetch stream).
func Execute(p *Program, maxOps int) (*Trace, error) {
	return ExecuteContext(context.Background(), p, maxOps)
}

// genCancelMask paces the cancellation poll during trace generation: one
// ctx check every 64K generated μops, cheap enough to vanish in the
// interpreter loop while bounding cancel latency to well under a
// millisecond of generation work.
const genCancelMask = 1<<16 - 1

// ExecuteContext is Execute with cooperative cancellation: generating a
// long trace polls ctx every 64K μops and aborts with an error wrapping
// context.Cause(ctx), so services truncating multi-million-μop kernels can
// shut down without waiting out the interpreter.
func ExecuteContext(ctx context.Context, p *Program, maxOps int) (*Trace, error) {
	st := NewArchState()
	for r, v := range p.InitReg {
		st.Regs[r] = v
	}
	for a, v := range p.InitMem {
		st.Mem[a] = v
	}

	tr := &Trace{Program: p, Final: st}
	pc := 0
	done := ctx.Done()
	for len(tr.Ops) < maxOps {
		if done != nil && len(tr.Ops)&genCancelMask == 0 && len(tr.Ops) > 0 {
			select {
			case <-done:
				return nil, fmt.Errorf("prog: trace generation cancelled at %d μops: %w",
					len(tr.Ops), context.Cause(ctx))
			default:
			}
		}
		if pc < 0 || pc >= len(p.Insts) {
			return nil, fmt.Errorf("prog: program %q: pc %d out of range", p.Name, pc)
		}
		in := &p.Insts[pc]
		if in.Halt {
			return tr, nil
		}
		d := in.Dyn(uint64(len(tr.Ops)), pc)
		switch in.Op {
		case isa.OpNop:
		case isa.OpLoad:
			d.Addr = uint64(st.Regs[in.Base]+in.Imm) &^ 7
			st.Regs[in.Dst] = st.LoadWord(d.Addr)
		case isa.OpStore:
			d.Addr = uint64(st.Regs[in.Base]+in.Imm) &^ 7
			st.StoreWord(d.Addr, st.Regs[in.Src1])
		case isa.OpBranch:
			var v int64
			if in.Src1.Valid() {
				v = st.Regs[in.Src1]
			}
			d.Taken = in.Cond.Eval(v)
			if d.Taken {
				d.Next = in.Target
			}
		default: // ALU classes
			var a, bv int64
			if in.Src1.Valid() {
				a = st.Regs[in.Src1]
			}
			if in.Src2.Valid() {
				bv = st.Regs[in.Src2]
			}
			st.Regs[in.Dst] = evalALU(in.Fn, a, bv, in.Imm)
		}
		tr.Ops = append(tr.Ops, d)
		pc = d.Next
	}
	return tr, ErrFuel
}

// MustExecute is Execute but tolerates fuel exhaustion: kernels are
// typically infinite-friendly loops that the caller truncates at maxOps.
// Genuine execution errors still panic.
func MustExecute(p *Program, maxOps int) *Trace {
	tr, err := Execute(p, maxOps)
	if err != nil && !errors.Is(err, ErrFuel) {
		panic(err)
	}
	return tr
}
