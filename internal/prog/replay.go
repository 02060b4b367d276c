package prog

import (
	"fmt"

	"repro/internal/isa"
)

// Replay is the golden-model cross-checker: an independent functional
// executor fed the pipeline's committed μop stream. For every committed
// μop it recomputes the architectural effect — ALU result, effective
// address, branch outcome — from its own architectural state and verifies
// it against what the trace generator recorded in the DynInst. A timing
// bug that commits μops out of order, skips one, double-commits, or
// commits a squashed wrong-path μop therefore surfaces as a concrete
// divergence instead of silently producing plausible statistics.
type Replay struct {
	program *Program
	st      *ArchState
	n       uint64
	err     error
}

// NewReplay builds a replay executor over the program's initial state.
func NewReplay(p *Program) *Replay {
	return &Replay{program: p, st: initialState(p)}
}

// Ops returns how many μops have been replayed.
func (r *Replay) Ops() uint64 { return r.n }

// Err returns the first divergence found (nil if none). Once set, further
// Apply calls are no-ops: the replay state is no longer meaningful.
func (r *Replay) Err() error { return r.err }

// Apply replays one committed μop and verifies it. It returns the first
// divergence found (also retained in Err).
func (r *Replay) Apply(d *isa.DynInst) error {
	if r.err != nil {
		return r.err
	}
	if d.Seq != r.n {
		return r.fail(d, "commit stream out of order: got seq %d, want %d", d.Seq, r.n)
	}
	reg := func(a isa.Reg) int64 {
		if !a.Valid() {
			return 0
		}
		return r.st.Regs[a]
	}
	switch d.Op {
	case isa.OpNop:
	case isa.OpLoad:
		addr := uint64(reg(d.Src1)+d.Imm) &^ 7
		if addr != d.Addr {
			return r.fail(d, "load address diverged: recomputed %#x, trace has %#x", addr, d.Addr)
		}
		r.st.Regs[d.Dst] = r.st.LoadWord(addr)
	case isa.OpStore:
		addr := uint64(reg(d.Src1)+d.Imm) &^ 7
		if addr != d.Addr {
			return r.fail(d, "store address diverged: recomputed %#x, trace has %#x", addr, d.Addr)
		}
		r.st.StoreWord(addr, reg(d.Src2))
	case isa.OpBranch:
		if taken := d.Cond.Eval(reg(d.Src1)); taken != d.Taken {
			return r.fail(d, "branch outcome diverged: recomputed taken=%v, trace has %v", taken, d.Taken)
		}
	default: // ALU classes
		r.st.Regs[d.Dst] = evalALU(d.Fn, reg(d.Src1), reg(d.Src2), d.Imm)
	}
	r.n++
	return nil
}

func (r *Replay) fail(d *isa.DynInst, format string, args ...any) error {
	r.err = fmt.Errorf("prog: golden-model divergence at committed μop %d (%s): %s",
		r.n, d.String(), fmt.Sprintf(format, args...))
	return r.err
}

// VerifyFinal compares the replayed architectural state against the
// oracle's (meaningful only after the full trace committed). Registers are
// compared exhaustively; memory at every word either side wrote, reading
// each side through its own overlay. Both overlay the program's image, so
// the words neither side wrote agree.
func (r *Replay) VerifyFinal(want *ArchState) error {
	if r.err != nil {
		return r.err
	}
	for i, v := range r.st.Regs {
		if want.Regs[i] != v {
			return fmt.Errorf("prog: golden-model divergence after %d μops: r%d = %d, oracle has %d", r.n, i, v, want.Regs[i])
		}
	}
	for _, written := range []map[uint64]int64{r.st.Mem, want.Mem} {
		for a := range written {
			if v, wv := r.st.LoadWord(a), want.LoadWord(a); v != wv {
				return fmt.Errorf("prog: golden-model divergence after %d μops: mem[%#x] = %d, oracle has %d", r.n, a, v, wv)
			}
		}
	}
	return nil
}
