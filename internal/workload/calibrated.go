package workload

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/prog"
	"repro/internal/sched"
)

// This file implements workload.Calibrated: a generator that synthesizes
// op mixes to hit target functional-unit-occupancy / ILP / load-latency
// operating points, together with the Carroll–Lin-style queuing model
// (arXiv:1807.08586) that predicts its steady-state IPC in closed form.
//
// A calibrated kernel is a loop whose body is K independent loop-carried
// serial dependence chains, interleaved round-robin. Chain c executes
// Len_c μops of one opcode class per iteration, each depending on the
// previous through its private register (loads chase a private
// L1-resident pointer ring, so every hop costs the AGU + L1 hit latency
// and nothing else). Because the chains are independent and the loop
// branch is perfectly predicted, the machine's steady-state behaviour is
// the classic closed queuing network the Carroll–Lin model solves: one
// loop iteration takes
//
//	T = max( max_c Len_c·lat_c,            dependence bottleneck
//	         max_k n_k/μ_k,                FU-capacity bottleneck
//	         N/width )                     issue-width bottleneck
//
// cycles, where n_k counts the iteration's class-k μops, μ_k is the
// class-k service rate (FUs for pipelined units, FUs/latency for the
// unpipelined dividers) and N is the total μops per iteration — so
// IPC = N/T, which PredictIPC computes and TestCalibratedIPC holds the
// OoO scheduler to.

// CalibChain is one loop-carried serial dependence chain of a calibrated
// kernel: Len μops of class Op per loop iteration, each dependent on the
// previous.
type CalibChain struct {
	Op  isa.Op
	Len int
}

// CalibLoadLatency is the effective per-hop latency of a calibrated load
// chain: address generation plus an L1D hit — the rings are sized to
// live in the L1 permanently.
var CalibLoadLatency = float64(sched.Latency(isa.OpLoad)) +
	float64(mem.DefaultConfig().L1D.HitLatency)

// calibLat is the dependence latency of one chain hop.
func calibLat(op isa.Op) float64 {
	if op == isa.OpLoad {
		return CalibLoadLatency
	}
	return float64(sched.Latency(op))
}

// validCalibOp reports whether an op class can form a serial chain: it
// must produce a register for the next hop to consume.
func validCalibOp(op isa.Op) bool {
	switch op {
	case isa.OpIntALU, isa.OpIntMul, isa.OpIntDiv,
		isa.OpFpAdd, isa.OpFpMul, isa.OpFpDiv, isa.OpLoad:
		return true
	}
	return false
}

// calibRingNodes and calibRingStride size one load chain's pointer ring:
// 32 nodes × 64 B keeps a ring in two KiB, so even a dozen rings sit in
// the 32 KiB L1D with room to spare.
const (
	calibRingNodes  = 32
	calibRingStride = 64
)

// Calibrated builds the kernel for one operating point. Chains must be
// non-empty, each with a chainable op class and positive length; the
// loop-control counter and back-branch are appended automatically (and
// accounted for by PredictIPC). Invalid specs panic: operating points are
// program constants, not runtime input.
func Calibrated(name string, chains []CalibChain, p Params) Workload {
	return calibKernel(name, chains).Build(p)
}

// calibKernel is the catalogue entry of one operating point.
func calibKernel(name string, chains []CalibChain) Kernel {
	return Kernel{
		Name:    name,
		Kind:    "calibrated",
		Emulate: "queuing-model operating point (Carroll–Lin closed form)",
		Extra:   true,
		build:   func(b *prog.Builder, p Params) { calibrated(b, chains, p) },
	}
}

// calibKernels lists the CalibPresets entries in name order.
func calibKernels() []Kernel {
	names := make([]string, 0, len(CalibPresets))
	for name := range CalibPresets {
		names = append(names, name)
	}
	sort.Strings(names)
	ks := make([]Kernel, len(names))
	for i, name := range names {
		ks[i] = calibKernel(name, CalibPresets[name])
	}
	return ks
}

// calibrated emits the loop of K chain-major dependence chains.
func calibrated(b *prog.Builder, chains []CalibChain, p Params) {
	if len(chains) == 0 {
		panic("workload: calibrated kernel needs at least one chain")
	}
	// Shared constant registers for value-stable chain steps, set in the
	// initial register image so the loop body starts at instruction zero.
	one, fone, fzero := isa.R(5), isa.F(5), isa.F(6)
	b.SetReg(one, 1)
	b.SetReg(fone, 1)
	b.SetReg(fzero, 0)

	// One private register per chain; load chains also get a pointer ring.
	regs := make([]isa.Reg, len(chains))
	intN, fpN, rings := 0, 0, 0
	for i, c := range chains {
		if !validCalibOp(c.Op) || c.Len <= 0 {
			panic(fmt.Sprintf("workload: calibrated chain %d: bad spec {%v, %d}", i, c.Op, c.Len))
		}
		switch {
		case c.Op == isa.OpFpAdd || c.Op == isa.OpFpMul || c.Op == isa.OpFpDiv:
			regs[i] = isa.F(8 + fpN)
			fpN++
			b.SetReg(regs[i], 3)
		case c.Op == isa.OpLoad:
			regs[i] = isa.R(8 + intN)
			intN++
			base := uint64(heapBase + rings*calibRingNodes*calibRingStride)
			rings++
			for j := 0; j < calibRingNodes; j++ {
				node := base + uint64(j)*calibRingStride
				next := base + uint64((j+1)%calibRingNodes)*calibRingStride
				b.SetMem(node, int64(next))
			}
			b.SetReg(regs[i], int64(base))
		default:
			regs[i] = isa.R(8 + intN)
			intN++
			b.SetReg(regs[i], 3)
		}
	}

	cnt := isa.R(4)
	b.SetReg(cnt, p.Iterations)
	top := b.NewLabel()
	b.Bind(top)
	// Chain-major emission: all of chain 0, then chain 1, … On the
	// clustered architectures, dependence steering then keeps each chain
	// inside one issue-queue cluster; on the dispatch-time port binding
	// of §II-A it keeps a chain's hops from interleaving with its
	// siblings' in the balance counters. (Round-robin interleaving costs
	// parallel latency-1 chains a measurable slice of their throughput on
	// both.)
	for i, c := range chains {
		r := regs[i]
		for s := 0; s < c.Len; s++ {
			switch c.Op {
			case isa.OpIntALU:
				b.AddImm(r, r, 1)
			case isa.OpIntMul:
				b.IntMul(r, r, one)
			case isa.OpIntDiv:
				b.IntDiv(r, r, one)
			case isa.OpFpAdd:
				b.FpAdd(r, r, fzero)
			case isa.OpFpMul:
				b.FpMul(r, r, fone)
			case isa.OpFpDiv:
				b.FpDiv(r, r, fone)
			case isa.OpLoad:
				b.Load(r, r, 0)
			}
		}
	}
	b.AddImm(cnt, cnt, -1)
	b.Branch(isa.BrNEZ, cnt, top)
}

// OccupancyChains derives the chain count that drives one op class's
// functional units at the target occupancy while staying
// dependence-bound (the regime where the closed form is exact): N
// identical chains of length chainLen keep N/(F·lat) of the class's F
// units busy, so N = round(occ·F·lat), clamped to ≥1. For latency-1
// classes keep occ modest (the CalibPresets comment explains the port-
// binding queuing loss that erodes high-occupancy latency-1 points).
func OccupancyChains(op isa.Op, width int, occ float64, chainLen int) []CalibChain {
	pm, err := sched.PortsForWidth(width)
	if err != nil {
		panic(err)
	}
	fus := float64(len(pm.Candidates(op)))
	n := int(math.Round(occ * fus * calibLat(op)))
	if n < 1 {
		n = 1
	}
	chains := make([]CalibChain, n)
	for i := range chains {
		chains[i] = CalibChain{Op: op, Len: chainLen}
	}
	return chains
}

// PredictIPC evaluates the queuing model for one calibrated kernel: the
// steady-state IPC of the chains (plus the loop-control counter and
// branch Calibrated appends) on an ideal width-wide out-of-order machine
// with the Table I functional units. The real OoO scheduler is held to
// within 10% of this number by TestCalibratedIPC.
func PredictIPC(chains []CalibChain, width int) (float64, error) {
	pm, err := sched.PortsForWidth(width)
	if err != nil {
		return 0, err
	}
	// Loop control: a serial 1-op counter chain plus the back-branch.
	all := make([]CalibChain, 0, len(chains)+1)
	all = append(all, chains...)
	all = append(all, CalibChain{Op: isa.OpIntALU, Len: 1})

	classOps := make(map[isa.Op]float64)
	classOps[isa.OpBranch] = 1
	totalOps := 1.0
	tDep := calibLat(isa.OpBranch)
	for _, c := range all {
		if !validCalibOp(c.Op) || c.Len <= 0 {
			return 0, fmt.Errorf("workload: bad calibrated chain {%v, %d}", c.Op, c.Len)
		}
		classOps[c.Op] += float64(c.Len)
		totalOps += float64(c.Len)
		if t := float64(c.Len) * calibLat(c.Op); t > tDep {
			tDep = t
		}
	}

	t := tDep
	for op, n := range classOps {
		rate := float64(len(pm.Candidates(op))) // pipelined: one μop per FU per cycle
		if !sched.Pipelined(op) {
			rate /= float64(sched.Latency(op))
		}
		if fu := n / rate; fu > t {
			t = fu
		}
	}
	if w := totalOps / float64(width); w > t {
		t = w
	}
	return totalOps / t, nil
}

// CalibPresets are the catalogued calibrated operating points, derived
// for the 8-wide Table I machine. Each names a distinct bottleneck
// regime: an integer-ALU dependence recurrence, AGU/L1-latency load
// pressure, a pipelined fp-multiplier recurrence, a mixed point
// stressing several classes at once, and the unpipelined divider.
//
// The points sit in regimes the closed form governs exactly. The one
// regime deliberately avoided is several parallel latency-1 chains near
// FU capacity: §II-A binds each μop to one port at dispatch (least
// in-flight, readiness-oblivious), so lockstep latency-1 chains lose
// port arbitrations that idle sibling ALUs — a queuing loss of 15–30%
// the bottleneck model does not (and should not) hide. OccupancyChains
// still lets experiments build such points deliberately.
var CalibPresets = map[string][]CalibChain{
	// 25% of the four int ALUs, dependence-bound: one 8-op recurrence
	// (N = occ·F·lat = 0.25·4·1 = 1).
	"calib-alu25": OccupancyChains(isa.OpIntALU, 8, 0.25, 8),
	// 50% of the four AGUs through L1-hit pointer rings: 10 single-load
	// chains (N = occ·F·lat = 0.5·4·5).
	"calib-mem50": OccupancyChains(isa.OpLoad, 8, 0.5, 1),
	// Three 2-deep fp-multiply recurrences: dependence-bound at exactly
	// IPC 1.0, 75% occupancy of the two fp multipliers.
	"calib-fpmul": {
		{Op: isa.OpFpMul, Len: 2}, {Op: isa.OpFpMul, Len: 2}, {Op: isa.OpFpMul, Len: 2},
	},
	// Mixed point: ALU, multiplier, fp multiplier and load pressure
	// together, dependence-bound on the fp-multiply chain (2×4 cycles).
	"calib-mix": {
		{Op: isa.OpIntALU, Len: 6}, {Op: isa.OpIntALU, Len: 6},
		{Op: isa.OpIntMul, Len: 2}, {Op: isa.OpFpMul, Len: 2},
		{Op: isa.OpLoad, Len: 1}, {Op: isa.OpLoad, Len: 1},
		{Op: isa.OpLoad, Len: 1}, {Op: isa.OpLoad, Len: 1},
	},
	// The unpipelined divider at full occupancy: one 18-cycle recurrence
	// with light ALU background traffic.
	"calib-div": {
		{Op: isa.OpIntDiv, Len: 1},
		{Op: isa.OpIntALU, Len: 4},
	},
}
