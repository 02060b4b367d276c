// Package workload provides the synthetic benchmark kernels used in place of
// the paper's SPEC CPU2006/2017 SimPoint regions.
//
// Each kernel is a μop program written for the internal/prog register
// machine and is parameterised to occupy a distinct point in the workload
// property space that drives the paper's figures: ready-at-dispatch
// fraction, dependence-chain shape, cache-miss behaviour, and branch
// predictability. The catalogue (Kernels) is one table of every kernel's
// name, behaviour class, SPEC stand-in and constructor; each constructor
// documents the SPEC behaviour it emulates, as does DESIGN.md. ByName
// builds only the kernel it returns.
package workload

import (
	"fmt"
	"slices"

	"repro/internal/isa"
	"repro/internal/prog"
)

// Workload couples a program with a human-readable description of the SPEC
// behaviour it emulates.
type Workload struct {
	Name    string
	Kind    string // "memory-bound", "compute-bound", "branchy", "mixed", "calibrated"
	Emulate string // which SPEC application's behaviour this stands in for
	Program *prog.Program
}

// Kernel is one catalogue entry: a kernel's metadata and the constructor
// of its program. Listing the catalogue builds nothing; Build does.
type Kernel struct {
	Name    string
	Kind    string
	Emulate string
	// Extra marks a kernel that runs by name but stays out of the
	// standard suite every figure-level experiment averages over: the
	// figure calibration in EXPERIMENTS.md is recorded against that
	// suite, and the extras exist for exploration and for behaviours it
	// does not emphasise (data-dependent tree descent, shifting strides,
	// butterfly permutations, queuing-model operating points).
	Extra bool
	// build emits the program into a builder named after the kernel;
	// Build hands it defaulted parameters.
	build func(b *prog.Builder, p Params)
}

// catalogue is every runnable kernel: the standard suite sorted by name,
// then the extras, the calibrated operating points last in name order.
// Listings, sweep's default rows and the experiments' columns follow this
// order.
var catalogue = append([]Kernel{
	{Name: "branchy", Kind: "branchy", Emulate: "leela/gcc-like data-dependent control flow", build: branchy},
	{Name: "compute", Kind: "compute-bound", Emulate: "namd/povray-like dense FP chains", build: compute},
	{Name: "hash-join", Kind: "memory-bound", Emulate: "xalancbmk/gobmk-like random hash probes", build: hashJoin},
	{Name: "mixed", Kind: "mixed", Emulate: "gcc/perlbench-like phase alternation", build: mixed},
	{Name: "pointer-chase", Kind: "memory-bound", Emulate: "mcf/omnetpp-like serial pointer chasing", build: pointerChase},
	{Name: "reduction", Kind: "compute-bound", Emulate: "deepsjeng-like parallel reductions with merges", build: reduction},
	{Name: "sparse-trees", Kind: "memory-bound", Emulate: "omnetpp/gcc-like independent gathers with short consumer trees", build: sparseTrees},
	{Name: "stencil", Kind: "memory-bound", Emulate: "cactuBSSN/bwaves-like stencil sweeps", build: stencil},
	{Name: "store-load", Kind: "mixed", Emulate: "exchange2/perlbench-like store→load communication", build: storeLoad},
	{Name: "stream", Kind: "memory-bound", Emulate: "lbm/libquantum-like streaming sweeps", build: stream},
	{Name: "bst-search", Kind: "memory-bound", Emulate: "index-probe/tree-descent with data-dependent branching", Extra: true, build: bstSearch},
	{Name: "shellsort-pass", Kind: "mixed", Emulate: "exchange2-like compare-and-swap sweeps", Extra: true, build: shellSortPass},
	{Name: "butterfly", Kind: "compute-bound", Emulate: "FFT-like strided butterflies with FP MAC cores", Extra: true, build: butterfly},
}, calibKernels()...)

// Kernels lists the catalogue in order; the slice is the caller's.
func Kernels() []Kernel { return slices.Clone(catalogue) }

// Lookup returns the catalogue entry with the given name.
func Lookup(name string) (Kernel, bool) {
	for _, k := range catalogue {
		if k.Name == name {
			return k, true
		}
	}
	return Kernel{}, false
}

// Names lists, in catalogue order, the names of the standard suite
// (extra false) or of the extras (extra true).
func Names(extra bool) []string {
	var names []string
	for _, k := range catalogue {
		if k.Extra == extra {
			names = append(names, k.Name)
		}
	}
	return names
}

// Build constructs the kernel's program.
func (k Kernel) Build(p Params) Workload {
	b := prog.NewBuilder(k.Name)
	k.build(b, p.withDefaults())
	return Workload{Name: k.Name, Kind: k.Kind, Emulate: k.Emulate, Program: b.Build()}
}

// ByName builds the named kernel, and no other, or returns an error
// listing the valid names.
func ByName(name string, p Params) (Workload, error) {
	k, ok := Lookup(name)
	if !ok {
		return Workload{}, fmt.Errorf("workload: unknown kernel %q (valid: %v)",
			name, append(Names(false), Names(true)...))
	}
	return k.Build(p), nil
}

// Params tunes kernel sizes. The zero value is replaced by DefaultParams.
type Params struct {
	// Footprint is the approximate data footprint in bytes for
	// memory-bound kernels. Larger footprints overflow successive cache
	// levels. Default 8 MiB (overflows the 1 MiB L3).
	Footprint int64
	// Iterations bounds loop trip counts inside a kernel; the dynamic
	// stream is normally truncated by the simulator's μop budget anyway.
	Iterations int64
}

// DefaultParams is used when a Params field is zero.
var DefaultParams = Params{Footprint: 8 << 20, Iterations: 1 << 30}

func (p Params) withDefaults() Params {
	if p.Footprint == 0 {
		p.Footprint = DefaultParams.Footprint
	}
	if p.Iterations == 0 {
		p.Iterations = DefaultParams.Iterations
	}
	return p
}

// lcg is a deterministic pseudo-random generator for kernel data layout.
type lcg uint64

func (l *lcg) next() uint64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return uint64(*l >> 16)
}

// heapBase is where kernel data structures start in the address space.
// Kept away from 0 so nil-ish addresses are never valid data.
const heapBase = 1 << 20

// pointerChase emulates mcf/omnetpp: a serial linked-list traversal over a
// footprint far larger than the LLC. Nearly every load misses and each load
// feeds the next (dependence chains of length 1 per node, zero ILP),
// so performance is dominated by memory latency tolerance.
func pointerChase(b *prog.Builder, p Params) {
	nodes := p.Footprint / 64
	if nodes < 16 {
		nodes = 16
	}

	// Build a random cyclic permutation of node indices so the chase
	// visits every node once per cycle with no spatial locality.
	perm := make([]int64, nodes)
	for i := range perm {
		perm[i] = int64(i)
	}
	r := lcg(12345)
	for i := len(perm) - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	// node i at heapBase + i*64; word 0 holds address of next node.
	addrOf := func(i int64) int64 { return heapBase + i*64 }
	for i := int64(0); i < nodes; i++ {
		next := perm[i]
		b.SetMem(uint64(addrOf(i)), addrOf(next))
		b.SetMem(uint64(addrOf(i))+8, int64(i)*3+1) // payload
	}

	ptr, acc, tmp, cnt := isa.R(1), isa.R(2), isa.R(3), isa.R(4)
	b.MovImm(ptr, addrOf(0))
	b.MovImm(acc, 0)
	b.MovImm(cnt, p.Iterations)
	top := b.NewLabel()
	b.Bind(top)
	b.Load(tmp, ptr, 8)  // payload
	b.Add(acc, acc, tmp) // accumulate
	b.Load(ptr, ptr, 0)  // ptr = ptr->next  (serialising load)
	b.AddImm(cnt, cnt, -1)
	b.Branch(isa.BrNEZ, cnt, top)
}

// stream emulates lbm/libquantum: long unit-stride array sweeps
// (a[i] = b[i]*k + c[i]) with abundant ready-at-dispatch μops, perfect
// branch prediction and prefetcher-friendly access patterns.
func stream(b *prog.Builder, p Params) {
	elems := p.Footprint / (3 * 8)
	if elems < 64 {
		elems = 64
	}
	baseA := int64(heapBase)
	baseB := baseA + elems*8
	baseC := baseB + elems*8
	r := lcg(99)
	for i := int64(0); i < elems; i++ {
		b.SetMem(uint64(baseB+i*8), int64(r.next()%1000))
		b.SetMem(uint64(baseC+i*8), int64(r.next()%1000))
	}

	pa, pb, pc := isa.R(1), isa.R(2), isa.R(3)
	i, n := isa.R(4), isa.R(5)
	k := isa.F(16)
	const unroll = 4 // larger bodies mimic compiler unrolling of hot loops
	outer := b.NewLabel()
	b.Bind(outer)
	b.MovImm(pa, baseA)
	b.MovImm(pb, baseB)
	b.MovImm(pc, baseC)
	b.MovImm(i, 0)
	b.MovImm(n, elems/unroll)
	b.MovImm(k, 3)
	top := b.NewLabel()
	b.Bind(top)
	for u := 0; u < unroll; u++ {
		va, vb, vc := isa.F(3*u), isa.F(3*u+1), isa.F(3*u+2)
		off := int64(8 * u)
		b.Load(vb, pb, off)
		b.Load(vc, pc, off)
		b.FpMul(va, vb, k)
		b.FpAdd(va, va, vc)
		b.Store(va, pa, off)
	}
	b.AddImm(pa, pa, 8*unroll)
	b.AddImm(pb, pb, 8*unroll)
	b.AddImm(pc, pc, 8*unroll)
	b.AddImm(i, i, 1)
	b.Sub(isa.R(6), i, n)
	b.Branch(isa.BrNEZ, isa.R(6), top)
	b.Jmp(outer) // sweep again forever; simulator truncates
}

// compute emulates namd/povray: dense floating-point arithmetic with
// several independent medium-length dependence chains per iteration and a
// tiny, cache-resident data footprint.
func compute(b *prog.Builder, p Params) {
	const elems = 512 // 4 KiB, L1-resident
	base := int64(heapBase)
	r := lcg(7)
	for i := int64(0); i < elems; i++ {
		b.SetMem(uint64(base+i*8), int64(r.next()%4096+1))
	}
	ptr, i, n := isa.R(1), isa.R(2), isa.R(3)
	x, y, z, w := isa.F(1), isa.F(2), isa.F(3), isa.F(4)
	a0, a1, a2, a3 := isa.F(5), isa.F(6), isa.F(7), isa.F(8)
	outer := b.NewLabel()
	b.Bind(outer)
	b.MovImm(ptr, base)
	b.MovImm(i, 0)
	b.MovImm(n, elems/4)
	b.MovImm(a0, 1)
	b.MovImm(a1, 2)
	b.MovImm(a2, 3)
	b.MovImm(a3, 5)
	top := b.NewLabel()
	b.Bind(top)
	b.Load(x, ptr, 0)
	b.Load(y, ptr, 8)
	b.Load(z, ptr, 16)
	b.Load(w, ptr, 24)
	// Four short reduction trees per iteration (mul, mul → add), each
	// feeding an accumulator with a single-op link: dependence chains are
	// short-lived, per the paper's observation that "most of the time
	// dynamic instructions are derived from a bunch of short-length DCs".
	t0, t1, t2, t3 := isa.F(9), isa.F(10), isa.F(11), isa.F(12)
	u0, u1, u2, u3 := isa.F(13), isa.F(14), isa.F(15), isa.F(16)
	b.FpMul(t0, x, y)
	b.FpMul(t1, z, w)
	b.FpAdd(u0, t0, t1)
	b.FpAdd(a0, a0, u0)
	b.FpAdd(t2, x, z)
	b.FpAdd(t3, y, w)
	b.FpMul(u1, t2, t3)
	b.FpAdd(a1, a1, u1)
	b.FpMul(t0, x, w)
	b.FpMul(t1, y, z)
	b.FpAdd(u2, t0, t1)
	b.FpAdd(a2, a2, u2)
	b.FpAdd(t2, x, y)
	b.FpAdd(t3, z, w)
	b.FpMul(u3, t2, t3)
	b.FpAdd(a3, a3, u3)
	b.AddImm(ptr, ptr, 32)
	b.AddImm(i, i, 1)
	b.Sub(isa.R(4), i, n)
	b.Branch(isa.BrNEZ, isa.R(4), top)
	b.Jmp(outer)
}

// branchy emulates leela/gcc-like control-heavy code: data-dependent
// branches derived from a hash of loop state, small working set,
// short dependence chains with frequent chain splits at the condition.
func branchy(b *prog.Builder, p Params) {
	const elems = 2048 // 16 KiB, L1-resident
	base := int64(heapBase)
	r := lcg(31337)
	for i := int64(0); i < elems; i++ {
		b.SetMem(uint64(base+i*8), int64(r.next()))
	}
	ptr, i, h, v, acc, t := isa.R(1), isa.R(2), isa.R(3), isa.R(4), isa.R(5), isa.R(6)
	one := isa.R(7)
	outer := b.NewLabel()
	b.Bind(outer)
	b.MovImm(ptr, base)
	b.MovImm(i, elems)
	b.MovImm(h, 0x5bd1e995)
	b.MovImm(one, 3)
	top := b.NewLabel()
	thenL := b.NewLabel()
	join := b.NewLabel()
	b.Bind(top)
	b.Load(v, ptr, 0)
	b.Mix(h, h, v, 17)             // data-dependent hash
	b.ALU(isa.FnAnd, t, h, one, 0) // t = h & 3: 25/75, hard to predict
	b.Branch(isa.BrNEZ, t, thenL)
	// else arm: two cheap ops
	b.AddImm(acc, acc, 1)
	b.ALU(isa.FnXor, acc, acc, v, 0)
	b.Jmp(join)
	b.Bind(thenL)
	// then arm: slightly longer chain
	b.ALU(isa.FnOr, acc, acc, one, 0)
	b.Add(acc, acc, v)
	b.AddImm(acc, acc, 3)
	b.Bind(join)
	b.AddImm(ptr, ptr, 8)
	b.AddImm(i, i, -1)
	b.Branch(isa.BrNEZ, i, top)
	b.Jmp(outer)
}

// hashJoin emulates xalancbmk/gobmk hash-table probes: random-index gathers
// over an L2/L3-sized table followed by dependent arithmetic and occasional
// stores, creating irregular misses with moderate MLP.
func hashJoin(b *prog.Builder, p Params) {
	tableBytes := p.Footprint / 4
	if tableBytes < 4096 {
		tableBytes = 4096
	}
	slots := tableBytes / 8
	base := int64(heapBase)
	r := lcg(555)
	for i := int64(0); i < slots; i++ {
		b.SetMem(uint64(base+i*8), int64(r.next()%100000))
	}
	h, idx, addr, v, acc, i := isa.R(1), isa.R(2), isa.R(3), isa.R(4), isa.R(5), isa.R(6)
	mask, eight, base8 := isa.R(7), isa.R(8), isa.R(9)
	smask, sbase, saddr := isa.R(10), isa.R(11), isa.R(12)
	// Match results go to a small L1-resident scratch buffer so the kernel
	// stays read-mostly on the big table (a store-heavy random-update
	// kernel degenerates into a DRAM-bandwidth test for every core).
	const scratchSlots = 512
	scratchBase := base + slots*8
	b.MovImm(h, 0x12345)
	b.MovImm(acc, 0)
	b.MovImm(mask, slots-1) // slots is a power of two
	b.MovImm(eight, 8)
	b.MovImm(base8, base)
	b.MovImm(smask, (scratchSlots-1)*8)
	b.MovImm(sbase, scratchBase)
	b.MovImm(i, p.Iterations)
	top := b.NewLabel()
	b.Bind(top)
	// Probe keys derive from the loop counter only, so consecutive probes
	// are independent: an out-of-order window overlaps many misses (MLP)
	// where a stall-on-use core serialises them.
	b.Mix(h, h, i, 41)
	b.ALU(isa.FnAnd, idx, h, mask, 0)
	b.IntMul(addr, idx, eight)
	b.Add(addr, addr, base8)
	b.Load(v, addr, 0) // random gather
	b.Add(acc, acc, v)
	b.ALU(isa.FnXor, v, v, h, 0)
	b.ALU(isa.FnAnd, saddr, addr, smask, 0)
	b.Add(saddr, saddr, sbase)
	b.Store(v, saddr, 0) // spill the match into the scratch buffer
	b.AddImm(i, i, -1)
	b.Branch(isa.BrNEZ, i, top)
}

// stencil emulates cactuBSSN/bwaves: a 1-D three-point stencil with
// neighbouring reuse — mostly cache-friendly with periodic cold misses at
// line boundaries and wide, shallow dependence structure.
func stencil(b *prog.Builder, p Params) {
	elems := p.Footprint / (2 * 8)
	if elems < 64 {
		elems = 64
	}
	src := int64(heapBase)
	dst := src + elems*8
	r := lcg(2024)
	for i := int64(0); i < elems; i++ {
		b.SetMem(uint64(src+i*8), int64(r.next()%256))
	}
	ps, pd, i, n := isa.R(1), isa.R(2), isa.R(3), isa.R(4)
	const unroll = 4
	outer := b.NewLabel()
	b.Bind(outer)
	b.MovImm(ps, src+8)
	b.MovImm(pd, dst+8)
	b.MovImm(i, 1)
	b.MovImm(n, (elems-1)/unroll)
	top := b.NewLabel()
	b.Bind(top)
	for u := 0; u < unroll; u++ {
		l, c, rt, s := isa.F(4*u), isa.F(4*u+1), isa.F(4*u+2), isa.F(4*u+3)
		off := int64(8 * u)
		b.Load(l, ps, off-8)
		b.Load(c, ps, off)
		b.Load(rt, ps, off+8)
		b.FpAdd(s, l, c)
		b.FpAdd(s, s, rt)
		b.FpMul(s, s, c)
		b.Store(s, pd, off)
	}
	b.AddImm(ps, ps, 8*unroll)
	b.AddImm(pd, pd, 8*unroll)
	b.AddImm(i, i, 1)
	b.Sub(isa.R(5), i, n)
	b.Branch(isa.BrNEZ, isa.R(5), top)
	b.Jmp(outer)
}

// reduction emulates deepsjeng-like accumulation patterns: parallel partial
// sums that periodically merge (chain merges of Figure 1), with an
// L2-resident footprint.
func reduction(b *prog.Builder, p Params) {
	const elems = 16 << 10 // 128 KiB, L2-resident
	base := int64(heapBase)
	r := lcg(4242)
	for i := int64(0); i < elems; i++ {
		b.SetMem(uint64(base+i*8), int64(r.next()%1024))
	}
	ptr, i, n := isa.R(1), isa.R(2), isa.R(3)
	s0, s1, s2, s3 := isa.R(4), isa.R(5), isa.R(6), isa.R(7)
	v0, v1, v2, v3 := isa.R(8), isa.R(9), isa.R(10), isa.R(11)
	outer := b.NewLabel()
	b.Bind(outer)
	b.MovImm(ptr, base)
	b.MovImm(i, 0)
	b.MovImm(n, elems/8)
	b.MovImm(s0, 0)
	b.MovImm(s1, 0)
	b.MovImm(s2, 0)
	b.MovImm(s3, 0)
	top := b.NewLabel()
	b.Bind(top)
	b.Load(v0, ptr, 0)
	b.Load(v1, ptr, 8)
	b.Load(v2, ptr, 16)
	b.Load(v3, ptr, 24)
	b.Add(s0, s0, v0)
	b.Add(s1, s1, v1)
	b.Add(s2, s2, v2)
	b.Add(s3, s3, v3)
	b.Load(v0, ptr, 32)
	b.Load(v1, ptr, 40)
	b.Load(v2, ptr, 48)
	b.Load(v3, ptr, 56)
	b.Add(s0, s0, v0)
	b.Add(s1, s1, v1)
	b.Add(s2, s2, v2)
	b.Add(s3, s3, v3)
	b.AddImm(ptr, ptr, 64)
	b.AddImm(i, i, 1)
	b.Sub(isa.R(12), i, n)
	b.Branch(isa.BrNEZ, isa.R(12), top)
	// Merge the four chains (chain merge points).
	b.Add(s0, s0, s1)
	b.Add(s2, s2, s3)
	b.Add(s0, s0, s2)
	b.Jmp(outer)
}

// storeLoad emulates exchange2/perlbench-like code with frequent
// store-to-load communication through memory via different registers —
// the memory-order-violation trainer for the MDP and the workload where
// M-dependence-aware steering matters most.
func storeLoad(b *prog.Builder, p Params) {
	const elems = 1024 // 8 KiB scratch, L1-resident
	base := int64(heapBase)
	for i := int64(0); i < elems; i++ {
		b.SetMem(uint64(base+i*8), i)
	}
	// Several independent store→load communication streams. Each stream
	// gathers from an LLC-overflowing table (long latency), stores the
	// result into its communication slot and immediately reloads it
	// through a different register. The producer store lingers un-issued
	// while the gather is outstanding, so:
	//   - without MDP, the consumer load races ahead and violates
	//     (flush + replay) — the store-set predictor's premise;
	//   - with MDP but R-dependence-only steering, each load blocks a
	//     P-IQ of its own for the gather's whole latency;
	//   - with M-dependence-aware steering the load follows its store
	//     into one P-IQ, halving queue pressure (§III-B).
	const streams = 6
	tableBytes := p.Footprint / 2
	tslots := tableBytes / 8
	table := base + int64(elems)*8
	r := lcg(4242)
	for i := int64(0); i < tslots; i++ {
		b.SetMem(uint64(table+i*8), int64(r.next()%9999))
	}
	i, mask, eight, tbase := isa.R(1), isa.R(2), isa.R(3), isa.R(4)
	b.MovImm(mask, tslots-1)
	b.MovImm(eight, 8)
	b.MovImm(tbase, table)
	stride := int64(elems / streams * 8)
	outer := b.NewLabel()
	b.Bind(outer)
	for s := 0; s < streams; s++ {
		b.MovImm(isa.R(5+s), base+int64(s)*stride)  // write pointer
		b.MovImm(isa.R(11+s), base+int64(s)*stride) // read pointer (same addresses)
	}
	b.MovImm(i, elems/streams-8)
	top := b.NewLabel()
	b.Bind(top)
	for s := 0; s < streams; s++ {
		wp, rp := isa.R(5+s), isa.R(11+s)
		h, addr, gv := isa.R(17+s), isa.R(23+s), isa.R(29+s)
		v, acc := isa.R(35+s), isa.R(41+s)
		b.Mix(h, h, i, int64(3+s))
		b.ALU(isa.FnAnd, addr, h, mask, 0)
		b.IntMul(addr, addr, eight)
		b.Add(addr, addr, tbase)
		b.Load(gv, addr, 0) // long-latency gather feeding the store
		b.Store(gv, wp, 0)  // producer store (lingers until the gather returns)
		b.Load(v, rp, 0)    // M-dependent consumer load (same address)
		b.Add(acc, acc, v)
		b.AddImm(wp, wp, 8)
		b.AddImm(rp, rp, 8)
	}
	b.AddImm(i, i, -1)
	b.Branch(isa.BrNEZ, i, top)
	b.Jmp(outer)
}

// sparseTrees emulates omnetpp/gcc pointer-rich data processing: each
// iteration launches several independent gathers over an L3-overflowing
// table, each feeding a short dependent tree (2–3 ops). This is the
// paper's central workload premise — "most of the time dynamic
// instructions are derived from a bunch of short-length DCs" that stall on
// long-latency loads — and is where clustered schedulers need many P-IQs
// (or P-IQ sharing) to track all the in-flight chains.
func sparseTrees(b *prog.Builder, p Params) {
	tableBytes := p.Footprint / 2
	if tableBytes < 4096 {
		tableBytes = 4096
	}
	slots := tableBytes / 8
	base := int64(heapBase)
	r := lcg(909)
	for i := int64(0); i < slots; i++ {
		b.SetMem(uint64(base+i*8), int64(r.next()%65536))
	}
	const gathers = 4
	i, mask, eight, base8 := isa.R(1), isa.R(2), isa.R(3), isa.R(4)
	b.MovImm(mask, slots-1)
	b.MovImm(eight, 8)
	b.MovImm(base8, base)
	b.MovImm(i, p.Iterations)
	top := b.NewLabel()
	b.Bind(top)
	for g := 0; g < gathers; g++ {
		h := isa.R(5 + g)
		idx := isa.R(9 + g)
		addr := isa.R(13 + g)
		v := isa.R(17 + g)
		t := isa.R(21 + g)
		acc := isa.R(25 + g)
		// Independent probe address from the loop counter.
		b.Mix(h, h, i, int64(7+g))
		b.ALU(isa.FnAnd, idx, h, mask, 0)
		b.IntMul(addr, idx, eight)
		b.Add(addr, addr, base8)
		b.Load(v, addr, 0) // long-latency gather
		// Short dependent tree: two ops hanging off the load.
		b.ALU(isa.FnXor, t, v, h, 0)
		b.Add(acc, acc, t)
	}
	b.AddImm(i, i, -1)
	b.Branch(isa.BrNEZ, i, top)
}

// Mixed alternates phases of streaming, pointer chasing and compute,
// emulating phase-changing applications (gcc, perlbench). It is the kernel
// where Ballerino's adaptive P-IQ sharing pays off.
func mixed(b *prog.Builder, p Params) {
	// Phase A data: stream arrays (L3-overflowing).
	elems := p.Footprint / (4 * 8)
	if elems < 256 {
		elems = 256
	}
	baseA := int64(heapBase)
	baseB := baseA + elems*8
	// Phase B data: small pointer ring (L2-resident).
	const ringNodes = 4096
	ringBase := baseB + elems*8
	r := lcg(777)
	for i := int64(0); i < elems; i++ {
		b.SetMem(uint64(baseA+i*8), int64(r.next()%512))
	}
	perm := make([]int64, ringNodes)
	for i := range perm {
		perm[i] = int64(i)
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := int64(0); i < ringNodes; i++ {
		b.SetMem(uint64(ringBase+i*64), ringBase+perm[i]*64)
		b.SetMem(uint64(ringBase+i*64)+8, i)
	}

	pa, pb, i, n := isa.R(1), isa.R(2), isa.R(3), isa.R(4)
	v, acc := isa.F(1), isa.F(2)
	ptr, pv, cnt := isa.R(5), isa.R(6), isa.R(7)
	x0, x1 := isa.F(3), isa.F(4)

	// Fixed phase lengths keep all three phases visible within modest
	// simulation budgets regardless of footprint.
	phaseALen := int64(1024)
	if phaseALen > elems {
		phaseALen = elems
	}
	outer := b.NewLabel()
	b.Bind(outer)
	// Phase A: stream copy-scale.
	b.MovImm(pa, baseA)
	b.MovImm(pb, baseB)
	b.MovImm(i, 0)
	b.MovImm(n, phaseALen)
	phaseA := b.NewLabel()
	b.Bind(phaseA)
	b.Load(v, pa, 0)
	b.FpAdd(acc, acc, v)
	b.Store(v, pb, 0)
	b.AddImm(pa, pa, 8)
	b.AddImm(pb, pb, 8)
	b.AddImm(i, i, 1)
	b.Sub(isa.R(8), i, n)
	b.Branch(isa.BrNEZ, isa.R(8), phaseA)
	// Phase B: pointer chase over the ring.
	b.MovImm(ptr, ringBase)
	b.MovImm(cnt, 2048)
	phaseB := b.NewLabel()
	b.Bind(phaseB)
	b.Load(pv, ptr, 8)
	b.Load(ptr, ptr, 0)
	b.AddImm(cnt, cnt, -1)
	b.Branch(isa.BrNEZ, cnt, phaseB)
	// Phase C: FP compute burst.
	b.MovImm(i, 512)
	b.MovImm(x0, 3)
	b.MovImm(x1, 5)
	phaseC := b.NewLabel()
	b.Bind(phaseC)
	b.FpMul(x0, x0, x1)
	b.FpAdd(x0, x0, acc)
	b.FpMul(x1, x1, x0)
	b.AddImm(i, i, -1)
	b.Branch(isa.BrNEZ, i, phaseC)
	b.Jmp(outer)
}
