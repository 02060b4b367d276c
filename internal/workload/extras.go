package workload

import (
	"repro/internal/isa"
	"repro/internal/prog"
)

// bstSearch emulates search-tree descent (mcf's spanning-tree walks,
// database index probes): a chain of dependent loads whose direction is a
// data-dependent branch at every level. It mixes pointer-chase-like serial
// loads with leela-like hard branches.
func bstSearch(b *prog.Builder, p Params) {
	nodes := p.Footprint / 32
	if nodes < 64 {
		nodes = 64
	}
	// Depth of the balanced implicit tree.
	depth := 0
	for n := int64(1); n < nodes; n *= 2 {
		depth++
	}
	base := int64(heapBase)
	// Node i occupies 32 bytes: key, left index, right index, payload.
	r := lcg(31)
	for i := int64(0); i < nodes; i++ {
		addr := uint64(base + i*32)
		b.SetMem(addr, int64(r.next()%100000)) // key
		l, rr := 2*i+1, 2*i+2
		if l >= nodes {
			l = 0 // leaves wrap to the root (keeps the walk going)
		}
		if rr >= nodes {
			rr = 0
		}
		b.SetMem(addr+8, base+l*32)
		b.SetMem(addr+16, base+rr*32)
		b.SetMem(addr+24, int64(i))
	}

	node, key, k2, acc, i := isa.R(1), isa.R(2), isa.R(3), isa.R(4), isa.R(5)
	probe, diff := isa.R(6), isa.R(7)
	b.MovImm(node, base)
	b.MovImm(i, p.Iterations)
	top := b.NewLabel()
	left := b.NewLabel()
	cont := b.NewLabel()
	b.Bind(top)
	b.Mix(probe, probe, i, 23) // pseudo-random probe key
	b.Load(key, node, 0)
	b.Load(k2, node, 24)
	b.Add(acc, acc, k2)
	b.Sub(diff, key, probe)
	b.Branch(isa.BrLTZ, diff, left)
	b.Load(node, node, 16) // descend right
	b.Jmp(cont)
	b.Bind(left)
	b.Load(node, node, 8) // descend left
	b.Bind(cont)
	b.AddImm(i, i, -1)
	b.Branch(isa.BrNEZ, i, top)
}

// shellSortPass emulates in-place sorting passes (exchange2's permutation
// work): gap-strided compare-and-swap sweeps with data-dependent branches
// and store→load reuse at shrinking strides.
func shellSortPass(b *prog.Builder, p Params) {
	elems := int64(32 << 10 / 8) // 32 KiB working set, L1-straddling
	base := int64(heapBase)
	r := lcg(61)
	for i := int64(0); i < elems; i++ {
		b.SetMem(uint64(base+i*8), int64(r.next()%1_000_000))
	}

	gap, ptr, i, n := isa.R(1), isa.R(2), isa.R(3), isa.R(4)
	a, c, gap8 := isa.R(5), isa.R(6), isa.R(7)
	outer := b.NewLabel()
	b.Bind(outer)
	// Three fixed gaps per outer round: 64, 8, 1 elements.
	for _, g := range []int64{64, 8, 1} {
		b.MovImm(gap, g)
		b.MovImm(gap8, g*8)
		b.MovImm(ptr, base)
		b.MovImm(i, 0)
		b.MovImm(n, elems-g)
		pass := b.NewLabel()
		noswap := b.NewLabel()
		b.Bind(pass)
		b.Load(a, ptr, 0)
		b.Load(c, ptr, g*8)
		b.Sub(isa.R(8), a, c)
		b.Branch(isa.BrLTZ, isa.R(8), noswap) // already ordered
		b.Store(c, ptr, 0)                    // swap
		b.Store(a, ptr, g*8)
		b.Bind(noswap)
		b.AddImm(ptr, ptr, 8)
		b.AddImm(i, i, 1)
		b.Sub(isa.R(9), i, n)
		b.Branch(isa.BrNEZ, isa.R(9), pass)
	}
	b.Jmp(outer)
}

// butterfly emulates FFT-style butterfly passes: power-of-two strided
// paired accesses with an FP multiply-accumulate core — wide, shallow
// dependence structure over a cache-straddling footprint.
func butterfly(b *prog.Builder, p Params) {
	elems := int64(64 << 10 / 8) // 64 KiB, L2-resident
	base := int64(heapBase)
	r := lcg(71)
	for i := int64(0); i < elems; i++ {
		b.SetMem(uint64(base+i*8), int64(r.next()%4096))
	}

	ptr, i, n := isa.R(1), isa.R(2), isa.R(3)
	x, y, w, t := isa.F(1), isa.F(2), isa.F(3), isa.F(4)
	outer := b.NewLabel()
	b.Bind(outer)
	for _, half := range []int64{8, 64, 512} { // three butterfly stages
		b.MovImm(ptr, base)
		b.MovImm(i, 0)
		b.MovImm(n, elems/2/half)
		b.MovImm(w, 3)
		stage := b.NewLabel()
		b.Bind(stage)
		for u := int64(0); u < 2; u++ { // unroll two butterflies
			off := u * 8
			b.Load(x, ptr, off)
			b.Load(y, ptr, off+half*8)
			b.FpMul(t, y, w)
			b.FpAdd(y, x, t)
			b.FpSub(x, x, t)
			b.Store(y, ptr, off)
			b.Store(x, ptr, off+half*8)
		}
		b.AddImm(ptr, ptr, 16)
		b.AddImm(i, i, 1)
		b.Sub(isa.R(4), i, n)
		b.Branch(isa.BrNEZ, isa.R(4), stage)
	}
	b.Jmp(outer)
}
