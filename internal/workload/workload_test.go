package workload

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/prog"
)

const testOps = 20000

// kernel builds the named catalogue kernel.
func kernel(t *testing.T, name string, p Params) Workload {
	t.Helper()
	w, err := ByName(name, p)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func opMix(t *testing.T, w Workload) map[isa.Op]int {
	t.Helper()
	tr := prog.MustExecute(w.Program, testOps)
	if len(tr.Ops) < testOps/2 {
		t.Fatalf("%s: trace too short: %d ops", w.Name, len(tr.Ops))
	}
	mix := make(map[isa.Op]int)
	for _, d := range tr.Ops {
		mix[d.Op]++
	}
	return mix
}

func TestAllKernelsExecute(t *testing.T) {
	for _, k := range Kernels() {
		if k.Extra {
			continue
		}
		w := k.Build(Params{})
		t.Run(w.Name, func(t *testing.T) {
			tr := prog.MustExecute(w.Program, testOps)
			if len(tr.Ops) == 0 {
				t.Fatal("empty trace")
			}
			// Every op must have a sane PC and operands.
			for _, d := range tr.Ops {
				if d.PC < 0 || d.PC >= len(w.Program.Insts) {
					t.Fatalf("op %v: bad PC", d)
				}
				if d.Op.IsMem() && d.Addr == 0 {
					t.Fatalf("op %v: memory op with nil address", d)
				}
			}
		})
	}
}

// TestAllReturnsSortedUniqueNames: the catalogue lists the standard suite
// first, sorted by name, then the extras; every name is unique and every
// entry carries its metadata.
func TestAllReturnsSortedUniqueNames(t *testing.T) {
	ks := Kernels()
	std := len(Names(false))
	if std < 9 {
		t.Fatalf("expected at least 9 standard kernels, got %d", std)
	}
	seen := map[string]bool{}
	for i, k := range ks {
		if seen[k.Name] {
			t.Errorf("duplicate kernel name %q", k.Name)
		}
		seen[k.Name] = true
		if k.Extra != (i >= std) {
			t.Errorf("kernel %d (%s) Extra = %v, want the standard suite first", i, k.Name, k.Extra)
		}
		if i > 0 && i < std && ks[i-1].Name >= k.Name {
			t.Errorf("standard kernels not sorted: %q >= %q", ks[i-1].Name, k.Name)
		}
		if k.Kind == "" || k.Emulate == "" {
			t.Errorf("kernel %q missing metadata", k.Name)
		}
	}
}

func TestByName(t *testing.T) {
	w, err := ByName("stream", Params{})
	if err != nil || w.Name != "stream" {
		t.Fatalf("ByName(stream) = %v, %v", w.Name, err)
	}
	if _, err := ByName("nope", Params{}); err == nil {
		t.Fatal("ByName(nope) succeeded")
	}
}

func TestPointerChaseIsSerial(t *testing.T) {
	// Property: consecutive chase loads form a serial dependence chain —
	// each pointer load's base register was written by the previous
	// pointer load.
	w := kernel(t, "pointer-chase", Params{Footprint: 1 << 20})
	tr := prog.MustExecute(w.Program, testOps)
	var chaseLoads int
	for _, d := range tr.Ops {
		// The chase load is "load r1, [r1+0]": dst == base.
		if d.IsLoad() && d.Dst == d.Src1 {
			chaseLoads++
		}
	}
	if chaseLoads < 1000 {
		t.Errorf("found %d serialising loads, expected many", chaseLoads)
	}
	// And the visited addresses should be highly irregular: count distinct
	// 64-byte lines in a window; a streaming pattern would repeat lines.
	lines := map[uint64]bool{}
	for _, d := range tr.Ops {
		if d.IsLoad() && d.Dst == d.Src1 {
			lines[d.Addr>>6] = true
		}
	}
	if len(lines) < chaseLoads*9/10 {
		t.Errorf("pointer chase revisits lines: %d lines for %d loads", len(lines), chaseLoads)
	}
}

func TestStreamIsSequential(t *testing.T) {
	w := kernel(t, "stream", Params{Footprint: 1 << 20})
	tr := prog.MustExecute(w.Program, testOps)
	// Loads from the same static PC should advance by a constant stride
	// (the unroll factor × 8 bytes).
	lastAddr := map[int]uint64{}
	strides := map[int]uint64{}
	violations := 0
	for _, d := range tr.Ops {
		if !d.IsLoad() {
			continue
		}
		if prev, ok := lastAddr[d.PC]; ok && d.Addr > prev {
			stride := d.Addr - prev
			if s, ok := strides[d.PC]; !ok {
				strides[d.PC] = stride
			} else if s != stride {
				violations++
			}
		}
		lastAddr[d.PC] = d.Addr
	}
	if violations > 0 {
		t.Errorf("%d non-constant-stride steps in stream kernel", violations)
	}
}

func TestStoreLoadHasMemoryDependences(t *testing.T) {
	w := kernel(t, "store-load", Params{})
	tr := prog.MustExecute(w.Program, testOps)
	// Property: a large fraction of loads read an address stored by a
	// recent older store (store→load distance ≤ 8 μops).
	recent := make(map[uint64]uint64) // addr → store seq
	var deps, loads int
	for _, d := range tr.Ops {
		if d.IsStore() {
			recent[d.Addr] = d.Seq
		}
		if d.IsLoad() {
			loads++
			if s, ok := recent[d.Addr]; ok && d.Seq-s <= 8 {
				deps++
			}
		}
	}
	// Half the loads are table gathers; the other half are the
	// communication loads, which must all be M-dependent.
	if loads == 0 || deps*3 < loads {
		t.Errorf("M-dependent loads = %d of %d, want ≥ a third", deps, loads)
	}
}

func TestBranchyHasHardBranches(t *testing.T) {
	w := kernel(t, "branchy", Params{})
	tr := prog.MustExecute(w.Program, testOps)
	// Find the conditional branch PC with the most balanced outcome.
	taken := map[int]int{}
	total := map[int]int{}
	for _, d := range tr.Ops {
		if d.IsBranch() && d.Cond != isa.BrAlways {
			total[d.PC]++
			if d.Taken {
				taken[d.PC]++
			}
		}
	}
	// The hash-driven branch is biased ~75/25 — predictable in neither
	// direction (mispredict rate ≈ the minority fraction).
	hard := false
	for pc, n := range total {
		if n < 500 {
			continue
		}
		ratio := float64(taken[pc]) / float64(n)
		if ratio > 0.55 && ratio < 0.9 {
			hard = true
		}
	}
	if !hard {
		t.Error("branchy kernel has no biased-but-random data-dependent branch")
	}
}

func TestKernelOpMixes(t *testing.T) {
	// Coarse sanity on instruction class fractions per kernel.
	cases := []struct {
		name        string
		p           Params
		minLoadFrac float64
		maxLoadFrac float64
		wantsFP     bool
		wantsStores bool
	}{
		{"pointer-chase", Params{Footprint: 1 << 20}, 0.25, 0.6, false, false},
		{"stream", Params{Footprint: 1 << 20}, 0.1, 0.35, true, true},
		{"compute", Params{}, 0.1, 0.35, true, false},
		{"hash-join", Params{Footprint: 1 << 20}, 0.05, 0.3, false, true},
		{"reduction", Params{}, 0.2, 0.45, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mix := opMix(t, kernel(t, tc.name, tc.p))
			var total int
			for _, n := range mix {
				total += n
			}
			loadFrac := float64(mix[isa.OpLoad]) / float64(total)
			if loadFrac < tc.minLoadFrac || loadFrac > tc.maxLoadFrac {
				t.Errorf("load fraction = %.2f, want [%.2f, %.2f]", loadFrac, tc.minLoadFrac, tc.maxLoadFrac)
			}
			fp := mix[isa.OpFpAdd] + mix[isa.OpFpMul] + mix[isa.OpFpDiv]
			if tc.wantsFP && fp == 0 {
				t.Error("expected FP μops")
			}
			if tc.wantsStores && mix[isa.OpStore] == 0 {
				t.Error("expected stores")
			}
		})
	}
}

func TestMixedHasPhases(t *testing.T) {
	w := kernel(t, "mixed", Params{Footprint: 1 << 20})
	tr := prog.MustExecute(w.Program, 60000)
	// Detect at least two distinct phases: a window dominated by loads+stores
	// and a window with no memory ops at all (the FP burst).
	const win = 256
	var sawMemPhase, sawComputePhase bool
	for i := 0; i+win <= len(tr.Ops); i += win {
		var mem int
		for _, d := range tr.Ops[i : i+win] {
			if d.Op.IsMem() {
				mem++
			}
		}
		if mem >= win/4 {
			sawMemPhase = true
		}
		if mem == 0 {
			sawComputePhase = true
		}
	}
	if !sawMemPhase || !sawComputePhase {
		t.Errorf("phases not detected: mem=%v compute=%v", sawMemPhase, sawComputePhase)
	}
}

func TestParamsDefaults(t *testing.T) {
	p := Params{}.withDefaults()
	if p.Footprint != DefaultParams.Footprint || p.Iterations != DefaultParams.Iterations {
		t.Errorf("withDefaults = %+v", p)
	}
	q := Params{Footprint: 123, Iterations: 7}.withDefaults()
	if q.Footprint != 123 || q.Iterations != 7 {
		t.Errorf("withDefaults clobbered explicit values: %+v", q)
	}
}
