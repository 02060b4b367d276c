package workload

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/prog"
)

func TestExtrasExecute(t *testing.T) {
	for _, k := range Kernels() {
		if !k.Extra {
			continue
		}
		w := k.Build(Params{Footprint: 1 << 20})
		t.Run(w.Name, func(t *testing.T) {
			tr := prog.MustExecute(w.Program, 20000)
			if len(tr.Ops) < 10000 {
				t.Fatalf("trace too short: %d", len(tr.Ops))
			}
			for _, d := range tr.Ops {
				if d.Op.IsMem() && d.Addr == 0 {
					t.Fatalf("memory op with nil address: %v", d)
				}
			}
		})
	}
}

func TestExtrasReachableByName(t *testing.T) {
	for _, name := range []string{"bst-search", "shellsort-pass", "butterfly"} {
		if _, err := ByName(name, Params{}); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
}

func TestExtrasNotInStandardSuite(t *testing.T) {
	for _, w := range Names(false) {
		for _, e := range Names(true) {
			if w == e {
				t.Errorf("extra kernel %q leaked into the calibrated suite", e)
			}
		}
	}
}

func TestBSTSearchDescends(t *testing.T) {
	w := kernel(t, "bst-search", Params{Footprint: 1 << 20})
	tr := prog.MustExecute(w.Program, 20000)
	// The node pointer loads must visit many distinct nodes (a real walk,
	// not a self-loop), and both descend directions must occur.
	nodes := map[uint64]bool{}
	var left, right int
	for _, d := range tr.Ops {
		if d.IsLoad() && d.Dst == d.Src1 { // load node, [node+off]
			nodes[d.Addr] = true
			switch d.Addr & 31 {
			case 8:
				left++
			case 16:
				right++
			}
		}
	}
	if len(nodes) < 100 {
		t.Errorf("only %d distinct nodes visited", len(nodes))
	}
	if left == 0 || right == 0 {
		t.Errorf("descent directions: left=%d right=%d, want both", left, right)
	}
}

func TestShellSortSwapsAndSkips(t *testing.T) {
	w := kernel(t, "shellsort-pass", Params{})
	tr := prog.MustExecute(w.Program, 30000)
	var stores, branches, taken int
	for _, d := range tr.Ops {
		if d.IsStore() {
			stores++
		}
		if d.IsBranch() && d.Cond == isa.BrLTZ {
			branches++
			if d.Taken {
				taken++
			}
		}
	}
	if stores == 0 {
		t.Fatal("no swaps performed")
	}
	if branches == 0 || taken == 0 || taken == branches {
		t.Errorf("compare branch not data-dependent: %d/%d taken", taken, branches)
	}
}

func TestButterflyStridedPairs(t *testing.T) {
	w := kernel(t, "butterfly", Params{})
	tr := prog.MustExecute(w.Program, 30000)
	// Stores must come in (ptr, ptr+half*8) pairs: the distance between a
	// pair's addresses is one of the three stage strides.
	strides := map[uint64]int{}
	var prev *isa.DynInst
	for i := range tr.Ops {
		d := &tr.Ops[i]
		if !d.IsStore() {
			continue
		}
		if prev != nil && d.Addr > prev.Addr {
			strides[d.Addr-prev.Addr]++
		}
		prev = d
	}
	for _, half := range []uint64{8, 64, 512} {
		if strides[half*8] == 0 {
			t.Errorf("no store pairs at stride %d words", half)
		}
	}
}
