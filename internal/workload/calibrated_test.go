package workload

import (
	"math"
	"testing"

	"repro/internal/isa"
	"repro/internal/prog"
)

// TestCalibratedPresetsBuild: every catalogued operating point is an
// extra reachable through ByName, builds a valid program, and executes
// under the functional interpreter without halting early.
func TestCalibratedPresetsBuild(t *testing.T) {
	for name, chains := range CalibPresets {
		if k, ok := Lookup(name); !ok || !k.Extra {
			t.Errorf("%s: not an extra in the catalogue", name)
		}
		w, err := ByName(name, Params{})
		if err != nil {
			t.Fatalf("%s: not reachable via ByName: %v", name, err)
		}
		if w.Name != name || w.Kind != "calibrated" || w.Program == nil {
			t.Errorf("%s: malformed workload %+v", name, w)
		}
		tr := prog.MustExecute(w.Program, 5_000)
		if len(tr.Ops) != 5_000 {
			t.Errorf("%s: interpreter produced %d ops, want the full 5000 budget", name, len(tr.Ops))
		}
		if _, err := PredictIPC(chains, 8); err != nil {
			t.Errorf("%s: prediction rejected the preset: %v", name, err)
		}
	}
	if _, err := ByName("calib-nope", Params{}); err == nil {
		t.Error("unknown preset name accepted")
	}
}

// TestPredictIPCClosedForm pins the model against hand-computed points of
// the T = max(dep, FU, width) formula (loop control — one counter op and
// the back-branch — is accounted for automatically).
func TestPredictIPCClosedForm(t *testing.T) {
	cases := []struct {
		name   string
		chains []CalibChain
		width  int
		want   float64
	}{
		// One 8-op ALU recurrence: T = 8 (dep), N = 8+2 → IPC 1.25.
		{"alu-dep", []CalibChain{{isa.OpIntALU, 8}}, 8, 1.25},
		// One divider recurrence + 4 ALU background ops: the unpipelined
		// 18-cycle divider dominates, N = 1+4+2 = 7 → 7/18.
		{"div", []CalibChain{{isa.OpIntDiv, 1}, {isa.OpIntALU, 4}}, 8, 7.0 / 18.0},
		// Three 2-deep fp-mul recurrences: T = 2·4 = 8, N = 8 → IPC 1.
		{"fpmul", []CalibChain{{isa.OpFpMul, 2}, {isa.OpFpMul, 2}, {isa.OpFpMul, 2}}, 8, 1.0},
		// Ten single-load chains: dep = 5, FU = 10/4 AGUs, width = 12/8;
		// T = 5, N = 12 → IPC 2.4.
		{"mem", OccupancyChains(isa.OpLoad, 8, 0.5, 1), 8, 2.4},
		// FU-bound on a pipelined unit: ten 1-op fp-mul chains on the two
		// fp multipliers. FU = 10/2 = 5 > dep = 4; N = 12 → IPC 2.4.
		{"fpmul-fu", OccupancyChains(isa.OpFpMul, 8, 1.25, 1), 8, 2.4},
		// FU-bound on the unpipelined divider: two independent divide
		// recurrences share the single divider at rate 1/18, so
		// FU = 2·18 = 36 > dep = 18; N = 4 → IPC 1/9.
		{"div-fu", []CalibChain{{isa.OpIntDiv, 1}, {isa.OpIntDiv, 1}}, 8, 4.0 / 36.0},
	}
	for _, c := range cases {
		got, err := PredictIPC(c.chains, c.width)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: PredictIPC = %v, want %v", c.name, got, c.want)
		}
	}
	// Chains must be chainable op classes with positive lengths.
	if _, err := PredictIPC([]CalibChain{{isa.OpStore, 1}}, 8); err == nil {
		t.Error("store chain accepted")
	}
	if _, err := PredictIPC([]CalibChain{{isa.OpIntALU, 0}}, 8); err == nil {
		t.Error("zero-length chain accepted")
	}
}

// TestOccupancyChains: the derived chain count matches N = round(occ·F·lat)
// for the 8-wide Table I machine, clamped to at least one chain.
func TestOccupancyChains(t *testing.T) {
	// Loads: 4 AGUs × 5-cycle effective hop latency × 50% → 10 chains.
	if n := len(OccupancyChains(isa.OpLoad, 8, 0.5, 1)); n != 10 {
		t.Errorf("load chains = %d, want 10", n)
	}
	// Int ALU: 4 units × 1 cycle × 25% → 1 chain.
	if n := len(OccupancyChains(isa.OpIntALU, 8, 0.25, 8)); n != 1 {
		t.Errorf("alu chains = %d, want 1", n)
	}
	// Clamp: vanishing occupancy still yields one chain.
	chains := OccupancyChains(isa.OpFpMul, 8, 0.001, 2)
	if len(chains) != 1 || chains[0].Op != isa.OpFpMul || chains[0].Len != 2 {
		t.Errorf("clamped chains = %+v", chains)
	}
}
