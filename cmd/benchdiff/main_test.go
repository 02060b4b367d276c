package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
)

// TestRunExitCodes: an -emit with no repetitions and a comparison with
// nothing to gate are usage errors (exit 2) that write nothing; a gated
// comparison exits 0 at or above its factor and 1 below it.
func TestRunExitCodes(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	head := filepath.Join(dir, "head.json")
	for path, wall := range map[string]float64{base: 2, head: 1} {
		tr := &bench.Trajectory{Schema: bench.Schema, Points: []bench.Point{{
			Arch: "InO", Workload: "branchy", Width: 8, Ops: 30_000,
			Samples: []bench.Sample{{WallSeconds: wall}},
		}}}
		if err := tr.WriteFile(path); err != nil {
			t.Fatal(err)
		}
	}
	emitted := filepath.Join(dir, "emitted.json")
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-emit", "-n", "0", "-o", emitted}, 2},
		{[]string{base, head}, 2},
		{[]string{"-speedup", "0", base, head}, 2},
		{[]string{"-speedup", "1.5", base}, 2},
		{[]string{"-speedup", "1.5", "-speedup-workloads", "branchy", base, head}, 0},
		{[]string{"-speedup", "2.5", "-speedup-workloads", "branchy", base, head}, 1},
	} {
		if got := run(tc.args); got != tc.want {
			t.Errorf("benchdiff %v: exit %d, want %d", tc.args, got, tc.want)
		}
	}
	if _, err := os.Stat(emitted); !os.IsNotExist(err) {
		t.Errorf("-emit -n 0 wrote %s (stat err %v)", emitted, err)
	}
}
