package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func trajectory(points ...Point) *Trajectory {
	return &Trajectory{Schema: Schema, Points: points}
}

// TestTrajectoryRoundTrip: a written trajectory loads back intact, and
// the committed baseline — written when samples also carried IPC, energy
// and cycles — still loads, with one point per default configuration.
func TestTrajectoryRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.json")
	tr := trajectory(wallPoint("Ballerino", "stream", 0.5, 0.25))
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != Schema || len(got.Points) != 1 || len(got.Points[0].Samples) != 2 ||
		got.Points[0].Samples[1].WallSeconds != 0.25 {
		t.Fatalf("round trip lost data: %+v", got)
	}

	base, err := Load(filepath.Join("..", "..", "BENCH_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Points) != 48 {
		t.Errorf("baseline has %d points, want 48", len(base.Points))
	}
	keys := map[string]bool{}
	for _, p := range base.Points {
		keys[p.Key()] = true
	}
	for _, c := range DefaultConfigs() {
		p := Point{Arch: c.Arch, Workload: c.Workload, Width: c.Width, Ops: c.Ops}
		if !keys[p.Key()] {
			t.Errorf("baseline lacks default config %s", p.Key())
		}
	}
}

// TestLoadRejectsOtherJSON: only trajectories load. A run manifest's wall
// time covers its trace generation, so it is not a gate input.
func TestLoadRejectsOtherJSON(t *testing.T) {
	dir := t.TempDir()
	for i, body := range []string{`{"schema": "ballerino.run/v1"}`, `[{"schema": "ballerino.run/v1"}]`, `not json`} {
		path := filepath.Join(dir, fmt.Sprintf("%d.json", i))
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil {
			t.Errorf("accepted %s", body)
		}
	}
}

// TestCollectDeterministic: Collect returns one point per configuration
// with one positive wall-time sample per repetition. Cross-repetition
// equality of the simulated counters is TestRunAllDeterministicManifests'
// job in the root package.
func TestCollectDeterministic(t *testing.T) {
	cfgs := []Config{{Arch: "Ballerino", Workload: "store-load", Width: 8, Ops: 5_000}}
	tr, err := Collect(context.Background(), cfgs, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Points) != 1 || len(tr.Points[0].Samples) != 3 {
		t.Fatalf("collected %+v", tr)
	}
	for i, s := range tr.Points[0].Samples {
		if s.WallSeconds <= 0 {
			t.Errorf("sample %d: wall time %v, want > 0", i, s.WallSeconds)
		}
	}
}

// TestCollectCancelled: a cancelled sweep propagates the context error.
func TestCollectCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Collect(ctx, DefaultConfigs(), 1, 0); err == nil {
		t.Error("cancelled Collect returned nil error")
	}
}

func TestDefaultConfigsValid(t *testing.T) {
	cfgs := DefaultConfigs()
	if len(cfgs) == 0 {
		t.Fatal("no default configs")
	}
	seen := map[string]bool{}
	for _, c := range cfgs {
		p := Point{Arch: c.Arch, Workload: c.Workload, Width: c.Width, Ops: c.Ops}
		if seen[p.Key()] {
			t.Errorf("duplicate config %s", p.Key())
		}
		seen[p.Key()] = true
	}
}
