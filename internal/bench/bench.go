// Package bench is the wall-time trajectory layer behind cmd/benchdiff:
// it runs the tier-1 microbenchmark configurations repeatedly, records
// each run's wall time as one Sample in a Trajectory
// ("ballerino.bench/v1" JSON), and gates a head trajectory's speedup over
// a base (CompareSpeedup).
//
// Wall time is the only thing it records. The simulated counters of the
// same grid (cycles, IPC, energy) are deterministic and pinned byte for
// byte by the golden-manifest corpus (internal/pipeline's
// TestGoldenManifests), so there is nothing for a statistical comparison
// to add. A sample's wall time is its run manifest's WallSeconds. Collect
// injects every trace from the campaign's shared cache, so a sample times
// machine build and simulation, not trace generation.
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	ballerino "repro"
	"repro/internal/obs"
)

// Schema identifies the trajectory layout version.
const Schema = "ballerino.bench/v1"

// Sample is the outcome of one simulation run.
type Sample struct {
	WallSeconds float64 `json:"wall_seconds"`
}

// Point is one benchmark configuration with its repeated-run samples.
type Point struct {
	Arch     string   `json:"arch"`
	Workload string   `json:"workload"`
	Width    int      `json:"width"`
	Ops      int      `json:"ops"`
	Samples  []Sample `json:"samples"`
}

// Key identifies a point across trajectories.
func (p Point) Key() string {
	return fmt.Sprintf("%s/%s/w%d/%d", p.Arch, p.Workload, p.Width, p.Ops)
}

// Trajectory is the machine-readable record of one benchmark sweep.
type Trajectory struct {
	Schema      string  `json:"schema"`
	GitRevision string  `json:"git_revision,omitempty"`
	Points      []Point `json:"points"`
}

// Config is one benchmark configuration to collect.
type Config struct {
	Arch     string
	Workload string
	Width    int
	Ops      int
}

// DefaultConfigs is the tier-1 microbenchmark set: every architecture on a
// kernel spread that exercises the scheduler shapes the paper cares about
// (streaming, dependent loads, store-to-load, branches), small enough for
// CI to run N repetitions in seconds.
func DefaultConfigs() []Config {
	var cfgs []Config
	for _, arch := range ballerino.Architectures() {
		for _, wl := range []string{"stream", "pointer-chase", "store-load", "branchy"} {
			cfgs = append(cfgs, Config{Arch: arch, Workload: wl, Width: 8, Ops: 30_000})
		}
	}
	return cfgs
}

// Collect runs every configuration n times (n ≥ 1) and returns the
// trajectory. parallelism bounds the runs in flight (0 = GOMAXPROCS,
// 1 = strictly sequential); all n×len(cfgs) runs form one campaign
// sharing a trace cache, and samples land in the same deterministic order
// at every setting. The context cancels mid-sweep (the partial trajectory
// is discarded).
func Collect(ctx context.Context, cfgs []Config, n, parallelism int) (*Trajectory, error) {
	if n < 1 {
		return nil, fmt.Errorf("bench: %d repetitions per configuration, need at least 1", n)
	}
	// Flatten to n×len(cfgs) jobs: repetition i of point p sits at slot
	// p*n+i, so regrouping below is a deterministic reshape.
	runs := make([]ballerino.Config, 0, len(cfgs)*n)
	for _, c := range cfgs {
		for i := 0; i < n; i++ {
			runs = append(runs, ballerino.Config{
				Arch: c.Arch, Workload: c.Workload, Width: c.Width, MaxOps: c.Ops,
			})
		}
	}
	batch := ballerino.RunAll(ctx, runs, ballerino.BatchOptions{Parallelism: parallelism})
	tr := &Trajectory{
		Schema:      Schema,
		GitRevision: obs.GitRevision(),
	}
	for p, c := range cfgs {
		pt := Point{Arch: c.Arch, Workload: c.Workload, Width: c.Width, Ops: c.Ops}
		for i := 0; i < n; i++ {
			rr := batch.Results[p*n+i]
			if rr.Err != nil {
				return nil, fmt.Errorf("bench: %s run %d: %w", pt.Key(), i+1, rr.Err)
			}
			pt.Samples = append(pt.Samples, Sample{WallSeconds: rr.Result.Manifest.WallSeconds})
		}
		tr.Points = append(tr.Points, pt)
	}
	return tr, nil
}

// Load reads a "ballerino.bench/v1" trajectory from path. Fields outside
// Sample (older trajectories also carry each run's IPC, energy and
// cycles) are ignored.
func Load(path string) (*Trajectory, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	var tr Trajectory
	if err := json.Unmarshal(b, &tr); err != nil || tr.Schema != Schema {
		return nil, fmt.Errorf("bench: %s is not a %q trajectory", path, Schema)
	}
	return &tr, nil
}

// WriteFile writes the trajectory as indented JSON.
func (tr *Trajectory) WriteFile(path string) error {
	b, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	return nil
}
