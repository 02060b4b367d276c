package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	ballerino "repro"
	"repro/internal/span"
	"repro/internal/telemetry"
)

// benchmarkSpec is the part of BENCHMARK.json the benchmark must honour.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// requireMetrics checks that got holds exactly the named metrics, each with
// its declared unit, and that the result line encodes.
func requireMetrics(t *testing.T, kind string, want []struct{ Name, Unit string }, got map[string]metric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics printed, BENCHMARK.json names %d", kind, len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("%s metric %s is not printed", kind, w.Name)
		case m.Unit != w.Unit:
			t.Errorf("%s metric %s printed in %q, declared in %q", kind, w.Name, m.Unit, w.Unit)
		}
	}
	if _, err := json.Marshal(result{Metrics: got}); err != nil {
		t.Errorf("%s result does not encode: %v", kind, err)
	}
}

func TestEveryMetricPrintsWithItsUnit(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, []string{"cold-run", "sweep-memory", "served"}) || len(workloads) != len(names) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames())
	}
	o := outcome{key: "k", design: "OoO", wantOps: opsPerRequest, committed: opsPerRequest, cycles: 9, latency: time.Second}
	w := windowResult{outs: []outcome{o}, rounds: 1, elapsed: time.Second, heapMB: 1}
	requireMetrics(t, "end-to-end", spec.EndToEnd, endToEnd([]float64{1, 2, 3}, w, 100))
	// An empty traced run still prints every per-layer metric.
	requireMetrics(t, "per-layer", spec.PerLayer, perLayer(&spanSet{}, windowResult{rounds: 1}, windowResult{rounds: 1}, probeResult{}, simTotals{}))
}

func TestSameSeedSameSequence(t *testing.T) {
	for name, seq := range map[string]func(seed int64, r int) any{
		"cold-run":     func(seed int64, r int) any { return coldSequence(seed, r) },
		"sweep-memory": func(seed int64, r int) any { return sweepSequence(seed, r) },
		"served":       func(seed int64, r int) any { return servedSequence(seed, r) },
	} {
		if !reflect.DeepEqual(seq(7, 1), seq(7, 1)) {
			t.Errorf("%s: seed 7 gives two different sequences", name)
		}
		if reflect.DeepEqual(seq(7, 1), seq(8, 1)) || reflect.DeepEqual(seq(7, 0), seq(7, 1)) {
			t.Errorf("%s: the seed or the round does not change the order", name)
		}
	}
}

// Every round permutes one multiset, so any seed and any number of rounds
// load the layers in the same proportions.
func TestRoundsPermuteOneMultiset(t *testing.T) {
	cold := slices.Clone(coldSequence(9, 3))
	slices.Sort(cold)
	for i, slot := range cold {
		if slot != i {
			t.Fatalf("cold-run round is not a permutation of its multiset: %v", cold)
		}
	}
	grid := map[point]bool{}
	for _, p := range sweepSequence(1, 0) {
		grid[p] = true
	}
	if len(grid) != len(sweepKernels)*len(designs) {
		t.Errorf("a sweep pass covers %d grid points, want %d", len(grid), len(sweepKernels)*len(designs))
	}
	seen := map[string]bool{}
	resubmits := 0
	for _, op := range servedSequence(5, 2) {
		if op.spec.DVFS != "L3" {
			t.Errorf("round 2 runs at DVFS %s, want L3", op.spec.DVFS)
		}
		if seen[specKey(op.spec)] {
			resubmits++
		}
		seen[specKey(op.spec)] = true
	}
	if len(seen) != len(servedKernels)*len(designs)*len(servedWidths) || resubmits != servedResubmits {
		t.Errorf("served round: %d distinct specs and %d resubmits", len(seen), resubmits)
	}
}

func TestChecksCatchACorruptedResult(t *testing.T) {
	good := outcome{key: "compute|OoO", wantOps: 30, committed: 30, cycles: 100, energyPJ: 1.5}
	if failed, problems := check([]outcome{good, good}); failed != 0 {
		t.Fatalf("clean results failed: %v", problems)
	}
	corrupt := func(f func(*outcome)) outcome { o := good; f(&o); return o }
	for name, bad := range map[string]outcome{
		"cycles":    corrupt(func(o *outcome) { o.cycles++ }),
		"energy":    corrupt(func(o *outcome) { o.energyPJ *= 1 + 1e-12 }),
		"committed": corrupt(func(o *outcome) { o.committed--; o.wantOps-- }),
		"short run": corrupt(func(o *outcome) { o.key = "other"; o.committed-- }),
		"error":     corrupt(func(o *outcome) { o.err = "boom" }),
	} {
		outs := []outcome{good, bad}
		if failed, _ := check(outs); failed != 1 || !outs[1].failed() {
			t.Errorf("a corrupted %s was not caught", name)
		}
		if got := throughput(windowResult{outs: outs, elapsed: time.Second}); got != 30 {
			t.Errorf("corrupted %s: throughput %v counts a failed result", name, got)
		}
	}
}

// The served client, the scraper and the server run concurrently; this
// drives them on a small replayed trace (run it under go test -race).
func TestServedRoundTrip(t *testing.T) {
	ctx := context.Background()
	b := &bench{name: "served", dir: t.TempDir(), out: io.Discard, tracer: span.NewTracer(-1)}
	tr, err := ballerino.PrepareTrace(ctx, ballerino.Config{Workload: "compute", MaxOps: 2000, FootprintBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(b.dir, "compute.trace")
	if err := ballerino.ExportTrace(path, tr); err != nil {
		t.Fatal(err)
	}
	s, err := newServed(ctx, b, false)
	if err != nil {
		t.Fatal(err)
	}
	spec := telemetry.JobSpec{Arch: "Ballerino", TraceFile: path}
	outs := s.run(ctx, 0, []servedOp{{spec, 0}, {spec, 1}}, "request")
	s.scr.scrape()
	trees, err := s.programTrees(ctx)
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 || outs[0].err != "" || outs[0].committed != 2000 || !outs[1].fromStore || outs[1].cycles != outs[0].cycles {
		t.Errorf("served outcomes %+v", outs)
	}
	if len(trees) != 2 || len(b.traceIDs) < 3 {
		t.Errorf("%d job span trees and %d benchmark traces, want 2 and at least 3", len(trees), len(b.traceIDs))
	}
}
