package bench

import (
	"math"
	"strings"
	"testing"
)

// wallPoint builds a point whose samples carry only wall times.
func wallPoint(arch, wl string, walls ...float64) Point {
	p := Point{Arch: arch, Workload: wl, Width: 8, Ops: 30_000}
	for _, w := range walls {
		p.Samples = append(p.Samples, Sample{WallSeconds: w})
	}
	return p
}

func TestBestWall(t *testing.T) {
	if got := bestWall(wallPoint("A", "stream", 0.5, 0.3, 0.9)); got != 0.3 {
		t.Errorf("bestWall = %v, want 0.3", got)
	}
	// Zero samples are placeholder entries, not measurements.
	if got := bestWall(wallPoint("A", "stream", 0, 0.4)); got != 0.4 {
		t.Errorf("bestWall skipping zeros = %v, want 0.4", got)
	}
	if got := bestWall(wallPoint("A", "stream")); got != 0 {
		t.Errorf("bestWall of empty point = %v, want 0", got)
	}
}

// TestCompareSpeedupGeomean: two archs at 2× and 8× give a geomean of
// 4×, passing a 1.5× gate; a uniform 1.2× head fails it.
func TestCompareSpeedupGeomean(t *testing.T) {
	base := trajectory(
		wallPoint("InO", "branchy", 2.0, 2.2),
		wallPoint("OoO", "branchy", 8.0, 9.0),
	)
	head := trajectory(
		wallPoint("InO", "branchy", 1.0, 1.3),
		wallPoint("OoO", "branchy", 1.0, 1.1),
	)
	rep := CompareSpeedup(base, head, []string{"branchy"}, 1.5)
	if rep.Failures != 0 || len(rep.Workloads) != 1 {
		t.Fatalf("report = %+v", rep)
	}
	ws := rep.Workloads[0]
	if ws.Points != 2 || !ws.Pass {
		t.Fatalf("workload = %+v", ws)
	}
	if math.Abs(ws.Geomean-4.0) > 1e-9 || ws.Min != 2.0 || ws.Max != 8.0 {
		t.Errorf("geomean/min/max = %v/%v/%v, want 4/2/8", ws.Geomean, ws.Min, ws.Max)
	}

	slow := trajectory(
		wallPoint("InO", "branchy", 2.0/1.2),
		wallPoint("OoO", "branchy", 8.0/1.2),
	)
	rep = CompareSpeedup(base, slow, []string{"branchy"}, 1.5)
	if rep.Failures != 1 || rep.Workloads[0].Pass {
		t.Errorf("1.2× uniform speedup passed a 1.5× gate: %+v", rep)
	}
}

// TestCompareSpeedupBestOfN: only the fastest sample on each side
// matters — one slow outlier in head must not fail the gate.
func TestCompareSpeedupBestOfN(t *testing.T) {
	base := trajectory(wallPoint("InO", "branchy", 3.0, 3.1, 3.2))
	head := trajectory(wallPoint("InO", "branchy", 30.0, 1.0, 25.0))
	rep := CompareSpeedup(base, head, []string{"branchy"}, 1.5)
	if rep.Failures != 0 || math.Abs(rep.Workloads[0].Geomean-3.0) > 1e-9 {
		t.Errorf("best-of-N not used: %+v", rep.Workloads[0])
	}
}

// TestCompareSpeedupMissingWorkload: a gated workload with no matched
// points fails — absence of evidence is not a demonstrated speedup.
func TestCompareSpeedupMissingWorkload(t *testing.T) {
	base := trajectory(wallPoint("InO", "branchy", 2.0))
	head := trajectory(wallPoint("InO", "branchy", 1.0))
	rep := CompareSpeedup(base, head, []string{"branchy", "pointer-chase"}, 1.5)
	if rep.Failures != 1 || len(rep.Workloads) != 2 {
		t.Fatalf("report = %+v", rep)
	}
	for _, ws := range rep.Workloads {
		if ws.Workload == "pointer-chase" && (ws.Pass || ws.Points != 0) {
			t.Errorf("unmatched workload passed: %+v", ws)
		}
	}
	if s := rep.String(); !strings.Contains(s, "no matched points") || !strings.Contains(s, "FAIL") {
		t.Errorf("String() = %q", s)
	}
}

// TestCompareSpeedupSelfIsUnity: a trajectory against itself is exactly
// 1× everywhere and fails any factor above 1.
func TestCompareSpeedupSelfIsUnity(t *testing.T) {
	tr := trajectory(
		wallPoint("InO", "branchy", 2.0, 2.5),
		wallPoint("OoO", "branchy", 4.0),
	)
	rep := CompareSpeedup(tr, tr, []string{"branchy"}, 1.5)
	if rep.Workloads[0].Geomean != 1.0 || rep.Failures != 1 {
		t.Errorf("self-compare = %+v", rep)
	}
	if rep := CompareSpeedup(tr, tr, []string{"branchy"}, 1.0); rep.Failures != 0 {
		t.Errorf("self-compare at 1.0× failed: %+v", rep)
	}
}
