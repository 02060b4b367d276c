package bench

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// WallSpeedup is one workload's best-of-N wall-time comparison across
// every architecture that appears in both trajectories.
type WallSpeedup struct {
	Workload string
	Points   int     // matched (arch, width, ops) points
	Geomean  float64 // base/head best wall time, >1 = head faster
	Min      float64
	Max      float64
	Pass     bool
}

// SpeedupReport is the wall-time speedup gate over a workload subset.
type SpeedupReport struct {
	Factor    float64 // required geomean speedup
	Workloads []WallSpeedup
	Failures  int
}

// bestWall returns the fastest wall-clock sample of a point — the
// best-of-N estimator, which discards scheduler noise instead of
// averaging it in (wall time is the one metric where repeated runs of
// the deterministic simulator differ).
func bestWall(p Point) float64 {
	best := math.Inf(1)
	for _, s := range p.Samples {
		if s.WallSeconds > 0 && s.WallSeconds < best {
			best = s.WallSeconds
		}
	}
	if math.IsInf(best, 1) {
		return 0
	}
	return best
}

// CompareSpeedup gates head's simulation wall time against base on the
// named workloads: for every matched point of a workload it takes the
// best-of-N wall-time ratio base/head, and the workload passes when the
// geometric mean of those ratios reaches factor. It protects the
// simulator itself — the hot-loop speedup a PR claims must reproduce on
// the gate machine. A workload with no matched points counts as a
// failure: an absent measurement cannot demonstrate a speedup.
func CompareSpeedup(base, head *Trajectory, workloads []string, factor float64) *SpeedupReport {
	headByKey := map[string]Point{}
	for _, p := range head.Points {
		headByKey[p.Key()] = p
	}
	rep := &SpeedupReport{Factor: factor}
	for _, wl := range workloads {
		ws := WallSpeedup{Workload: wl, Min: math.Inf(1)}
		var logSum float64
		for _, bp := range base.Points {
			if bp.Workload != wl {
				continue
			}
			hp, ok := headByKey[bp.Key()]
			if !ok {
				continue
			}
			bw, hw := bestWall(bp), bestWall(hp)
			if bw == 0 || hw == 0 {
				continue
			}
			r := bw / hw
			logSum += math.Log(r)
			ws.Points++
			if r < ws.Min {
				ws.Min = r
			}
			if r > ws.Max {
				ws.Max = r
			}
		}
		if ws.Points > 0 {
			ws.Geomean = math.Exp(logSum / float64(ws.Points))
			ws.Pass = ws.Geomean >= factor
		} else {
			ws.Min = 0
		}
		if !ws.Pass {
			rep.Failures++
		}
		rep.Workloads = append(rep.Workloads, ws)
	}
	sort.Slice(rep.Workloads, func(i, j int) bool {
		return rep.Workloads[i].Workload < rep.Workloads[j].Workload
	})
	return rep
}

// String renders the report as one line per workload.
func (rep *SpeedupReport) String() string {
	var sb strings.Builder
	for _, ws := range rep.Workloads {
		verdict := "ok"
		if !ws.Pass {
			verdict = "FAIL"
		}
		if ws.Points == 0 {
			fmt.Fprintf(&sb, "speedup %-14s no matched points (need ≥%.2f×)  %s\n",
				ws.Workload, rep.Factor, verdict)
			continue
		}
		fmt.Fprintf(&sb, "speedup %-14s %.2f× geomean over %d points (min %.2f×, max %.2f×, need ≥%.2f×)  %s\n",
			ws.Workload, ws.Geomean, ws.Points, ws.Min, ws.Max, rep.Factor, verdict)
	}
	return sb.String()
}
