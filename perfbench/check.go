package main

import (
	"fmt"
	"slices"
)

// check applies the output checks to a window's outcomes, in order. An
// operation fails when it errored, when it committed other than the μops it
// asked for, or when it is a recurrence of an earlier configuration of the
// run (a later sweep pass, a repeated cold-run pair, a replay of a
// generated pair, a store hit) whose cycles, committed μops or energy
// differ from that first result. Failed operations are marked in place so
// that no metric counts them.
func check(outs []outcome) (failed int, problems []string) {
	first := make(map[string]*outcome)
	for i := range outs {
		o := &outs[i]
		if o.err == "" && o.committed != o.wantOps {
			o.err = fmt.Sprintf("committed %d of %d requested uops", o.committed, o.wantOps)
		}
		if o.err == "" {
			if f, ok := first[o.key]; !ok {
				first[o.key] = o
			} else if f.cycles != o.cycles || f.committed != o.committed || f.energyPJ != o.energyPJ {
				o.err = fmt.Sprintf("does not reproduce its first result (cycles %d/%d, committed %d/%d, energy %v/%v pJ)",
					o.cycles, f.cycles, o.committed, f.committed, o.energyPJ, f.energyPJ)
			}
		}
		if o.err != "" {
			failed++
			problems = append(problems, fmt.Sprintf("round %d %s: %s", o.round, o.key, o.err))
		}
	}
	return failed, problems
}

// simTotals are exact simulated sums.
type simTotals struct {
	cycles, committed uint64
}

func (t simTotals) ipc() float64 {
	if t.cycles == 0 {
		return 0
	}
	return float64(t.committed) / float64(t.cycles)
}

// roundSums returns the simulated totals of each round of a window.
func roundSums(w windowResult) []simTotals {
	per := make([]simTotals, w.rounds)
	for _, o := range w.outs {
		if !o.failed() {
			per[o.round].cycles += o.cycles
			per[o.round].committed += o.committed
		}
	}
	return per
}

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd computes the metrics a user of the simulator sees, over the
// operations of the window that delivered a checked result.
func endToEnd(setups []float64, w windowResult, peakMB float64) map[string]metric {
	// Every round permutes one multiset, so each operation of it recurs
	// once per round: take its median latency over the window's rounds,
	// then the quantiles over the multiset.
	perSlot := map[int][]float64{}
	for _, o := range w.outs {
		if !o.failed() {
			perSlot[o.slot] = append(perSlot[o.slot], o.latency.Seconds())
		}
	}
	var lat []float64
	for _, xs := range perSlot {
		lat = append(lat, quantile(xs, 0.5))
	}
	return map[string]metric{
		"setup_s":        {quantile(setups, 0.5), "s"},
		"request_p50_s":  {quantile(lat, 0.5), "s"},
		"request_p90_s":  {quantile(lat, 0.9), "s"},
		"sim_uops_per_s": {throughput(w), "uops/s"},
		"live_heap_mb":   {w.heapMB, "MB"},
		"peak_rss_mb":    {peakMB, "MB"},
	}
}

// throughput is the committed μops of delivered results per host second of
// the window.
func throughput(w windowResult) float64 {
	var committed uint64
	for _, o := range w.outs {
		if !o.failed() {
			committed += o.committed
		}
	}
	return ratio(float64(committed), w.elapsed.Seconds())
}

// quantile interpolates linearly between order statistics (0 when xs is
// empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
