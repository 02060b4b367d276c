// Package stats collects the simulation counters and per-class scheduling
// delay breakdowns that the paper's figures are built from.
package stats

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/sched"
)

// DelayBreakdown accumulates the decode-to-issue pipeline delays of one
// instruction class (Figure 3c / Figure 12): decode→dispatch,
// dispatch→ready, and ready→issue cycles.
type DelayBreakdown struct {
	Count            uint64
	DecodeToDispatch uint64
	DispatchToReady  uint64
	ReadyToIssue     uint64
}

// Avg returns the per-μop averages (0 for an empty class).
func (d DelayBreakdown) Avg() (decodeToDispatch, dispatchToReady, readyToIssue float64) {
	if d.Count == 0 {
		return 0, 0, 0
	}
	n := float64(d.Count)
	return float64(d.DecodeToDispatch) / n, float64(d.DispatchToReady) / n, float64(d.ReadyToIssue) / n
}

// Total returns the average decode-to-issue delay.
func (d DelayBreakdown) Total() float64 {
	a, b, c := d.Avg()
	return a + b + c
}

// Sim aggregates the counters of one simulation run.
type Sim struct {
	Cycles     uint64
	Committed  uint64
	Fetched    uint64
	Dispatched uint64 // μops the scheduler accepted

	Branches      uint64
	Mispredicts   uint64
	Violations    uint64 // memory order violations detected
	Flushes       uint64 // pipeline flushes (violations; mispredicts stall fetch instead)
	Squashed      uint64 // μops removed by pipeline flushes (later refetched)
	DispatchStall uint64 // cycles rename/dispatch could not move the head μop

	// Typed dispatch-stall causes. DispatchStall stays their sum — the
	// legacy aggregate every existing consumer (goldens, manifests,
	// telemetry) keeps reading — while the split feeds the stall
	// breakdown in String() and the topdown CPI stacks.
	StallROBFull  uint64 // reorder buffer full
	StallLSQFull  uint64 // load or store queue full
	StallRename   uint64 // no free physical register
	StallIQFull   uint64 // scheduler (issue queue) refused the μop
	StallInjected uint64 // fault injector vetoed dispatch

	// Delay breakdowns indexed by sched.Class, plus the all-class sum.
	Delay [3]DelayBreakdown
	All   DelayBreakdown

	// OpCommitted counts committed μops by opcode class (drives the
	// functional-unit energy model).
	OpCommitted [isa.NumOps]uint64
	// Issued counts issue events including replayed work (drives PRF and
	// FU energy).
	Issued uint64
	// OccupancySum accumulates the scheduler occupancy sampled once per
	// cycle; OccupancySum/Cycles is the average window fill.
	OccupancySum uint64
}

// AvgOccupancy returns the mean scheduler occupancy per cycle.
func (s *Sim) AvgOccupancy() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.OccupancySum) / float64(s.Cycles)
}

// Record adds a committed μop's timestamps to the breakdowns.
func (s *Sim) Record(u *sched.UOp) {
	s.OpCommitted[u.D.Op]++
	d2d := u.DispatchCycle - u.DecodeCycle
	var d2r, r2i uint64
	if u.ReadyCycle > u.DispatchCycle {
		d2r = u.ReadyCycle - u.DispatchCycle
	}
	ready := u.ReadyCycle
	if ready < u.DispatchCycle {
		ready = u.DispatchCycle
	}
	if u.IssueCycle > ready {
		r2i = u.IssueCycle - ready
	}
	for _, b := range []*DelayBreakdown{&s.Delay[u.Cls], &s.All} {
		b.Count++
		b.DecodeToDispatch += d2d
		b.DispatchToReady += d2r
		b.ReadyToIssue += r2i
	}
}

// IPC returns committed μops per cycle.
func (s *Sim) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

// MispredictRate returns mispredictions per branch.
func (s *Sim) MispredictRate() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Branches)
}

// String summarises the run. The dispatch-stall breakdown follows the
// same convention as the aggregate counters: raw cycle counts, already
// clamped at source (a cause is only counted on a cycle the head μop
// could not move), so the bracketed causes sum to dispatch-stalls.
func (s *Sim) String() string {
	return fmt.Sprintf("cycles=%d committed=%d IPC=%.3f mispredict=%.2f%% violations=%d flushes=%d squashed=%d dispatch-stalls=%d stall[rob=%d lsq=%d rename=%d iq=%d inject=%d]",
		s.Cycles, s.Committed, s.IPC(), 100*s.MispredictRate(), s.Violations,
		s.Flushes, s.Squashed, s.DispatchStall,
		s.StallROBFull, s.StallLSQFull, s.StallRename, s.StallIQFull, s.StallInjected)
}
