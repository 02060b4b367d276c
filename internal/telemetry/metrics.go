package telemetry

import (
	"math"
	"net/http"
	"strconv"

	"repro/internal/obs"
	"repro/internal/topdown"
)

// gauge is one gauge sample of the exposition.
type gauge struct {
	name, help string
	value      float64
}

// handleMetrics renders the Prometheus exposition: service counters and
// gauges, the per-job gauges of the current (or most recent) job, the
// lifecycle latency histograms, and that job's full metrics-registry dump
// under the `ballerino_` prefix. Everything is rendered from locked
// snapshots — no handler ever touches live simulation state.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var x obs.Exposition
	tc := s.traces.Stats()
	for _, c := range []struct {
		name, help string
		value      uint64
	}{
		{"ballserved_jobs_submitted_total", "Jobs accepted into the queue.", s.submitted.Load()},
		{"ballserved_jobs_completed_total", "Jobs that finished successfully.", s.completed.Load()},
		{"ballserved_jobs_failed_total", "Jobs that ended in a simulation error.", s.failed.Load()},
		{"ballserved_jobs_cancelled_total", "Jobs cancelled before or during execution.", s.cancelled.Load()},
		{"ballserved_jobs_shed_total", "Submissions refused by admission control (HTTP 429).", s.shed.Load()},
		{"ballserved_job_retries_total", "Failed attempts re-enqueued after backoff.", s.retries.Load()},
		{"ballserved_jobs_resumed_total", "Jobs re-enqueued by crash-recovery replay.", s.resumed.Load()},
		{"ballserved_store_result_hits_total", "Results served from the durable store without recomputation.", s.storeHits.Load()},
		{"ballserved_store_errors_total", "Durable-store append/decode failures (degraded durability).", s.storeErrors.Load()},
		{"ballserved_stream_dropped_total", "SSE frames dropped on slow /stream subscribers.", s.hub.drops()},
		{"ballserved_trace_cache_hits_total", "Trace-cache lookups served from a resident trace.", tc.Hits},
		{"ballserved_trace_cache_misses_total", "Trace-cache lookups that ran the interpreter.", tc.Misses},
		{"ballserved_trace_cache_joins_total", "Trace-cache lookups that joined an in-flight generation.", tc.Joins},
	} {
		x.Counter(c.name, c.help, nil, c.value)
	}

	s.mu.Lock()
	live := s.live
	running := len(s.run)
	deadletter := 0
	for _, j := range s.order {
		if j.State() == JobParked {
			deadletter++
		}
	}
	s.mu.Unlock()

	storeResults := 0
	if s.store != nil {
		storeResults = s.store.Results()
	}
	for _, g := range []gauge{
		{"ballserved_ready", "1 when the server accepts jobs.", b2f(s.ready.Load())},
		{"ballserved_jobs_running", "Jobs currently executing.", float64(running)},
		{"ballserved_jobs_queued", "Jobs waiting in the queue.", float64(s.q.len())},
		{"ballserved_queue_capacity", "Admission-control bound on pending jobs (0 = unbounded).", float64(max(s.opts.QueueDepth, 0))},
		{"ballserved_saturated", "1 while admission control is shedding submissions.", b2f(s.saturated())},
		{"ballserved_deadletter_jobs", "Jobs parked in the dead-letter tier (retries exhausted).", float64(deadletter)},
		{"ballserved_recovery_replay_seconds", "Wall time of the last crash-recovery WAL replay.", math.Float64frombits(s.replaySeconds.Load())},
		{"ballserved_store_results", "Content-addressed results resident in the durable store.", float64(storeResults)},
		{"ballserved_workers", "Concurrent job workers.", float64(s.opts.Workers)},
		{"ballserved_stream_subscribers", "Connected /stream clients.", float64(s.hub.count())},
		{"ballserved_trace_cache_entries", "Traces resident in the cache.", float64(tc.Entries)},
		{"ballserved_trace_cache_bytes", "Bytes of resident traces.", float64(tc.BytesUsed)},
	} {
		x.Gauge(g.name, g.help, nil, g.value)
	}

	var dump *obs.MetricsDump
	var labels obs.PromLabels
	if live != nil {
		labels = obs.PromLabels{
			"job":      strconv.Itoa(live.jobID),
			"arch":     live.arch,
			"workload": live.workload,
		}
		live.mu.Lock()
		m := live.measured()
		for _, g := range []gauge{
			{"ballserved_job_ipc", "Committed μops per cycle (final value once the job is done).", m.IPC()},
			{"ballserved_job_interval_ipc", "IPC of the most recent heartbeat interval.", live.iv.IPC()},
			{"ballserved_job_cycles", "Simulated cycles in the measured region.", float64(m.EndCycle - m.StartCycle)},
			{"ballserved_job_committed", "Committed μops.", float64(m.Committed)},
			{"ballserved_job_fetched", "Fetched μops.", float64(m.Fetched)},
			{"ballserved_job_issued", "Issued μops.", float64(m.Issued)},
			{"ballserved_job_flushes", "Pipeline flushes.", float64(m.Flushes)},
			{"ballserved_job_squashed", "Squashed μops.", float64(m.Squashed)},
			{"ballserved_job_dispatch_stalls", "Dispatch stall cycles.", float64(m.DispatchStalls)},
			{"ballserved_job_mispredicts", "Branch mispredicts.", float64(m.Mispredicts)},
			{"ballserved_job_violations", "Memory order violations.", float64(m.Violations)},
			{"ballserved_job_sched_occupancy", "Scheduler occupancy at the last heartbeat.", float64(m.SchedOccupancy)},
			{"ballserved_job_lq_pressure", "Load-queue entries at the last heartbeat.", float64(m.LQ)},
			{"ballserved_job_sq_pressure", "Store-queue entries at the last heartbeat.", float64(m.SQ)},
			{"ballserved_job_piq_share_rate", "Fraction of dispatched μops allocated into a shared P-IQ partition.", live.shareRate()},
			{"ballserved_job_intervals", "Heartbeat intervals observed.", float64(live.intervals)},
			{"ballserved_job_done", "1 once the job reached a terminal state and the gauges are final.", b2f(live.done)},
		} {
			x.Gauge(g.name, g.help, labels, g.value)
		}
		if m.Topdown != nil {
			// Per-category issue-slot attribution of the live job: the
			// series sum to width × cycles by the engine's conservation
			// invariant, so `category / sum` is directly the slot share.
			for i, cat := range topdown.Names() {
				x.Counter("ballerino_topdown_slots_total", "Issue slots attributed to each top-down category.",
					obs.PromLabels{"arch": live.arch, "category": cat, "job": labels["job"], "workload": live.workload},
					m.Topdown[i])
			}
		}
		dump = live.dump
		live.mu.Unlock()
	}

	// Lifecycle latency distributions, buckets annotated with exemplar
	// trace IDs (OpenMetrics syntax; plain-Prometheus scrapers treat the
	// ` # {...}` suffix as a comment).
	x.ExemplarHists([]*obs.ExemplarHist{
		s.waitHist, s.serviceHist, s.e2eHist, s.fsyncHist, s.replayHist, s.depthHist,
	}, nil)
	x.Registry("ballerino_", dump, labels)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	x.WriteTo(w)
}

func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}
