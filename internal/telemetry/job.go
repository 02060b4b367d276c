package telemetry

import (
	"context"
	"sync"
	"time"

	ballerino "repro"
	"repro/internal/obs"
	"repro/internal/span"
	"repro/internal/topdown"
)

// JobSpec is the wire form of one simulation job — the subset of
// ballerino.Config a client may select over HTTP. A job's *output*
// artifacts are its manifest and the live streams, never ad-hoc files on
// the serving host; the one path a spec may carry is TraceFile, a
// read-only *input* the operator provisions.
type JobSpec struct {
	Arch           string `json:"arch"`
	Workload       string `json:"workload"`
	Width          int    `json:"width,omitempty"`
	Ops            int    `json:"ops,omitempty"`
	WarmupOps      int    `json:"warmup_ops,omitempty"`
	FootprintBytes int64  `json:"footprint_bytes,omitempty"`
	NumPIQs        int    `json:"num_piqs,omitempty"`
	PIQDepth       int    `json:"piq_depth,omitempty"`
	DisableMDP     bool   `json:"disable_mdp,omitempty"`
	DVFS           string `json:"dvfs,omitempty"`
	// MaxCycles aborts a stuck simulation after that many cycles (0 =
	// 100× the dynamic μop budget) — the knob chaos and dead-letter tests
	// use to make a job fail deterministically.
	MaxCycles uint64 `json:"max_cycles,omitempty"`
	// Topdown attaches top-down CPI-stack cycle accounting to the run; the
	// per-category slot counters then stream through the heartbeat fan-out
	// and land in the job view and /metrics.
	Topdown bool `json:"topdown,omitempty"`
	// TraceFile names a recorded ballerino.trace/v1 file on the serving
	// host to replay instead of generating the workload's trace. The
	// file's workload identity (kernel, footprint, dynamic budget)
	// overrides Workload, FootprintBytes and Ops; timing knobs and
	// WarmupOps still apply. The server only ever reads the path, and the
	// job's content key is derived from the trace identity, so replayed
	// jobs dedup against generated ones in the durable store.
	TraceFile string `json:"trace_file,omitempty"`
}

// Config lowers the spec to a runnable ballerino.Config.
func (sp JobSpec) Config() ballerino.Config {
	return ballerino.Config{
		Arch:           sp.Arch,
		Workload:       sp.Workload,
		Width:          sp.Width,
		MaxOps:         sp.Ops,
		WarmupOps:      sp.WarmupOps,
		FootprintBytes: sp.FootprintBytes,
		NumPIQs:        sp.NumPIQs,
		PIQDepth:       sp.PIQDepth,
		DisableMDP:     sp.DisableMDP,
		DVFS:           sp.DVFS,
		MaxCycles:      sp.MaxCycles,
		Topdown:        sp.Topdown,
	}
}

// lower resolves the spec to its runnable config: when TraceFile is set,
// the trace is imported through tc, so a server shares one decode across
// jobs, and its workload identity overlaid on the config.
func (sp JobSpec) lower(ctx context.Context, tc *ballerino.TraceCache) (ballerino.Config, error) {
	cfg := sp.Config()
	if sp.TraceFile == "" {
		return cfg, nil
	}
	t, err := tc.Import(ctx, sp.TraceFile)
	if err != nil {
		return cfg, err
	}
	return t.Configure(cfg), nil
}

// JobState is a job's lifecycle phase.
type JobState string

// Job lifecycle: queued → running → done | failed | cancelled, with two
// durability detours: a failed attempt with retry budget left goes to
// retrying (and back to queued when its backoff expires), and a job
// whose retries are exhausted is parked in the dead-letter tier. A
// queued or retrying job cancelled before it (re)starts goes straight to
// cancelled.
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobRetrying  JobState = "retrying"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
	JobParked    JobState = "parked" // dead-letter: retries exhausted
)

// terminal reports whether a state is final.
func (st JobState) terminal() bool {
	switch st {
	case JobDone, JobFailed, JobCancelled, JobParked:
		return true
	}
	return false
}

// Job is one queued or executed simulation.
type Job struct {
	ID   int
	Spec JobSpec

	mu        sync.Mutex
	state     JobState
	key       string // config+trace content key
	errMsg    string
	stage     string // *SimError stage of the last failed attempt
	attempts  int    // execution attempts started
	resumed   bool   // re-enqueued by crash recovery
	fromStore bool   // result served from the durable store, not computed
	manifest  *obs.Manifest
	cancel    func() // set while running; cancels the run context
	requested bool   // an explicit cancel was asked for (vs server shutdown)
	nextRetry time.Time
	live      *liveJob
	submitted time.Time
	started   time.Time
	finished  time.Time

	// Lifecycle tracing (nil/zero when the server runs untraced). traceID
	// is derived from ID before the job is published and never written
	// again, so lock-free reads after publication are safe.
	traceID  string
	rootSpan *span.Span // the job's root lifecycle span
	waitSpan *span.Span // open "queue.wait" span while the job sits queued
	enqueued time.Time  // when the job last entered the queue
}

// JobView is the JSON rendering of a job's state.
type JobView struct {
	ID          int      `json:"id"`
	State       JobState `json:"state"`
	Error       string   `json:"error,omitempty"`
	Stage       string   `json:"stage,omitempty"`
	Attempts    int      `json:"attempts,omitempty"`
	Resumed     bool     `json:"resumed,omitempty"`
	FromStore   bool     `json:"from_store,omitempty"`
	NextRetryAt string   `json:"next_retry_at,omitempty"`
	Spec        JobSpec  `json:"spec"`
	SubmittedAt string   `json:"submitted_at,omitempty"`
	StartedAt   string   `json:"started_at,omitempty"`
	FinishedAt  string   `json:"finished_at,omitempty"`
	Intervals   int      `json:"intervals,omitempty"`
	TraceID     string   `json:"trace_id,omitempty"`
	// Topdown is the per-category issue-slot tally accumulated so far
	// (final once the job is done); present only for Topdown jobs.
	Topdown  map[string]uint64 `json:"topdown,omitempty"`
	Manifest *obs.Manifest     `json:"manifest,omitempty"`
}

func fmtTime(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}

// View snapshots the job for JSON rendering. The manifest (a large
// object) is included only on request.
func (j *Job) View(withManifest bool) JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:          j.ID,
		State:       j.state,
		Error:       j.errMsg,
		Stage:       j.stage,
		Attempts:    j.attempts,
		Resumed:     j.resumed,
		FromStore:   j.fromStore,
		NextRetryAt: fmtTime(j.nextRetry),
		Spec:        j.Spec,
		SubmittedAt: fmtTime(j.submitted),
		StartedAt:   fmtTime(j.started),
		FinishedAt:  fmtTime(j.finished),
		TraceID:     j.traceID,
	}
	if j.state != JobRetrying {
		v.NextRetryAt = ""
	}
	if j.live != nil {
		v.Intervals = j.live.intervalCount()
		v.Topdown = j.live.topdownView()
	}
	if withManifest {
		v.Manifest = j.manifest
	}
	return v
}

// State returns the job's current lifecycle phase.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Manifest returns the run manifest (nil until the job is done).
func (j *Job) Manifest() *obs.Manifest {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.manifest
}

// Key returns the job's config+trace content key.
func (j *Job) Key() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.key
}

// Attempts returns the number of execution attempts started.
func (j *Job) Attempts() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.attempts
}

// Cancel cancels the job: a queued, retrying or parked job is marked
// cancelled immediately (reported via the returned previous state), a
// running one has its run context cancelled and reaches the cancelled
// state when the pipeline notices. Terminal states are unaffected. Use
// Server-side cancellation (the HTTP handler or Server.Shutdown) for
// durable bookkeeping — Cancel itself never touches the WAL.
func (j *Job) Cancel() JobState {
	j.mu.Lock()
	prev := j.state
	switch j.state {
	case JobQueued, JobRetrying, JobParked:
		j.state = JobCancelled
		j.finished = time.Now()
		j.waitSpan.End()
		j.waitSpan = nil
	case JobRunning:
		j.requested = true
		if j.cancel != nil {
			defer j.cancel()
		}
	}
	j.mu.Unlock()
	return prev
}

// liveJob is the heartbeat-updated live state of one served job: the
// source of the per-job Prometheus gauges and of the post-completion
// /metrics view. Writes happen on the simulation goroutine via the
// recorder's interval fan-out hook; every read takes mu.
type liveJob struct {
	jobID    int
	arch     string
	workload string

	mu sync.Mutex
	// start and last are the recorder's snapshots at the start of the
	// measured region and at the last heartbeat. Every cumulative gauge is
	// their difference, which after the final (partial) interval equals
	// the end-of-run statistics by the recorder's contract.
	start, last obs.Snapshot
	iv          obs.Interval // the last heartbeat interval
	intervals   int
	dump        *obs.MetricsDump
	done        bool
}

func newLiveJob(j *Job) *liveJob {
	return &liveJob{jobID: j.ID, arch: j.Spec.Arch, workload: j.Spec.Workload}
}

// observe records one heartbeat interval, with the snapshots and registry
// dump read from the attempt's recorder. Runs on the simulation
// goroutine, where reading rec is safe by the recorder's single-threaded
// contract.
func (l *liveJob) observe(iv obs.Interval, rec *obs.Recorder) {
	dump := rec.Registry().Dump()
	start, last := rec.Snapshots()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.start, l.last, l.iv = start, last, iv
	l.intervals++
	l.dump = dump
}

// reset clears the live state before a retry attempt re-runs the job, so
// its gauges never mix two attempts.
func (l *liveJob) reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.start, l.last, l.iv = obs.Snapshot{}, obs.Snapshot{}, obs.Interval{}
	l.intervals = 0
	l.dump = nil
	l.done = false
}

// finish marks the gauges final and pins the registry dump to the run
// manifest's, which includes the scheduler counters FinalizeSched folds
// in after the last heartbeat.
func (l *liveJob) finish(m *obs.Manifest) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.done = true
	l.dump = m.Metrics
}

// measured returns the measured region up to the last heartbeat. The
// caller holds mu.
func (l *liveJob) measured() obs.Interval { return l.last.Delta(l.start) }

// shareRate is the fraction of the measured region's dispatched μops that
// allocated into a shared P-IQ partition. The caller holds mu.
func (l *liveJob) shareRate() float64 {
	d := l.last.Dispatched - l.start.Dispatched
	if d == 0 {
		return 0
	}
	return float64(l.last.PIQShares-l.start.PIQShares) / float64(d)
}

func (l *liveJob) intervalCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.intervals
}

// topdownView returns a name-keyed copy of the measured region's
// per-category issue-slot counters, or nil when the job runs without
// cycle accounting.
func (l *liveJob) topdownView() map[string]uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	slots := l.measured().Topdown
	if slots == nil {
		return nil
	}
	m := make(map[string]uint64, len(slots))
	for i, name := range topdown.Names() {
		m[name] = slots[i]
	}
	return m
}
