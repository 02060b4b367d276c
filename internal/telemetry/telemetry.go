// Package telemetry is the live observability and durable-execution
// service behind cmd/ballserved: a long-running HTTP server that
// executes simulation jobs (submitted via POST /jobs or a startup
// playlist) on a worker pool and exposes
//
//   - GET /metrics — Prometheus text exposition: service counters
//     (including shed/retry/dead-letter/recovery durability metrics),
//     per-job gauges (IPC, scheduler occupancy, LQ/SQ pressure, P-IQ
//     sharing rate) and the full obs.Registry dump of the current (or
//     most recent) job;
//   - GET /stream — Server-Sent Events pushing every heartbeat
//     obs.Interval live as the simulation's cycles tick, plus job
//     lifecycle transitions;
//   - GET /healthz, /readyz — liveness and readiness (/readyz degrades
//     to 503 while the queue is saturated or crash recovery is still
//     replaying, so load balancers stop routing to this node);
//   - GET /jobs, /jobs/{id}, POST /jobs, POST /jobs/{id}/cancel — the job
//     API (a running job cancels via the pipeline's cooperative context);
//   - GET /deadletter, POST /jobs/{id}/retry — the dead-letter tier:
//     jobs whose retry budget is exhausted, inspectable and revivable;
//   - /debug/pprof/* — net/http/pprof.
//
// With Options.Store set, every job transition is written ahead to an
// fsync'd WAL (internal/jobstore) before it is acted on: a crash — even
// `kill -9` — loses nothing acknowledged. Start replays the log,
// re-enqueues jobs that were queued, running or waiting on a retry, and
// serves jobs whose config+trace content key already has a stored result
// without recomputation. Failed attempts retry with capped exponential
// backoff plus seeded jitter up to Options.MaxRetries, then park in the
// dead-letter tier. Submissions beyond Options.QueueDepth are shed with
// a typed SaturatedError the HTTP layer maps to 429 + Retry-After
// (estimated by Little's law from the live service-time EWMA).
//
// The heartbeat plumbing rides the obs.Recorder interval fan-out: every
// hook runs on the simulation goroutine, and the liveJob/hub layers do
// their own locking to hand snapshots to HTTP handlers, so the server is
// race-clean under `go test -race`. Shutdown cancels the running job,
// flushes its sinks, disconnects every stream subscriber, and — with a
// store — checkpoints so queued and running jobs resume on restart.
package telemetry

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	rtpprof "runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	ballerino "repro"
	"repro/internal/jobstore"
	"repro/internal/obs"
	"repro/internal/span"
)

// Options configures a Server.
type Options struct {
	// HeartbeatCycles is the served jobs' heartbeat period in simulation
	// cycles (0 = obs.DefaultInterval).
	HeartbeatCycles uint64
	// QueueDepth bounds externally submitted pending jobs (0 = 64;
	// negative = unbounded). Submissions beyond it are shed with a
	// *SaturatedError. Internal re-enqueues — crash recovery and retry
	// backoff — bypass the bound: work the server already accepted is
	// never dropped by admission control.
	QueueDepth int
	// Workers is the number of jobs executed concurrently (0 or negative =
	// 1, the classic strictly-ordered queue).
	Workers int

	// Store, when non-nil, makes the job queue durable: every lifecycle
	// transition is WAL-appended before it is acted on, Start replays the
	// log and re-enqueues unfinished jobs, and completed results are
	// served by config+trace content key without recomputation. The
	// server takes ownership: Shutdown checkpoints and closes it.
	Store *jobstore.Store
	// JobTimeout is the per-job execution deadline (0 = none). A job
	// killed by it fails its attempt with a Stage "timeout" *SimError —
	// distinct from caller cancellation — and is retried like any other
	// failure.
	JobTimeout time.Duration
	// MaxRetries is how many times a failed attempt is retried (with
	// capped exponential backoff + jitter) before the job is parked in
	// the dead-letter tier. 0 = no retries: a failed job goes straight to
	// the failed state.
	MaxRetries int
	// RetryBaseDelay is the nominal delay before the first retry
	// (0 = 250ms); each further retry doubles it up to RetryMaxDelay
	// (0 = 15s). Every delay is jittered to 50–100% of nominal.
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
	// ChaosSpec injects seeded service-layer chaos, e.g. "seed=7,fail=0.25"
	// fails 25% of attempts (before they run) from a deterministic seeded
	// stream — the internal/faults idiom lifted to the job fabric, used by
	// the crash/degradation harnesses.
	ChaosSpec string

	// Tracer, when non-nil, records a lifecycle span tree per job (see
	// internal/span): submit → queue.wait → wal.append → attempt[n]
	// (cache.lookup, trace.generate, sim.warmup, sim.run) → result.store,
	// exported via GET /jobs/{id}/spans and as exemplar trace IDs on the
	// latency histograms. Trace IDs are derived deterministically from the
	// job ID, so a restarted server extends the same trace. nil = tracing
	// off, and every instrumentation site costs one untaken nil check.
	Tracer *span.Tracer
	// Logger, when non-nil, receives structured logs for every lifecycle
	// transition, each carrying the job's trace_id. nil = discard.
	Logger *slog.Logger
}

// SaturatedError is returned by Submit when admission control sheds the
// job: the pending queue is at QueueDepth. The HTTP layer renders it as
// 429 Too Many Requests with a Retry-After estimated from the current
// occupancy and the live service-time EWMA (Little's law).
type SaturatedError struct {
	Pending    int
	RetryAfter time.Duration
}

func (e *SaturatedError) Error() string {
	return fmt.Sprintf("telemetry: job queue saturated (%d pending); retry in %s", e.Pending, e.RetryAfter)
}

// ErrStoreDegraded wraps submissions refused because the durable store
// could not persist the submitted record — accepting a job the WAL never
// saw would break the crash-safety contract.
var ErrStoreDegraded = errors.New("telemetry: durable store unavailable")

// errChaosInjected is the synthetic failure the seeded chaos injector
// assigns to an attempt it kills.
var errChaosInjected = errors.New("chaos: injected attempt failure")

// Server executes simulation jobs and serves their live telemetry. Create
// with NewServer, start the worker with Start, mount Handler, and stop
// with Shutdown.
type Server struct {
	opts  Options
	hub   *hub
	retry *retrier
	store *jobstore.Store

	baseCtx   context.Context
	cancelAll context.CancelFunc
	wg        sync.WaitGroup
	q         *jobQueue

	started    atomic.Bool
	ready      atomic.Bool
	recovering atomic.Bool

	submitted atomic.Uint64
	completed atomic.Uint64
	failed    atomic.Uint64
	cancelled atomic.Uint64

	shed        atomic.Uint64 // submissions refused by admission control
	retries     atomic.Uint64 // attempt re-enqueues after backoff
	storeHits   atomic.Uint64 // results served from the durable store
	storeErrors atomic.Uint64 // WAL appends that failed (degraded mode)
	resumed     atomic.Uint64 // jobs re-enqueued by crash recovery

	replaySeconds atomic.Uint64 // math.Float64bits of the recovery replay duration

	ewmaMu  sync.Mutex
	ewmaSec float64 // EWMA of job attempt duration, seconds

	traces *ballerino.TraceCache // shared across all served jobs

	tracer *span.Tracer // nil = lifecycle tracing off
	log    *slog.Logger // never nil (discard handler when unset)

	// Lifecycle latency distributions, each bucket carrying the trace ID
	// of the last job that landed in it (OpenMetrics exemplars).
	waitHist    *obs.ExemplarHist // queue wait: submit → worker pickup
	serviceHist *obs.ExemplarHist // attempt wall time
	e2eHist     *obs.ExemplarHist // submit → terminal state
	fsyncHist   *obs.ExemplarHist // WAL fsync, from the jobstore observer
	replayHist  *obs.ExemplarHist // crash-recovery replay wall time
	depthHist   *obs.ExemplarHist // queue depth observed at submit

	mu     sync.Mutex
	jobs   map[int]*Job
	order  []*Job
	nextID int
	run    map[int]*Job // jobs currently executing, by ID
	live   *liveJob     // most recently started (or finished) job's live state
}

// NewServer builds a server (not yet running; call Start). The only
// constructor error is a malformed Options.ChaosSpec.
func NewServer(opts Options) (*Server, error) {
	if opts.QueueDepth == 0 {
		opts.QueueDepth = 64
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	retry, err := newRetrier(opts.RetryBaseDelay, opts.RetryMaxDelay, opts.ChaosSpec)
	if err != nil {
		return nil, err
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	// Latency bounds in seconds: sub-millisecond fsyncs up to multi-minute
	// simulations, roughly ×4 per bucket.
	latency := []float64{0.001, 0.005, 0.025, 0.1, 0.25, 1, 4, 15, 60, 240}
	fsyncB := []float64{0.0001, 0.00025, 0.001, 0.0025, 0.01, 0.05, 0.25, 1}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:      opts,
		hub:       newHub(logger),
		retry:     retry,
		store:     opts.Store,
		baseCtx:   ctx,
		cancelAll: cancel,
		q:         newJobQueue(),
		jobs:      make(map[int]*Job),
		run:       make(map[int]*Job),
		nextID:    1,
		traces:    ballerino.NewTraceCache(0),
		tracer:    opts.Tracer,
		log:       logger,
		waitHist: obs.NewExemplarHist("ballserved_queue_wait_seconds",
			"Time from submission to a worker picking the job up.", latency),
		serviceHist: obs.NewExemplarHist("ballserved_job_attempt_seconds",
			"Wall time of one execution attempt.", latency),
		e2eHist: obs.NewExemplarHist("ballserved_job_e2e_seconds",
			"Time from submission to the job's terminal state.", latency),
		fsyncHist: obs.NewExemplarHist("ballserved_wal_fsync_seconds",
			"WAL fsync latency per appended lifecycle record.", fsyncB),
		replayHist: obs.NewExemplarHist("ballserved_replay_duration_seconds",
			"Crash-recovery WAL replay wall time.", latency),
		depthHist: obs.NewExemplarHist("ballserved_queue_depth_at_submit",
			"Pending jobs observed by each accepted submission.",
			[]float64{0, 1, 2, 4, 8, 16, 32, 64, 128}),
	}
	if s.store != nil {
		// The store times every append's fsync; feed the latency histogram
		// with the owning job's (deterministic) trace ID as the exemplar.
		s.store.SetObserver(func(st jobstore.AppendStats) {
			s.fsyncHist.Observe(st.Fsync.Seconds(), jobTraceID(st.Job))
		})
	}
	return s, nil
}

// jobTraceID derives job id's stable trace ID. Deriving from the durable
// job ID (never reused: restart continues the WAL's ID sequence) is what
// lets spans recorded before and after a crash share one trace.
func jobTraceID(id int) string {
	return span.DeriveID(fmt.Sprintf("ballserved.job.%d", id))
}

// Start replays the durable store (if any), re-enqueues unfinished jobs,
// launches the worker pool and marks the server ready. Idempotent.
// /readyz reports 503 until the recovery replay has finished.
func (s *Server) Start() {
	if s.started.Swap(true) {
		return
	}
	s.recoverStore()
	for i := 0; i < s.opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.ready.Store(true)
}

// recoverStore rebuilds the job table from the store's replayed state:
// terminal jobs are registered as-is, unfinished jobs are re-enqueued
// (or served straight from a stored result when one exists for their
// content key), and jobs whose failure count already exceeds the retry
// budget are parked in the dead-letter tier.
func (s *Server) recoverStore() {
	if s.store == nil {
		return
	}
	s.recovering.Store(true)
	defer s.recovering.Store(false)
	start := time.Now()

	recovered := 0
	for _, jr := range s.store.Jobs() {
		recovered++
		job := &Job{ID: jr.ID, key: jr.Key, attempts: jr.Attempts, stage: jr.Stage, errMsg: jr.Error}
		job.traceID = jobTraceID(jr.ID)
		var spec JobSpec
		specErr := json.Unmarshal(jr.Spec, &spec)
		job.Spec = spec

		// Rebuild the pre-crash half of the job's trace from the WAL's
		// event history: same deterministic trace ID, spans stamped with
		// the wall-clock times the log recorded.
		root := s.synthesizeTrace(job, jr.History)

		switch {
		case jr.Terminal == jobstore.OpCompleted:
			job.state = JobDone
			job.fromStore = true
			job.manifest = decodeManifest(jr.Result)
		case jr.Terminal == jobstore.OpCanceled:
			job.state = JobCancelled
		case specErr != nil:
			job.state = JobParked
			job.stage = "spec"
			job.errMsg = fmt.Sprintf("recovered spec unreadable: %v", specErr)
			root.SetAttr("outcome", string(JobParked))
			root.End()
		case jr.Failures > s.opts.MaxRetries && jr.Failures > 0:
			// The job had already exhausted (or would now exhaust) its
			// retry budget when the process died.
			if s.opts.MaxRetries > 0 {
				job.state = JobParked
			} else {
				job.state = JobFailed
			}
			root.SetAttr("outcome", string(job.state))
			root.End()
		default:
			if m := s.storedResult(jr.Key); m != nil {
				// Idempotent resume: the grid point was computed before the
				// crash under another job with the same content key.
				job.state = JobDone
				job.fromStore = true
				job.manifest = m
				job.errMsg, job.stage = "", ""
				s.storeHits.Add(1)
				s.appendWAL(root, jobstore.Record{Op: jobstore.OpCompleted, Job: job.ID, Key: jr.Key, Result: jr.Result})
				root.SetAttr("outcome", "store-hit")
				root.End()
			} else {
				job.state = JobQueued
				job.resumed = true
				job.errMsg, job.stage = "", ""
				s.resumed.Add(1)
				rep := root.Child("replay")
				rep.SetInt("prior_attempts", int64(jr.Attempts))
				rep.End()
				job.rootSpan = root
				job.enqueued = time.Now()
				job.waitSpan = root.Child("queue.wait")
			}
		}

		s.mu.Lock()
		s.jobs[job.ID] = job
		s.order = append(s.order, job)
		s.mu.Unlock()
		if job.state == JobQueued {
			s.q.push(job)
		}
	}
	s.mu.Lock()
	s.nextID = s.store.MaxJobID() + 1
	s.mu.Unlock()

	total := s.store.Recovery().Duration + time.Since(start)
	s.replaySeconds.Store(math.Float64bits(total.Seconds()))
	s.replayHist.Observe(total.Seconds(), "")
	if recovered > 0 {
		s.log.Info("recovery replay finished", "jobs", recovered,
			"resumed", s.resumed.Load(), "duration", total)
	}
}

// synthesizeTrace reconstructs the pre-crash span tree of a recovered job
// from its WAL history: a root "job" span starting at the first recorded
// event, a closed "submit", and one "attempt" child per started attempt.
// An attempt the log never saw finish was interrupted by the crash; it is
// closed at recovery time and marked interrupted. The returned root stays
// open unless the history itself reached a terminal record — resumable
// jobs keep accumulating live spans on the same trace.
func (s *Server) synthesizeTrace(job *Job, history []jobstore.HistoryEvent) *span.Span {
	if s.tracer == nil || len(history) == 0 {
		return nil
	}
	root := s.tracer.StartAt(job.traceID, "job", history[0].Time)
	root.SetAttr("arch", job.Spec.Arch)
	root.SetAttr("workload", job.Spec.Workload)
	root.SetInt("job", int64(job.ID))
	root.SetAttr("source", "wal")
	var attempt *span.Span
	for _, ev := range history {
		switch ev.Op {
		case jobstore.OpSubmitted:
			sub := root.ChildAt("submit", ev.Time)
			sub.SetAttr("source", "wal")
			sub.EndAt(ev.Time)
		case jobstore.OpStarted:
			attempt = root.ChildAt("attempt", ev.Time)
			attempt.SetInt("n", int64(ev.Attempt))
			attempt.SetAttr("source", "wal")
		case jobstore.OpAttemptFailed:
			if attempt != nil {
				if ev.Stage != "" {
					attempt.SetAttr("stage", ev.Stage)
				}
				attempt.Fail(errors.New(ev.Error))
				attempt.EndAt(ev.Time)
				attempt = nil
			}
		case jobstore.OpCompleted:
			attempt.EndAt(ev.Time)
			attempt = nil
			root.SetAttr("outcome", "done")
			root.EndAt(ev.Time)
		case jobstore.OpCanceled:
			attempt.EndAt(ev.Time)
			attempt = nil
			root.SetAttr("outcome", "cancelled")
			root.EndAt(ev.Time)
		}
	}
	if attempt != nil {
		attempt.SetAttr("interrupted", "true")
		attempt.End()
	}
	return root
}

// storedResult decodes the stored canonical manifest for a content key,
// or nil when the key has no stored result (or it fails to decode, which
// counts as a store error and falls back to recomputation).
func (s *Server) storedResult(key string) *obs.Manifest {
	if s.store == nil || key == "" {
		return nil
	}
	raw, ok := s.store.Result(key)
	if !ok {
		return nil
	}
	m := decodeManifest(raw)
	if m == nil {
		s.storeErrors.Add(1)
	}
	return m
}

func decodeManifest(raw json.RawMessage) *obs.Manifest {
	if len(raw) == 0 {
		return nil
	}
	var m obs.Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil
	}
	return &m
}

// appendWAL persists one lifecycle record, recording the durable write
// as a "wal.append" child of sp (fsync latency rides the store observer
// into the fsync histogram). Append failures degrade gracefully: the
// server keeps executing (counting storeErrors so operators see the
// durability loss) rather than collapsing mid-job.
func (s *Server) appendWAL(sp *span.Span, rec jobstore.Record) {
	if s.store == nil {
		return
	}
	wsp := sp.Child("wal.append")
	wsp.SetAttr("op", string(rec.Op))
	err := s.store.Append(rec)
	wsp.Fail(err)
	wsp.End()
	if err != nil {
		s.storeErrors.Add(1)
		s.log.Error("wal append failed", "op", rec.Op, "job", rec.Job,
			"trace_id", jobTraceID(rec.Job), "err", err)
	}
}

// Shutdown gracefully stops the server: readiness drops, running jobs
// are cancelled (their recorders flushed by the workers before exiting),
// retry timers abandon their jobs mid-backoff, and every SSE subscriber
// is disconnected. Without a store, still-queued jobs are marked
// cancelled; with one, queued/running/retrying jobs keep their durable
// state — the WAL has them as unfinished, so the next Start re-enqueues
// them (graceful drain doubles as a checkpoint for resume). It returns
// ctx.Err() if the workers do not drain in time.
func (s *Server) Shutdown(ctx context.Context) error {
	s.log.Info("shutdown: draining workers",
		"running", s.runCount(), "queued", s.q.len())
	s.ready.Store(false)
	s.cancelAll()
	s.q.close()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	for _, job := range s.q.drain() {
		if s.store != nil {
			continue // resumable: submitted record survives in the WAL
		}
		if job.Cancel() == JobQueued {
			s.cancelled.Add(1)
		}
	}
	s.hub.close()
	if s.store != nil {
		if cerr := s.store.Checkpoint(); cerr != nil {
			err = errors.Join(err, cerr)
		}
		if cerr := s.store.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
	}
	return err
}

// Submit validates and enqueues one job. Beyond the admission bound it
// returns a *SaturatedError; with a degraded durable store it returns an
// error wrapping ErrStoreDegraded. When the store already holds a result
// for the job's content key, the job completes immediately from the
// store without recomputation.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	if !s.started.Load() || !s.ready.Load() {
		return nil, errors.New("telemetry: server not accepting jobs")
	}
	// Lower through the shared trace cache: a TraceFile spec is imported
	// once here (validating the file at admission, not at run time) and
	// every job over the same trace reuses the decoded entry.
	cfg, err := spec.lower(context.Background(), s.traces)
	if err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	key, err := cfg.ContentKey()
	if err != nil {
		return nil, err
	}
	pending := s.q.len()
	if s.opts.QueueDepth > 0 && pending >= s.opts.QueueDepth {
		s.shed.Add(1)
		sat := &SaturatedError{Pending: pending, RetryAfter: s.retryAfter(pending)}
		s.log.Warn("submission shed by admission control",
			"pending", pending, "retry_after", sat.RetryAfter)
		return nil, sat
	}

	s.mu.Lock()
	job := &Job{ID: s.nextID, Spec: spec, key: key, state: JobQueued, submitted: time.Now()}
	job.traceID = jobTraceID(job.ID)
	s.nextID++
	s.jobs[job.ID] = job
	s.order = append(s.order, job)
	s.mu.Unlock()

	// The trace root spans the whole lifecycle; "submit" covers admission
	// + the durable submitted record; "queue.wait" stays open until a
	// worker picks the job up (or the job is cancelled while queued).
	root := s.tracer.Start(job.traceID, "job")
	root.SetAttr("arch", spec.Arch)
	root.SetAttr("workload", spec.Workload)
	root.SetInt("job", int64(job.ID))
	sub := root.Child("submit")
	sub.SetInt("queue_depth", int64(pending))
	job.mu.Lock()
	job.rootSpan = root
	job.mu.Unlock()
	s.depthHist.Observe(float64(pending), job.traceID)

	if s.store != nil {
		specRaw, merr := json.Marshal(spec)
		if merr == nil {
			wsp := sub.Child("wal.append")
			wsp.SetAttr("op", string(jobstore.OpSubmitted))
			merr = s.store.Append(jobstore.Record{Op: jobstore.OpSubmitted, Job: job.ID, Key: key, Spec: specRaw})
			wsp.Fail(merr)
			wsp.End()
		}
		if merr != nil {
			// A job the WAL never saw must not be accepted: drop it and
			// surface the degraded store to the caller.
			s.mu.Lock()
			delete(s.jobs, job.ID)
			s.order = s.order[:len(s.order)-1]
			s.mu.Unlock()
			s.storeErrors.Add(1)
			sub.Fail(merr)
			sub.End()
			root.End()
			s.log.Error("submission refused: durable store degraded",
				"job", job.ID, "trace_id", job.traceID, "err", merr)
			return nil, fmt.Errorf("%w: %v", ErrStoreDegraded, merr)
		}
		if m := s.storedResult(key); m != nil {
			// Content-addressed dedup: this grid point is already computed.
			raw, _ := s.store.Result(key)
			s.appendWAL(sub, jobstore.Record{Op: jobstore.OpCompleted, Job: job.ID, Key: key, Result: raw})
			job.mu.Lock()
			job.state = JobDone
			job.fromStore = true
			job.manifest = m
			job.finished = time.Now()
			job.mu.Unlock()
			s.storeHits.Add(1)
			s.submitted.Add(1)
			s.completed.Add(1)
			sub.SetAttr("outcome", "store-hit")
			sub.End()
			root.End()
			s.log.Info("job served from store", "job", job.ID, "trace_id", job.traceID,
				"arch", spec.Arch, "workload", spec.Workload)
			s.hub.publish("job", job.View(false))
			return job, nil
		}
	}

	sub.End()
	job.mu.Lock()
	job.enqueued = time.Now()
	job.waitSpan = root.Child("queue.wait")
	job.mu.Unlock()
	s.q.push(job)
	s.submitted.Add(1)
	s.log.Info("job submitted", "job", job.ID, "trace_id", job.traceID,
		"arch", spec.Arch, "workload", spec.Workload, "queue_depth", pending)
	s.hub.publish("job", job.View(false))
	return job, nil
}

// retryAfter estimates how long a shed client should wait before
// resubmitting: Little's-law expected drain time of the current backlog
// (pending × service-time EWMA / workers), clamped to [1s, 60s].
func (s *Server) retryAfter(pending int) time.Duration {
	s.ewmaMu.Lock()
	svc := s.ewmaSec
	s.ewmaMu.Unlock()
	if svc <= 0 {
		svc = 1
	}
	wait := time.Duration(svc * float64(pending) / float64(s.opts.Workers) * float64(time.Second))
	if wait < time.Second {
		wait = time.Second
	}
	if wait > time.Minute {
		wait = time.Minute
	}
	return wait
}

// observeDuration folds one attempt's wall time into the service-time
// EWMA behind Retry-After.
func (s *Server) observeDuration(d time.Duration) {
	s.ewmaMu.Lock()
	if s.ewmaSec == 0 {
		s.ewmaSec = d.Seconds()
	} else {
		s.ewmaSec = 0.7*s.ewmaSec + 0.3*d.Seconds()
	}
	s.ewmaMu.Unlock()
}

// Job looks a job up by ID.
func (s *Server) Job(id int) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// runCount reports how many jobs are currently executing.
func (s *Server) runCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.run)
}

// saturated reports whether admission control is currently shedding.
func (s *Server) saturated() bool {
	return s.opts.QueueDepth > 0 && s.q.len() >= s.opts.QueueDepth
}

// worker executes queued jobs until shutdown. With Options.Workers > 1
// several workers drain the one queue concurrently; each simulation is
// independent, and traces are shared through the server's cache.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		job := s.q.pop()
		if job == nil {
			return
		}
		s.runJob(job)
	}
}

// runJob executes one attempt of one job: the started record is written
// ahead, then a caller-owned recorder is built with no sink and an
// interval fan-out hook that updates the live gauges and publishes to
// the SSE hub, and ballerino.RunContext runs under the
// job's cancellable (and, with -job-timeout, deadline-bounded) context.
// The terminal classification routes failures into retry backoff or the
// dead-letter tier and successes into the durable result store.
func (s *Server) runJob(job *Job) {
	var runCtx context.Context
	var cancel context.CancelFunc
	if s.opts.JobTimeout > 0 {
		runCtx, cancel = context.WithTimeout(s.baseCtx, s.opts.JobTimeout)
	} else {
		runCtx, cancel = context.WithCancel(s.baseCtx)
	}
	defer cancel()

	job.mu.Lock()
	if job.state != JobQueued { // cancelled while waiting
		job.mu.Unlock()
		return
	}
	job.state = JobRunning
	job.attempts++
	attempt := job.attempts
	job.started = time.Now()
	job.cancel = cancel
	job.requested = false
	if job.live != nil {
		job.live.reset()
	} else {
		job.live = newLiveJob(job)
	}
	live := job.live
	root := job.rootSpan
	wait := job.waitSpan
	job.waitSpan = nil
	enqueued := job.enqueued
	job.mu.Unlock()

	if wait != nil {
		wait.End()
	}
	if !enqueued.IsZero() {
		s.waitHist.Observe(time.Since(enqueued).Seconds(), job.traceID)
	}
	asp := root.Child("attempt")
	asp.SetInt("n", int64(attempt))

	s.mu.Lock()
	s.run[job.ID] = job
	s.live = live
	s.mu.Unlock()

	s.appendWAL(asp, jobstore.Record{Op: jobstore.OpStarted, Job: job.ID, Attempt: attempt})
	s.log.Info("attempt started", "job", job.ID, "trace_id", job.traceID, "attempt", attempt,
		"arch", job.Spec.Arch, "workload", job.Spec.Workload)
	s.hub.publish("job", job.View(false))

	begin := time.Now()
	var res *ballerino.Result
	var err error
	var flushMsg string
	if s.retry.chaosFail() {
		err = errChaosInjected
		asp.SetAttr("chaos", "injected")
	} else {
		// Label the worker goroutine for the duration of the attempt, so
		// CPU profiles segment by job identity.
		rtpprof.Do(runCtx, rtpprof.Labels(
			"job", strconv.Itoa(job.ID),
			"workload", job.Spec.Workload,
			"arch", job.Spec.Arch,
		), func(runCtx context.Context) {
			rec := obs.NewRecorder(s.opts.HeartbeatCycles)
			rec.OnInterval(func(iv obs.Interval) {
				live.observe(iv, rec)
				s.hub.publish("interval", streamInterval{
					Job: job.ID, Arch: job.Spec.Arch, Workload: job.Spec.Workload,
					IPC: iv.IPC(), Interval: iv,
				})
			})
			// Thread the attempt span through the run context: the trace
			// cache's lookup, trace import/generation, warm-up and the
			// simulation itself all record themselves as its children.
			runCtx = span.ContextWith(runCtx, asp)
			// Lower through the shared cache: a TraceFile spec replays its
			// imported trace (a failure here — e.g. the file vanished since
			// admission — fails the attempt), and a generated spec shares
			// the μop trace across jobs over the same kernel. A Prepare
			// failure (bad config, cancellation) is deliberately dropped:
			// RunContext reproduces the identical error below, on the path
			// that already classifies it.
			cfg, lerr := job.Spec.lower(runCtx, s.traces)
			if lerr != nil {
				err = lerr
			} else {
				cfg.Recorder = rec
				if cfg.Trace == nil {
					if t, terr := s.traces.Prepare(runCtx, cfg); terr == nil {
						cfg.Trace = t
					}
				}
				res, err = ballerino.RunContext(runCtx, cfg)
			}
			if cerr := rec.Close(); cerr != nil {
				flushMsg = fmt.Sprintf("sink flush: %v", cerr)
			}
		})
	}
	attemptDur := time.Since(begin)
	s.observeDuration(attemptDur)
	s.serviceHist.Observe(attemptDur.Seconds(), job.traceID)

	s.mu.Lock()
	delete(s.run, job.ID)
	s.mu.Unlock()

	asp.Fail(err)
	asp.End()
	s.settle(job, attempt, res, err, flushMsg)
	s.hub.publish("job", job.View(false))
}

// settle applies one attempt's outcome: done (durably recording the
// canonical result), cancelled (durably only when the cancel was asked
// for — a shutdown leaves the job resumable), retrying (backoff timer),
// or failed/parked when the retry budget is spent.
func (s *Server) settle(job *Job, attempt int, res *ballerino.Result, err error, flushMsg string) {
	var se *ballerino.SimError
	stage := ""
	if errors.As(err, &se) {
		stage = se.Stage
	}
	job.mu.Lock()
	root := job.rootSpan
	job.mu.Unlock()

	// endTrace closes the root span with the terminal outcome and feeds
	// the end-to-end latency histogram.
	endTrace := func(outcome string) {
		root.SetAttr("outcome", outcome)
		root.End()
		job.mu.Lock()
		e2e := job.finished.Sub(job.submitted)
		submittedKnown := !job.submitted.IsZero()
		job.mu.Unlock()
		if submittedKnown {
			s.e2eHist.Observe(e2e.Seconds(), job.traceID)
		}
	}

	switch {
	case err == nil:
		var canonical []byte
		if res.Manifest != nil {
			canonical, _ = res.Manifest.CanonicalJSON()
		}
		store := root.Child("result.store")
		s.appendWAL(store, jobstore.Record{Op: jobstore.OpCompleted, Job: job.ID, Key: job.key, Result: canonical})
		store.End()
		job.mu.Lock()
		job.state = JobDone
		job.manifest = res.Manifest
		job.errMsg, job.stage = flushMsg, ""
		job.finished = time.Now()
		job.cancel = nil
		job.live.finish(res.Manifest)
		job.mu.Unlock()
		s.completed.Add(1)
		endTrace("done")
		ipc := 0.0
		if res.Manifest != nil {
			ipc = res.Manifest.Stats.IPC
		}
		s.log.Info("job done", "job", job.ID, "trace_id", job.traceID,
			"attempt", attempt, "ipc", ipc)

	case stage == "canceled" || errors.Is(err, context.Canceled):
		job.mu.Lock()
		requested := job.requested
		job.state = JobCancelled
		job.errMsg, job.stage = err.Error(), stage
		job.finished = time.Now()
		job.cancel = nil
		job.mu.Unlock()
		s.cancelled.Add(1)
		if requested {
			s.appendWAL(root, jobstore.Record{Op: jobstore.OpCanceled, Job: job.ID, Error: err.Error()})
			endTrace("cancelled")
			s.log.Info("job cancelled", "job", job.ID, "trace_id", job.traceID, "attempt", attempt)
		}
		// Not requested: the server is shutting down — leave the WAL (and
		// the trace root) open so the next boot resumes both.

	default:
		if stage == "" {
			stage = "service"
		}
		s.appendWAL(root, jobstore.Record{Op: jobstore.OpAttemptFailed, Job: job.ID, Attempt: attempt,
			Stage: stage, Error: err.Error()})
		if attempt <= s.opts.MaxRetries {
			delay := s.retry.backoff(attempt)
			bsp := root.Child("backoff")
			bsp.SetInt("after_attempt", int64(attempt))
			bsp.SetAttr("delay", delay.String())
			job.mu.Lock()
			job.state = JobRetrying
			job.errMsg, job.stage = err.Error(), stage
			job.nextRetry = time.Now().Add(delay)
			job.cancel = nil
			job.mu.Unlock()
			s.retries.Add(1)
			s.log.Warn("attempt failed, retrying", "job", job.ID, "trace_id", job.traceID,
				"attempt", attempt, "stage", stage, "delay", delay, "err", err)
			s.scheduleRetry(job, delay, bsp)
			return
		}
		job.mu.Lock()
		if s.opts.MaxRetries > 0 {
			job.state = JobParked
		} else {
			job.state = JobFailed
		}
		terminal := job.state
		job.errMsg, job.stage = err.Error(), stage
		job.finished = time.Now()
		job.cancel = nil
		job.mu.Unlock()
		s.failed.Add(1)
		root.Fail(err)
		endTrace(string(terminal))
		s.log.Warn("job failed", "job", job.ID, "trace_id", job.traceID,
			"attempt", attempt, "stage", stage, "state", terminal, "err", err)
	}
}

// scheduleRetry re-enqueues the job after its backoff delay. The timer
// aborts on shutdown, leaving the job in the retrying state — with a
// durable store the WAL still shows it unfinished, so the next boot
// picks it back up. bsp is the open "backoff" span; it ends when the
// job re-enters the queue (or when the timer is abandoned).
func (s *Server) scheduleRetry(job *Job, delay time.Duration, bsp *span.Span) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTimer(delay)
		defer t.Stop()
		select {
		case <-s.baseCtx.Done():
			bsp.End()
			return
		case <-t.C:
		}
		bsp.End()
		job.mu.Lock()
		if job.state != JobRetrying { // cancelled mid-backoff
			job.mu.Unlock()
			return
		}
		job.state = JobQueued
		job.nextRetry = time.Time{}
		job.enqueued = time.Now()
		job.waitSpan = job.rootSpan.Child("queue.wait")
		job.mu.Unlock()
		s.q.push(job)
		s.log.Info("retry requeued", "job", job.ID, "trace_id", job.traceID)
		s.hub.publish("job", job.View(false))
	}()
}

// streamInterval is the SSE payload of one heartbeat.
type streamInterval struct {
	Job      int     `json:"job"`
	Arch     string  `json:"arch"`
	Workload string  `json:"workload"`
	IPC      float64 `json:"ipc"`
	obs.Interval
}

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleJobs)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /jobs/{id}/spans", s.handleSpans)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("POST /jobs/{id}/retry", s.handleRetry)
	mux.HandleFunc("GET /deadletter", s.handleDeadLetter)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /stream", s.handleStream)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

// handleReady implements /readyz: a load balancer should stop routing
// here while the server is down, still replaying its WAL, or shedding
// load — not only when it is fully stopped.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	switch {
	case s.recovering.Load():
		http.Error(w, "recovering: WAL replay in progress", http.StatusServiceUnavailable)
	case !s.ready.Load():
		http.Error(w, "not ready", http.StatusServiceUnavailable)
	case s.saturated():
		http.Error(w, "saturated: job queue at capacity", http.StatusServiceUnavailable)
	default:
		w.Write([]byte("ready\n"))
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	job, err := s.Submit(spec)
	var sat *SaturatedError
	switch {
	case errors.As(err, &sat):
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(sat.RetryAfter.Seconds()))))
		writeJSON(w, http.StatusTooManyRequests, map[string]string{"error": sat.Error()})
		return
	case errors.Is(err, ErrStoreDegraded):
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
		return
	case err != nil:
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, job.View(false))
}

func (s *Server) handleJobs(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	jobs := append([]*Job(nil), s.order...)
	s.mu.Unlock()
	views := make([]JobView, len(jobs))
	for i, j := range jobs {
		views[i] = j.View(false)
	}
	writeJSON(w, http.StatusOK, views)
}

// handleDeadLetter lists the parked jobs: everything the retry machinery
// gave up on, with the stage and error of the last failed attempt.
func (s *Server) handleDeadLetter(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	jobs := append([]*Job(nil), s.order...)
	s.mu.Unlock()
	views := []JobView{}
	for _, j := range jobs {
		if j.State() == JobParked {
			views = append(views, j.View(false))
		}
	}
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) jobFromPath(w http.ResponseWriter, r *http.Request) *Job {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad job id"})
		return nil
	}
	job := s.Job(id)
	if job == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": fmt.Sprintf("no job %d", id)})
	}
	return job
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if job := s.jobFromPath(w, r); job != nil {
		writeJSON(w, http.StatusOK, job.View(true))
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job := s.jobFromPath(w, r)
	if job == nil {
		return
	}
	switch prev := job.Cancel(); prev {
	case JobQueued, JobRetrying, JobParked:
		s.cancelled.Add(1)
		job.mu.Lock()
		root := job.rootSpan
		job.mu.Unlock()
		s.appendWAL(root, jobstore.Record{Op: jobstore.OpCanceled, Job: job.ID, Error: "cancelled before execution"})
		root.SetAttr("outcome", "cancelled")
		root.End()
		s.log.Info("job cancelled before execution", "job", job.ID,
			"trace_id", job.traceID, "was", prev)
		s.hub.publish("job", job.View(false))
	}
	writeJSON(w, http.StatusOK, job.View(false))
}

// handleRetry revives a parked (dead-letter) job: its attempt budget is
// reset and it re-enters the queue. Note the revival is in-memory only —
// if the server crashes before the revived job finishes, recovery parks
// it again (its durable failure history still exceeds the budget).
func (s *Server) handleRetry(w http.ResponseWriter, r *http.Request) {
	job := s.jobFromPath(w, r)
	if job == nil {
		return
	}
	job.mu.Lock()
	if job.state != JobParked {
		state := job.state
		job.mu.Unlock()
		writeJSON(w, http.StatusConflict, map[string]string{
			"error": fmt.Sprintf("job %d is %s, not parked", job.ID, state)})
		return
	}
	job.state = JobQueued
	job.attempts = 0
	job.errMsg, job.stage = "", ""
	job.finished = time.Time{}
	job.enqueued = time.Now()
	// A revived trace root may already be closed (the park ended it);
	// children recorded after a parent's end are legal in this model —
	// the timeline simply extends past the original terminal state.
	job.waitSpan = job.rootSpan.Child("queue.wait")
	job.mu.Unlock()
	s.log.Info("dead-letter job revived", "job", job.ID, "trace_id", job.traceID)
	s.q.push(job)
	s.hub.publish("job", job.View(false))
	writeJSON(w, http.StatusOK, job.View(false))
}

// handleStream serves the SSE heartbeat stream. Every connected client
// receives each interval snapshot and job transition as it is published;
// the connection ends when the client goes away or the server shuts down.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	ch, cancel := s.hub.subscribe()
	if ch == nil {
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return
	}
	defer cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, ": ballserved heartbeat stream\n\n")
	fl.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case frame, ok := <-ch:
			if !ok {
				return
			}
			if _, err := w.Write(frame); err != nil {
				return
			}
			fl.Flush()
		}
	}
}
