// Command ballserved is the long-running telemetry service: it executes
// simulation jobs — submitted over HTTP or preloaded from a playlist file
// — and serves their live observability.
//
// Usage:
//
//	ballserved -addr :8344
//	ballserved -addr :8344 -playlist jobs.json -interval 5000
//	ballserved -addr :8344 -store-dir /var/lib/ballserved -max-retries 3 -job-timeout 2m
//
// Endpoints:
//
//	POST /jobs              submit a job ({"arch": ..., "workload": ..., "ops": ...})
//	GET  /jobs, /jobs/{id}  job status (the latter includes the run manifest)
//	POST /jobs/{id}/cancel  cancel a queued or running job
//	GET  /deadletter        jobs whose retry budget is exhausted
//	POST /jobs/{id}/retry   revive a dead-letter job
//	GET  /jobs/{id}/spans   lifecycle span timeline (?format=json|text|chrome)
//	GET  /metrics           Prometheus text exposition (latency histograms carry
//	                        exemplar trace IDs linking buckets to span trees)
//	GET  /stream            Server-Sent Events heartbeat stream
//	GET  /healthz, /readyz  liveness and readiness (503 while saturated or replaying)
//	GET  /debug/pprof/      net/http/pprof (worker goroutines are labeled with
//	                        job ID, workload and arch)
//
// The playlist file is a JSON array of job specs (a single object is also
// accepted), enqueued in order at startup.
//
// Every job's lifecycle is traced: a span tree (submit → queue.wait →
// attempt → result.store, with WAL, backoff and simulation children)
// correlated by a trace ID derived deterministically from the job ID —
// stable across restarts, so a trace spans crashes. Structured logs
// (-log-format text|json, written to stderr) carry the trace ID on every
// lifecycle record.
//
// With -store-dir the job queue is durable: every lifecycle transition is
// written ahead to an fsync'd log before it is acted on, so a crash —
// even `kill -9` — loses nothing. On restart the log is replayed: jobs
// that were queued, running or waiting on a retry re-enqueue, and jobs
// whose config+trace content key already has a stored result are served
// from the store without recomputation. SIGINT/SIGTERM trigger a
// graceful drain: in-flight HTTP requests and running jobs are given
// -grace to finish, sinks are flushed, and (with a store) unfinished
// jobs keep their durable state so the next boot resumes them.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/jobstore"
	"repro/internal/span"
	"repro/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus the process plumbing, so the crash-recovery e2e can
// re-exec the test binary as a real server process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ballserved", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", "localhost:8344", "HTTP listen address")
		playlist   = fs.String("playlist", "", "JSON file of job specs to enqueue at startup")
		interval   = fs.Uint64("interval", 0, "heartbeat interval in cycles (0 = 10000)")
		maxQueue   = fs.Int("max-queue", 0, "admission bound on pending jobs; beyond it submissions shed with 429 (0 = 64, negative = unbounded)")
		workers    = fs.Int("workers", 1, "jobs executed concurrently (traces are shared across workers)")
		grace      = fs.Duration("grace", 30*time.Second, "graceful shutdown budget")
		storeDir   = fs.String("store-dir", "", "durable job-store directory (empty = in-memory only, no crash safety)")
		jobTimeout = fs.Duration("job-timeout", 0, "per-job execution deadline; a timed-out attempt fails with stage \"timeout\" (0 = none)")
		maxRetries = fs.Int("max-retries", 0, "retries per job with capped exponential backoff before it parks in the dead-letter tier")
		chaos      = fs.String("chaos", "", "seeded service-layer chaos, e.g. \"seed=7,fail=0.25\" (testing only)")
		logFormat  = fs.String("log-format", "text", "structured log format on stderr: text or json")
		maxTraces  = fs.Int("max-traces", 0, "lifecycle span trees retained for /jobs/{id}/spans (0 = 1024, negative = tracing off)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(stderr, nil)
	default:
		fmt.Fprintf(stderr, "bad -log-format %q: want text or json\n", *logFormat)
		return 2
	}
	logger := slog.New(handler)

	var tracer *span.Tracer
	if *maxTraces >= 0 {
		tracer = span.NewTracer(*maxTraces)
	}

	var specs []telemetry.JobSpec
	if *playlist != "" {
		var err error
		if specs, err = loadPlaylist(*playlist); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}

	var store *jobstore.Store
	if *storeDir != "" {
		var err error
		if store, err = jobstore.Open(*storeDir); err != nil {
			fmt.Fprintf(stderr, "job store: %v\n", err)
			return 1
		}
		rec := store.Recovery()
		fmt.Fprintf(stdout, "job store %s: %d records replayed, %d resumable, %d completed",
			*storeDir, rec.Records, rec.Resumable, rec.Completed)
		if rec.TornTail {
			fmt.Fprint(stdout, " (torn tail truncated)")
		}
		fmt.Fprintln(stdout)
	}

	srv, err := telemetry.NewServer(telemetry.Options{
		HeartbeatCycles: *interval,
		QueueDepth:      *maxQueue,
		Workers:         *workers,
		Store:           store,
		JobTimeout:      *jobTimeout,
		MaxRetries:      *maxRetries,
		ChaosSpec:       *chaos,
		Tracer:          tracer,
		Logger:          logger,
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	srv.Start()
	for i, spec := range specs {
		job, err := srv.Submit(spec)
		if err != nil {
			fmt.Fprintf(stderr, "playlist entry %d: %v\n", i, err)
			return 1
		}
		fmt.Fprintf(stdout, "queued job %d: %s on %s\n", job.ID, spec.Workload, spec.Arch)
	}

	// Catch shutdown signals before announcing the address: a harness
	// that SIGTERMs as soon as it sees the listen line must hit the
	// graceful path, not the default disposition.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	// The resolved address is printed (not just the flag) so harnesses
	// using ":0" learn the real port.
	fmt.Fprintf(stdout, "ballserved listening on %s\n", ln.Addr())
	select {
	case err := <-errCh:
		fmt.Fprintln(stderr, err)
		return 1
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately
	fmt.Fprintln(stdout, "shutting down...")

	sctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	code := 0
	if err := httpSrv.Shutdown(sctx); err != nil {
		fmt.Fprintf(stderr, "http shutdown: %v\n", err)
		code = 1
	}
	if err := srv.Shutdown(sctx); err != nil {
		fmt.Fprintf(stderr, "job worker shutdown: %v\n", err)
		code = 1
	}
	return code
}

// loadPlaylist reads a JSON array of job specs (or a single spec object).
func loadPlaylist(path string) ([]telemetry.JobSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("playlist: %w", err)
	}
	var specs []telemetry.JobSpec
	if err := strictUnmarshal(b, &specs); err != nil {
		var one telemetry.JobSpec
		if oneErr := strictUnmarshal(b, &one); oneErr != nil {
			return nil, fmt.Errorf("playlist %s: %w", path, err)
		}
		specs = []telemetry.JobSpec{one}
	}
	return specs, nil
}

func strictUnmarshal(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// Trailing garbage after the JSON value is an error, not ignored.
	if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
		return errors.New("trailing data after JSON value")
	}
	return nil
}
