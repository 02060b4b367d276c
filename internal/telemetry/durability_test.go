package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/jobstore"
)

// newDurableTestServer builds and starts a server with arbitrary options,
// mounted on an httptest server; both tear down with the test.
func newDurableTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.HeartbeatCycles == 0 {
		opts.HeartbeatCycles = 500
	}
	s := mustServer(t, opts)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func openStore(t *testing.T, dir string) *jobstore.Store {
	t.Helper()
	st, err := jobstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestRetryBackoffToSuccess: a chaos-failed first attempt retries with
// backoff and the job still completes, with the attempt history visible
// in the job view and the retry counter in /metrics.
func TestRetryBackoffToSuccess(t *testing.T) {
	s, ts := newDurableTestServer(t, Options{
		ChaosSpec:      "failn=1",
		MaxRetries:     2,
		RetryBaseDelay: time.Millisecond,
		RetryMaxDelay:  4 * time.Millisecond,
	})
	v := submitJob(t, ts, JobSpec{Arch: "Ballerino", Workload: "store-load", Ops: 10_000})
	job := waitForState(t, s, v.ID, JobDone)
	if got := job.Attempts(); got != 2 {
		t.Errorf("attempts = %d, want 2 (chaos-failed once, then succeeded)", got)
	}
	if job.Manifest() == nil {
		t.Error("retried job has no manifest")
	}
	mets := scrape(t, ts)
	if got := mets["ballserved_job_retries_total"]; got != 1 {
		t.Errorf("retries_total = %v, want 1", got)
	}
	if got := mets["ballserved_jobs_completed_total"]; got != 1 {
		t.Errorf("completed_total = %v, want 1", got)
	}
}

// TestDeadLetterParkAndRevive: a job that exhausts its retry budget parks
// in the dead-letter tier (visible over GET /deadletter and the gauge),
// and POST /jobs/{id}/retry revives it to run again.
func TestDeadLetterParkAndRevive(t *testing.T) {
	s, ts := newDurableTestServer(t, Options{
		ChaosSpec:      "failn=2", // both budgeted attempts fail; the revived one runs clean
		MaxRetries:     1,
		RetryBaseDelay: time.Millisecond,
	})
	v := submitJob(t, ts, JobSpec{Arch: "Ballerino", Workload: "store-load", Ops: 10_000})
	job := waitForState(t, s, v.ID, JobParked)
	if got := job.Attempts(); got != 2 {
		t.Errorf("attempts = %d, want 2", got)
	}

	resp, err := http.Get(ts.URL + "/deadletter")
	if err != nil {
		t.Fatal(err)
	}
	var parked []JobView
	if err := json.NewDecoder(resp.Body).Decode(&parked); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(parked) != 1 || parked[0].ID != v.ID || parked[0].State != JobParked {
		t.Fatalf("deadletter = %+v, want job %d parked", parked, v.ID)
	}
	if parked[0].Error == "" || parked[0].Stage == "" {
		t.Errorf("parked view lacks failure detail: %+v", parked[0])
	}
	if got := scrape(t, ts)["ballserved_deadletter_jobs"]; got != 1 {
		t.Errorf("deadletter gauge = %v, want 1", got)
	}

	// Reviving a non-parked job is a conflict.
	if code := postStatus(t, ts, fmt.Sprintf("/jobs/%d/retry", 999)); code != http.StatusNotFound {
		t.Errorf("retry of unknown job = %d, want 404", code)
	}
	if code := postStatus(t, ts, fmt.Sprintf("/jobs/%d/retry", v.ID)); code != http.StatusOK {
		t.Fatalf("retry of parked job = %d, want 200", code)
	}
	job = waitForState(t, s, v.ID, JobDone)
	if job.Manifest() == nil {
		t.Error("revived job has no manifest")
	}
	if code := postStatus(t, ts, fmt.Sprintf("/jobs/%d/retry", v.ID)); code != http.StatusConflict {
		t.Errorf("retry of done job = %d, want 409", code)
	}
	if got := scrape(t, ts)["ballserved_deadletter_jobs"]; got != 0 {
		t.Errorf("deadletter gauge after revival = %v, want 0", got)
	}
}

func postStatus(t *testing.T, ts *httptest.Server, path string) int {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestJobTimeoutStageSurfaced: a job killed by -job-timeout fails its
// attempt with the typed Stage "timeout" — distinct from caller
// cancellation — and the stage is visible in the job-status API.
func TestJobTimeoutStageSurfaced(t *testing.T) {
	s, ts := newDurableTestServer(t, Options{JobTimeout: 30 * time.Millisecond})
	v := submitJob(t, ts, JobSpec{Arch: "Ballerino", Workload: "stream", Ops: 5_000_000})
	job := waitForState(t, s, v.ID, JobFailed)
	view := job.View(false)
	if view.Stage != "timeout" {
		t.Errorf("stage = %q, want \"timeout\"", view.Stage)
	}

	resp, err := http.Get(ts.URL + fmt.Sprintf("/jobs/%d", v.ID))
	if err != nil {
		t.Fatal(err)
	}
	var got JobView
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got.State != JobFailed || got.Stage != "timeout" {
		t.Errorf("HTTP view = state %q stage %q, want failed/timeout", got.State, got.Stage)
	}
	// A timed-out job is failed, not cancelled: the counters must agree.
	mets := scrape(t, ts)
	if mets["ballserved_jobs_failed_total"] != 1 || mets["ballserved_jobs_cancelled_total"] != 0 {
		t.Errorf("failed/cancelled = %v/%v, want 1/0",
			mets["ballserved_jobs_failed_total"], mets["ballserved_jobs_cancelled_total"])
	}
}

// TestAdmissionControlShedsWith429: submissions beyond QueueDepth are
// shed with a typed SaturatedError, rendered over HTTP as 429 with a
// Retry-After, while /readyz degrades to 503 — and acceptance resumes
// once the backlog drains.
func TestAdmissionControlShedsWith429(t *testing.T) {
	s, ts := newDurableTestServer(t, Options{QueueDepth: 1})
	// Occupy the single worker, then fill the single queue slot.
	running := submitJob(t, ts, JobSpec{Arch: "Ballerino", Workload: "stream", Ops: 5_000_000})
	waitForState(t, s, running.ID, JobRunning)
	queued := submitJob(t, ts, JobSpec{Arch: "Ballerino", Workload: "stream", Ops: 5_000_001})

	body, _ := json.Marshal(JobSpec{Arch: "Ballerino", Workload: "stream", Ops: 5_000_002})
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit = %d, want 429", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	if _, err := s.Submit(JobSpec{Arch: "Ballerino", Workload: "stream", Ops: 5_000_003}); err == nil {
		t.Error("direct Submit while saturated succeeded")
	} else if _, ok := err.(*SaturatedError); !ok {
		t.Errorf("direct Submit error = %T, want *SaturatedError", err)
	}

	rd, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, rd.Body)
	rd.Body.Close()
	if rd.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while saturated = %d, want 503", rd.StatusCode)
	}
	mets := scrape(t, ts)
	if got := mets["ballserved_jobs_shed_total"]; got != 2 {
		t.Errorf("shed_total = %v, want 2", got)
	}
	if got := mets["ballserved_saturated"]; got != 1 {
		t.Errorf("saturated gauge = %v, want 1", got)
	}

	// Drain the backlog. A cancelled queued job frees its admission slot
	// only when a worker pops (and discards) it, so the running job must
	// be cancelled too for the queue to clear.
	if code := postStatus(t, ts, fmt.Sprintf("/jobs/%d/cancel", queued.ID)); code != http.StatusOK {
		t.Fatalf("cancel queued = %d", code)
	}
	if code := postStatus(t, ts, fmt.Sprintf("/jobs/%d/cancel", running.ID)); code != http.StatusOK {
		t.Fatalf("cancel running = %d", code)
	}
	deadline := time.Now().Add(20 * time.Second)
	for s.saturated() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if s.saturated() {
		t.Fatal("still saturated after draining the queue")
	}
}

// TestStoreServesContentAddressedResult: resubmitting a spec whose
// config+trace content key already has a stored result completes
// immediately from the store, byte-identically, without recomputation.
func TestStoreServesContentAddressedResult(t *testing.T) {
	dir := t.TempDir()
	s, ts := newDurableTestServer(t, Options{Store: openStore(t, dir)})
	spec := JobSpec{Arch: "Ballerino", Workload: "store-load", Ops: 10_000}
	first := submitJob(t, ts, spec)
	j1 := waitForState(t, s, first.ID, JobDone)

	second := submitJob(t, ts, spec)
	if second.State != JobDone || !second.FromStore {
		t.Fatalf("resubmission = state %q fromStore %t, want done from store", second.State, second.FromStore)
	}
	j2 := s.Job(second.ID)
	c1, err := j1.Manifest().CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := j2.Manifest().CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1, c2) {
		t.Error("store-served manifest differs from the computed one")
	}
	mets := scrape(t, ts)
	if got := mets["ballserved_store_result_hits_total"]; got != 1 {
		t.Errorf("store hits = %v, want 1", got)
	}
	if got := mets["ballserved_store_results"]; got != 1 {
		t.Errorf("store results = %v, want 1", got)
	}
}

// TestServedJobSkipsQuietCycles: a served job's recorder has no sinks, so
// a freshly run job's cycle loop jumps over quiet cycles, and its
// manifest's engine block says so with jumps and no reason for stepping.
// A store hit (like a recovered job) carries the stored canonical
// manifest (decodeManifest), which has no engine block.
func TestServedJobSkipsQuietCycles(t *testing.T) {
	s, ts := newDurableTestServer(t, Options{Store: openStore(t, t.TempDir())})
	spec := JobSpec{Arch: "OoO", Workload: "pointer-chase", Ops: 4_000}
	first := submitJob(t, ts, spec)
	e := waitForState(t, s, first.ID, JobDone).Manifest().Engine
	if e == nil || e.Jumps == 0 || e.SteppedFor != "" {
		t.Fatalf("fresh job's engine block = %+v, want jumps and no reason for stepping", e)
	}
	second := submitJob(t, ts, spec)
	if !second.FromStore {
		t.Fatal("resubmission was not served from the store")
	}
	if e := s.Job(second.ID).Manifest().Engine; e != nil {
		t.Errorf("store hit's engine block = %+v, want none (the stored manifest is canonical)", e)
	}
}

// TestRecoveryResumesUnfinishedJobs: a graceful shutdown mid-run leaves
// the running job durably unfinished; a new server over the same store
// re-enqueues it (flagged as resumed), runs it to completion, and keeps
// the finished job's stored result.
func TestRecoveryResumesUnfinishedJobs(t *testing.T) {
	dir := t.TempDir()
	srvA := mustServer(t, Options{HeartbeatCycles: 500, Store: openStore(t, dir)})
	srvA.Start()
	quick, err := srvA.Submit(JobSpec{Arch: "Ballerino", Workload: "store-load", Ops: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	waitForStateDirect(t, srvA, quick.ID, JobDone)
	long, err := srvA.Submit(JobSpec{Arch: "Ballerino", Workload: "stream", Ops: 300_000})
	if err != nil {
		t.Fatal(err)
	}
	waitForStateDirect(t, srvA, long.ID, JobRunning)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srvA.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	s, ts := newDurableTestServer(t, Options{Store: openStore(t, dir)})
	recovered := s.Job(long.ID)
	if recovered == nil {
		t.Fatalf("job %d missing after recovery", long.ID)
	}
	job := waitForState(t, s, long.ID, JobDone)
	if view := job.View(false); !view.Resumed {
		t.Errorf("recovered job not flagged resumed: %+v", view)
	}
	if job.Manifest() == nil {
		t.Error("resumed job has no manifest")
	}
	if done := s.Job(quick.ID); done == nil || done.State() != JobDone || !done.View(false).FromStore {
		t.Errorf("completed job not recovered from store: %+v", done)
	}
	mets := scrape(t, ts)
	if got := mets["ballserved_jobs_resumed_total"]; got != 1 {
		t.Errorf("resumed_total = %v, want 1", got)
	}
	if got := mets["ballserved_recovery_replay_seconds"]; got <= 0 {
		t.Errorf("recovery_replay_seconds = %v, want > 0", got)
	}
	// New submissions must not collide with recovered IDs.
	next, err := s.Submit(JobSpec{Arch: "CASINO", Workload: "store-load", Ops: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if next.ID <= long.ID {
		t.Errorf("post-recovery job ID %d not above recovered max %d", next.ID, long.ID)
	}
	waitForState(t, s, next.ID, JobDone)
}

// waitForStateDirect is waitForState for servers without an httptest
// wrapper.
func waitForStateDirect(t *testing.T, s *Server, id int, want JobState) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if job := s.Job(id); job != nil && job.State() == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %d did not reach %q", id, want)
}

// TestRecoveryParksExhaustedJobs: a job whose durable failure history
// already exceeds the retry budget is parked by recovery, not rerun —
// the dead-letter tier survives restarts.
func TestRecoveryParksExhaustedJobs(t *testing.T) {
	dir := t.TempDir()
	srvA := mustServer(t, Options{
		Store:          openStore(t, dir),
		ChaosSpec:      "failn=10",
		MaxRetries:     1,
		RetryBaseDelay: time.Millisecond,
	})
	srvA.Start()
	v, err := srvA.Submit(JobSpec{Arch: "Ballerino", Workload: "store-load", Ops: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	waitForStateDirect(t, srvA, v.ID, JobParked)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srvA.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	s, _ := newDurableTestServer(t, Options{Store: openStore(t, dir), MaxRetries: 1})
	job := s.Job(v.ID)
	if job == nil || job.State() != JobParked {
		t.Fatalf("recovered job = %+v, want parked", job)
	}
}

// TestChaosSpecValidation: malformed chaos directives fail construction.
func TestChaosSpecValidation(t *testing.T) {
	for _, spec := range []string{"fail=2", "fail=x", "seed=", "nope=1", "seed"} {
		if _, err := NewServer(Options{ChaosSpec: spec}); err == nil {
			t.Errorf("chaos spec %q accepted", spec)
		}
	}
	if _, err := NewServer(Options{ChaosSpec: "seed=42, fail=0.5, failn=3"}); err != nil {
		t.Errorf("valid chaos spec rejected: %v", err)
	}
}
