package telemetry

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	ballerino "repro"
	"repro/internal/obs"
	"repro/internal/topdown"
)

// newTestServer builds and starts a server with a fast heartbeat, mounted
// on an httptest server. Both are torn down with the test.
func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := mustServer(t, Options{HeartbeatCycles: 500})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

// mustServer builds a server (not yet started), failing the test on a
// constructor error.
func mustServer(t *testing.T, opts Options) *Server {
	t.Helper()
	s, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func submitJob(t *testing.T, ts *httptest.Server, spec JobSpec) JobView {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, b)
	}
	var v JobView
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatalf("submit response: %v", err)
	}
	return v
}

func waitForState(t *testing.T, s *Server, id int, want JobState) *Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		job := s.Job(id)
		if job != nil && job.State() == want {
			return job
		}
		time.Sleep(5 * time.Millisecond)
	}
	job := s.Job(id)
	state := JobState("<missing>")
	if job != nil {
		state = job.State()
	}
	t.Fatalf("job %d did not reach %q (now %q)", id, want, state)
	return nil
}

// promSample is one parsed exposition sample.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// scrapeSamples fetches /metrics and parses it strictly: each family has
// one HELP line, then one TYPE line, then all of its samples (a
// histogram's as _bucket, _sum and _count); label values, exemplars'
// included, use only the \\, \" and \n escapes; and every name ending in
// _total is typed counter.
func scrapeSamples(t *testing.T, ts *httptest.Server) []promSample {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type = %q", ct)
	}
	var out []promSample
	seen := map[string]bool{}
	fam, typ := "", ""
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "# HELP "):
			name, _, _ := strings.Cut(line[len("# HELP "):], " ")
			if seen[name] {
				t.Fatalf("family %s has a second HELP line", name)
			}
			seen[name] = true
			fam, typ = name, ""
		case strings.HasPrefix(line, "# TYPE "):
			name, kind, _ := strings.Cut(line[len("# TYPE "):], " ")
			if name != fam || typ != "" {
				t.Fatalf("%q does not directly follow its family's HELP line", line)
			}
			if strings.HasSuffix(name, "_total") && kind != "counter" {
				t.Errorf("%s is typed %s, want counter", name, kind)
			}
			typ = kind
		default:
			if i := strings.Index(line, " # {"); i >= 0 {
				ex := line[i+len(" # {"):]
				if j := strings.IndexByte(ex, '}'); j < 0 {
					t.Fatalf("malformed exemplar in %q", line)
				} else {
					parseLabels(t, ex[:j])
				}
				line = line[:i]
			}
			sp := strings.LastIndexByte(line, ' ')
			if sp < 0 {
				t.Fatalf("malformed exposition line %q", line)
			}
			smp := promSample{name: line[:sp], labels: map[string]string{}}
			if i := strings.IndexByte(smp.name, '{'); i >= 0 {
				if !strings.HasSuffix(smp.name, "}") {
					t.Fatalf("unterminated label set in %q", line)
				}
				smp.labels = parseLabels(t, smp.name[i+1:len(smp.name)-1])
				smp.name = smp.name[:i]
			}
			n := smp.name
			if typ == "" || n != fam && (typ != "histogram" || n != fam+"_bucket" && n != fam+"_sum" && n != fam+"_count") {
				t.Fatalf("sample %q is outside its family's HELP/TYPE block", line)
			}
			if smp.value, err = strconv.ParseFloat(line[sp+1:], 64); err != nil {
				t.Fatalf("bad value in %q: %v", line, err)
			}
			out = append(out, smp)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// parseLabels parses `k="v",...`, failing on any escape the text format
// does not define.
func parseLabels(t *testing.T, s string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for s != "" {
		key, rest, ok := strings.Cut(s, `="`)
		if !ok {
			t.Fatalf("malformed label pair in %q", s)
		}
		var v strings.Builder
		i := 0
		for ; i < len(rest) && rest[i] != '"'; i++ {
			if rest[i] != '\\' {
				v.WriteByte(rest[i])
				continue
			}
			if i++; i == len(rest) {
				t.Fatalf("dangling escape in %q", s)
			}
			switch rest[i] {
			case 'n':
				v.WriteByte('\n')
			case '\\', '"':
				v.WriteByte(rest[i])
			default:
				t.Fatalf("label %s uses escape \\%c, which the text format rejects", key, rest[i])
			}
		}
		if i == len(rest) {
			t.Fatalf("unterminated label value in %q", s)
		}
		out[key] = v.String()
		s = strings.TrimPrefix(rest[i+1:], ",")
	}
	return out
}

// scrape fetches /metrics through the strict parser and returns every
// sample as name → value. Label sets are dropped except a bucket's le,
// which stays in the key as name{le="..."}.
func scrape(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, smp := range scrapeSamples(t, ts) {
		name := smp.name
		if le, ok := smp.labels["le"]; ok {
			name += `{le="` + le + `"}`
		}
		out[name] = smp.value
	}
	return out
}

// TestServedJobMetricsMatchManifest runs one job to completion and checks
// the acceptance criterion: /metrics is valid exposition whose final
// values equal the run's manifest stats, including the registry counters.
func TestServedJobMetricsMatchManifest(t *testing.T) {
	s, ts := newTestServer(t)
	v := submitJob(t, ts, JobSpec{Arch: "Ballerino", Workload: "store-load", Ops: 10_000})
	job := waitForState(t, s, v.ID, JobDone)
	m := job.Manifest()
	if m == nil {
		t.Fatal("done job has no manifest")
	}

	got := scrape(t, ts)
	for name, want := range map[string]float64{
		"ballserved_jobs_submitted_total": 1,
		"ballserved_jobs_completed_total": 1,
		"ballserved_jobs_failed_total":    0,
		"ballserved_job_done":             1,
		"ballserved_job_cycles":           float64(m.Stats.Cycles),
		"ballserved_job_committed":        float64(m.Stats.Committed),
		"ballserved_job_fetched":          float64(m.Stats.Fetched),
		"ballserved_job_issued":           float64(m.Stats.Issued),
		"ballserved_job_flushes":          float64(m.Stats.Flushes),
		"ballserved_job_squashed":         float64(m.Stats.Squashed),
		"ballserved_job_ipc":              m.Stats.IPC,
	} {
		if got[name] != want {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
	// Registry counters (including the sched.* set folded in at the end)
	// must appear under the ballerino_ prefix with manifest-exact values.
	if m.Metrics == nil || len(m.Metrics.Counters) == 0 {
		t.Fatal("manifest has no metrics dump")
	}
	checked := 0
	for name, want := range m.Metrics.Counters {
		pn := "ballerino_" + promTestName(name) + "_total"
		if gotV, ok := got[pn]; ok {
			checked++
			if gotV != float64(want) {
				t.Errorf("%s = %v, want %d", pn, gotV, want)
			}
		} else {
			t.Errorf("counter %q (%s) missing from exposition", name, pn)
		}
	}
	if checked == 0 {
		t.Error("no registry counters exposed")
	}
	// Histogram exposition: every registry histogram contributes a _count
	// equal to its sample count.
	for _, h := range m.Metrics.Histograms {
		pn := "ballerino_" + promTestName(h.Name) + "_count"
		if got[pn] != float64(h.N) {
			t.Errorf("%s = %v, want %d", pn, got[pn], h.N)
		}
	}
}

// promTestName mirrors the exposition's name sanitisation for lookups.
func promTestName(name string) string {
	var b strings.Builder
	under := false
	for i, c := range name {
		ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9' && i > 0)
		switch {
		case ok:
			b.WriteRune(c)
			under = c == '_'
		case !under:
			b.WriteByte('_')
			under = true
		}
	}
	return b.String()
}

// sseEvent is one parsed SSE frame.
type sseEvent struct {
	event string
	data  string
}

// readSSE parses frames off an SSE stream until stop returns true or the
// stream ends.
func readSSE(t *testing.T, r io.Reader, stop func(sseEvent) bool) []sseEvent {
	t.Helper()
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.event != "" || cur.data != "" {
				events = append(events, cur)
				if stop(cur) {
					return events
				}
				cur = sseEvent{}
			}
		case strings.HasPrefix(line, ":"):
			// comment
		case strings.HasPrefix(line, "event: "):
			cur.event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			cur.data = line[len("data: "):]
		default:
			t.Errorf("unexpected SSE line %q", line)
		}
	}
	return events
}

// TestSSEStream subscribes before submitting a job and verifies the live
// stream: well-formed frames, per-heartbeat interval events whose
// committed deltas sum to the manifest total, and the final job
// transition to done.
func TestSSEStream(t *testing.T) {
	s, ts := newTestServer(t)

	req, _ := http.NewRequest("GET", ts.URL+"/stream", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type = %q", ct)
	}

	v := submitJob(t, ts, JobSpec{Arch: "Ballerino", Workload: "stream", Ops: 20_000})

	done := func(e sseEvent) bool {
		if e.event != "job" {
			return false
		}
		var jv JobView
		if err := json.Unmarshal([]byte(e.data), &jv); err != nil {
			t.Fatalf("job event data: %v", err)
		}
		return jv.ID == v.ID && (jv.State == JobDone || jv.State == JobFailed)
	}
	events := readSSE(t, resp.Body, done)

	var intervals int
	var committed uint64
	for _, e := range events {
		switch e.event {
		case "interval":
			var iv streamInterval
			if err := json.Unmarshal([]byte(e.data), &iv); err != nil {
				t.Fatalf("interval event data: %v", err)
			}
			if iv.Job != v.ID {
				t.Errorf("interval for job %d, want %d", iv.Job, v.ID)
			}
			intervals++
			committed += iv.Committed
		case "job":
		default:
			t.Errorf("unexpected SSE event %q", e.event)
		}
	}
	if intervals == 0 {
		t.Fatal("no interval events streamed")
	}
	job := waitForState(t, s, v.ID, JobDone)
	m := job.Manifest()
	if committed != m.Stats.Committed {
		t.Errorf("streamed committed sum = %d, manifest = %d", committed, m.Stats.Committed)
	}
	if intervals != m.Intervals {
		t.Errorf("streamed %d intervals, manifest recorded %d", intervals, m.Intervals)
	}
}

// TestCancelRunningJob cancels a long job over HTTP and expects the
// cancelled terminal state via the pipeline's cooperative context.
func TestCancelRunningJob(t *testing.T) {
	s, ts := newTestServer(t)
	v := submitJob(t, ts, JobSpec{Arch: "Ballerino", Workload: "stream", Ops: 5_000_000})
	waitForState(t, s, v.ID, JobRunning)
	resp, err := http.Post(ts.URL+fmt.Sprintf("/jobs/%d/cancel", v.ID), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	job := waitForState(t, s, v.ID, JobCancelled)
	if m := job.Manifest(); m != nil {
		t.Error("cancelled job has a manifest")
	}
	if got := scrape(t, ts)["ballserved_jobs_cancelled_total"]; got != 1 {
		t.Errorf("cancelled counter = %v, want 1", got)
	}
}

// TestHealthReadyAndShutdown: /healthz is always live, /readyz tracks the
// accepting state, and Shutdown cancels the in-flight job and refuses new
// submissions.
func TestHealthReadyAndShutdown(t *testing.T) {
	s := mustServer(t, Options{HeartbeatCycles: 500})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/healthz"); got != 200 {
		t.Errorf("healthz before start = %d", got)
	}
	if got := get("/readyz"); got != 503 {
		t.Errorf("readyz before start = %d, want 503", got)
	}
	s.Start()
	if got := get("/readyz"); got != 200 {
		t.Errorf("readyz after start = %d", got)
	}

	v := submitJob(t, ts, JobSpec{Arch: "Ballerino", Workload: "stream", Ops: 5_000_000})
	waitForState(t, s, v.ID, JobRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if got := get("/readyz"); got != 503 {
		t.Errorf("readyz after shutdown = %d, want 503", got)
	}
	if st := s.Job(v.ID).State(); st != JobCancelled {
		t.Errorf("in-flight job state after shutdown = %q, want cancelled", st)
	}
	if _, err := s.Submit(JobSpec{Arch: "Ballerino", Workload: "stream"}); err == nil {
		t.Error("submit after shutdown succeeded")
	}
}

// TestSubmitValidation: malformed JSON and invalid configs are 400s with
// an error body, and never reach the queue.
func TestSubmitValidation(t *testing.T) {
	s, ts := newTestServer(t)
	for _, body := range []string{
		`{"arch": "NoSuchArch"}`,
		`{"arch": "Ballerino", "workload": "no-such-kernel"}`,
		`{"arch": "Ballerino", "width": 3}`,
		`{not json`,
		`{"unknown_field": 1}`,
	} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %q: status %d (%s), want 400", body, resp.StatusCode, b)
		}
	}
	if got := s.submitted.Load(); got != 0 {
		t.Errorf("invalid submissions reached the queue: %d", got)
	}
	if got := get404(t, ts, "/jobs/99"); got != http.StatusNotFound {
		t.Errorf("GET /jobs/99 = %d, want 404", got)
	}
}

func get404(t *testing.T, ts *httptest.Server, path string) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestPlaylistJobsRunInOrder: jobs submitted back-to-back (the playlist
// shape) execute sequentially, each leaving a manifest.
func TestPlaylistJobsRunInOrder(t *testing.T) {
	s, ts := newTestServer(t)
	specs := []JobSpec{
		{Arch: "CASINO", Workload: "store-load", Ops: 5_000},
		{Arch: "Ballerino", Workload: "store-load", Ops: 5_000},
	}
	var ids []int
	for _, sp := range specs {
		ids = append(ids, submitJob(t, ts, sp).ID)
	}
	for i, id := range ids {
		job := waitForState(t, s, id, JobDone)
		m := job.Manifest()
		if m == nil || m.Sim.Arch != specs[i].Arch {
			t.Fatalf("job %d manifest arch = %+v, want %s", id, m, specs[i].Arch)
		}
	}
	if got := scrape(t, ts)["ballserved_jobs_completed_total"]; got != 2 {
		t.Errorf("completed = %v, want 2", got)
	}
}

// TestMultiWorkerServer: with Workers > 1 the queue drains concurrently,
// every job still reaches a terminal state with its own manifest, and
// jobs over the same kernel share one cached trace (misses == distinct
// kernels, the rest hits or singleflight joins).
func TestMultiWorkerServer(t *testing.T) {
	s := mustServer(t, Options{HeartbeatCycles: 500, Workers: 4})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})

	specs := []JobSpec{
		{Arch: "InO", Workload: "store-load", Ops: 8_000},
		{Arch: "OoO", Workload: "store-load", Ops: 8_000},
		{Arch: "CASINO", Workload: "store-load", Ops: 8_000},
		{Arch: "Ballerino", Workload: "store-load", Ops: 8_000},
		{Arch: "InO", Workload: "stream", Ops: 8_000},
		{Arch: "Ballerino", Workload: "stream", Ops: 8_000},
	}
	var ids []int
	for _, sp := range specs {
		ids = append(ids, submitJob(t, ts, sp).ID)
	}
	for i, id := range ids {
		job := waitForState(t, s, id, JobDone)
		m := job.Manifest()
		if m == nil || m.Sim.Arch != specs[i].Arch || m.Sim.Workload != specs[i].Workload {
			t.Fatalf("job %d manifest = %+v, want %s/%s", id, m, specs[i].Arch, specs[i].Workload)
		}
	}

	mets := scrape(t, ts)
	if got := mets["ballserved_jobs_completed_total"]; got != float64(len(specs)) {
		t.Errorf("completed = %v, want %d", got, len(specs))
	}
	if got := mets["ballserved_workers"]; got != 4 {
		t.Errorf("workers gauge = %v, want 4", got)
	}
	if got := mets["ballserved_trace_cache_misses_total"]; got != 2 {
		t.Errorf("trace generations = %v, want 2 (one per distinct kernel)", got)
	}
	hits := mets["ballserved_trace_cache_hits_total"] + mets["ballserved_trace_cache_joins_total"]
	if hits != float64(len(specs))-2 {
		t.Errorf("hits+joins = %v, want %d", hits, len(specs)-2)
	}
}

// TestTopdownJobTelemetry runs a Topdown job to completion and checks the
// cycle accounting surfaces end to end: the manifest carries the report,
// the job view exposes a conserved per-category slot map, and /metrics
// emits one ballerino_topdown_slots_total series per category with the
// manifest's final values.
func TestTopdownJobTelemetry(t *testing.T) {
	s, ts := newTestServer(t)
	v := submitJob(t, ts, JobSpec{Arch: "OoO", Workload: "stream", Ops: 10_000, Topdown: true})
	job := waitForState(t, s, v.ID, JobDone)
	m := job.Manifest()
	if m == nil || m.Topdown == nil {
		t.Fatal("done topdown job has no topdown report in its manifest")
	}

	view := job.View(false)
	if view.Topdown == nil {
		t.Fatal("job view has no topdown tally")
	}
	var sum uint64
	for i, name := range topdown.Names() {
		c, ok := view.Topdown[name]
		if !ok {
			t.Fatalf("job view topdown missing category %q", name)
		}
		if c != m.Topdown.Counts[i] {
			t.Errorf("view %s = %d, want manifest's %d", name, c, m.Topdown.Counts[i])
		}
		sum += c
	}
	if sum != m.Topdown.TotalSlots {
		t.Errorf("view slots sum to %d, want width × cycles = %d", sum, m.Topdown.TotalSlots)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for i, name := range topdown.Names() {
		want := fmt.Sprintf("ballerino_topdown_slots_total{arch=\"OoO\",category=%q,job=\"%d\",workload=\"stream\"} %d",
			name, v.ID, m.Topdown.Counts[i])
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("/metrics missing series %q", want)
		}
	}

	// A job without accounting must not grow a topdown tally.
	v2 := submitJob(t, ts, JobSpec{Arch: "OoO", Workload: "stream", Ops: 10_000})
	plain := waitForState(t, s, v2.ID, JobDone)
	if pv := plain.View(false); pv.Topdown != nil {
		t.Errorf("non-topdown job view has topdown tally %v", pv.Topdown)
	}
}

// TestExpositionConformance feeds the strict scraper a served top-down
// trace-file job whose spec workload holds a tab. Lowering replaces a
// trace-file spec's workload, so the tab is never validated away: it
// reaches every job-labelled series raw, which the text format allows,
// and must never be written as the undefined escape \t.
func TestExpositionConformance(t *testing.T) {
	s, ts := newTestServer(t)
	spec := JobSpec{Arch: "OoO", Workload: "store-load", Ops: 5_000}
	tr, err := ballerino.PrepareTrace(context.Background(), spec.Config())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "store-load.balltrace")
	if err := ballerino.ExportTrace(path, tr); err != nil {
		t.Fatal(err)
	}
	const workload = "store\tload"
	v := submitJob(t, ts, JobSpec{Arch: "OoO", Workload: workload, TraceFile: path, Topdown: true})
	waitForState(t, s, v.ID, JobDone)

	var topdownSeries, jobSeries int
	for _, smp := range scrapeSamples(t, ts) {
		switch {
		case smp.name == "ballerino_topdown_slots_total":
			topdownSeries++
		case smp.labels["job"] != "":
			jobSeries++
		default:
			continue
		}
		if smp.labels["workload"] != workload {
			t.Errorf("%s workload label = %q, want %q", smp.name, smp.labels["workload"], workload)
		}
	}
	if topdownSeries != len(topdown.Names()) || jobSeries == 0 {
		t.Errorf("scraped %d top-down and %d job series, want %d and > 0",
			topdownSeries, jobSeries, len(topdown.Names()))
	}
}

// countSink counts dispatches and P-IQ shares: the reference the served
// share-rate gauge is checked against.
type countSink struct{ dispatches, shares uint64 }

func (c *countSink) Event(e *obs.Event) {
	switch e.Kind {
	case obs.KindDispatch:
		c.dispatches++
	case obs.KindPIQShare:
		c.shares++
	}
}
func (c *countSink) Interval(obs.Interval) {}
func (c *countSink) Close() error          { return nil }

// TestShareRateGauge: a finished Ballerino job that shared P-IQs reports
// ballserved_job_piq_share_rate = shares ÷ dispatches, exactly as a
// counting sink sees them on the same config run through RunContext. The
// reference run's recorder has a sink, so its cycle loop steps every
// cycle and emits every event; the served job's recorder has none, so
// its loop skips quiet cycles and the gauge reads the two counts from the
// recorder's start and last snapshots. The warm-up input holds the gauge
// to the measured region: the scheduler's share count includes warm-up,
// the sink's does not.
func TestShareRateGauge(t *testing.T) {
	for _, spec := range []JobSpec{
		{Arch: "Ballerino", Workload: "store-load", Ops: 10_000},
		{Arch: "Ballerino", Workload: "store-load", Ops: 10_000, WarmupOps: 3_000},
	} {
		t.Run(fmt.Sprintf("warmup=%d", spec.WarmupOps), func(t *testing.T) {
			s, ts := newTestServer(t)
			v := submitJob(t, ts, spec)
			if m := waitForState(t, s, v.ID, JobDone).Manifest(); m.SchedCounters["share_activates"] == 0 {
				t.Fatal("job never activated P-IQ sharing; the test needs a kernel that does")
			}
			got := scrape(t, ts)["ballserved_job_piq_share_rate"]

			var c countSink
			cfg := spec.Config()
			cfg.Recorder = obs.NewRecorder(0, &c)
			if _, err := ballerino.RunContext(context.Background(), cfg); err != nil {
				t.Fatal(err)
			}
			if c.shares == 0 {
				t.Fatal("reference run emitted no P-IQ share events")
			}
			if want := float64(c.shares) / float64(c.dispatches); got != want {
				t.Errorf("share rate gauge = %v, want %d/%d = %v", got, c.shares, c.dispatches, want)
			}
		})
	}
}

// TestShareRateResetOnRetry: the share rate is per-attempt state, so the
// reset before a retry clears it with the other live counters and the
// gauge never mixes a failed attempt's dispatches and shares with the
// retry's.
func TestShareRateResetOnRetry(t *testing.T) {
	s := mustServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rec := obs.NewRecorder(0)
	rec.Start(obs.Snapshot{Cycle: 50, PIQShares: 2}) // shares made in warm-up
	rec.Heartbeat(obs.Snapshot{Cycle: 100, Dispatched: 4, PIQShares: 3})
	live := newLiveJob(&Job{ID: 1, Spec: JobSpec{Arch: "Ballerino", Workload: "store-load"}})
	live.observe(obs.Interval{StartCycle: 50, EndCycle: 100}, rec)
	s.mu.Lock()
	s.live = live
	s.mu.Unlock()

	if got := scrape(t, ts)["ballserved_job_piq_share_rate"]; got != 0.25 {
		t.Fatalf("share rate = %v, want 1/4", got)
	}
	live.reset()
	if got := scrape(t, ts)["ballserved_job_piq_share_rate"]; got != 0 {
		t.Errorf("share rate after reset = %v, want 0", got)
	}
}
