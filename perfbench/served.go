package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/jobstore"
	"repro/internal/span"
	"repro/internal/telemetry"
)

// servedKernels are the compute-leaning kernels of the served mix, where the
// cycle loop stays busy (IPC 0.3–1.9) under the recorder and topdown.
var servedKernels = []string{"branchy", "compute", "mixed", "reduction", "stencil", "stream"}

var servedWidths = []int{4, 8, 10}

const (
	// servedResubmits is how many earlier specs a round resubmits: about
	// one job in ten, each served by the durable store.
	servedResubmits = 13
	// pollPeriod is how often the client polls a job for its terminal
	// state; it bounds the notification lag a job's latency includes.
	pollPeriod = 3 * time.Millisecond
	// scrapePeriod is the /metrics scraper's fixed period.
	scrapePeriod = 500 * time.Millisecond
)

// servedSequence is round r of the served job sequence for seed: every
// kernel × design × width once, topdown on the third fixed by the triple,
// in a seeded order, plus resubmits of earlier specs of the round at
// seeded later positions. Round r runs at DVFS level L(r mod 4 + 1), which
// changes every content key, so rounds stay distinct for four rounds.
func servedSequence(seed int64, r int) []servedOp {
	dvfs := fmt.Sprintf("L%d", r%4+1)
	var ops []servedOp
	for ki, k := range servedKernels {
		for di, d := range designs {
			for wi, w := range servedWidths {
				ops = append(ops, servedOp{telemetry.JobSpec{Arch: d, Workload: k, Width: w,
					Ops: opsPerRequest, DVFS: dvfs, Topdown: (ki+di+wi)%3 == 0}, len(ops)})
			}
		}
	}
	rng := rand.New(rand.NewSource(seed*1_000_037 + int64(r)))
	seq := make([]servedOp, 0, len(ops)+servedResubmits)
	for _, j := range rng.Perm(len(ops)) {
		seq = append(seq, ops[j])
	}
	for i := 0; i < servedResubmits; i++ {
		src := rng.Intn(len(seq))
		seq = slices.Insert(seq, src+1+rng.Intn(len(seq)-src), servedOp{seq[src].spec, len(ops) + i})
	}
	return seq
}

// servedOp is one job of a round: its spec and its position in the
// multiset every round permutes (a resubmit has a position of its own).
type servedOp struct {
	spec telemetry.JobSpec
	slot int
}

func specKey(sp telemetry.JobSpec) string {
	return fmt.Sprintf("%s|%s|w%d|%s|td=%t|%s", sp.Workload, sp.Arch, sp.Width, sp.DVFS, sp.Topdown, sp.TraceFile)
}

// served is an in-process telemetry server set up like ballserved's
// defaults (one worker, lifecycle tracing on, text logs to a file) plus a
// durable store, behind its HTTP handler on loopback.
type served struct {
	b      *bench
	dir    string
	store  *jobstore.Store
	srv    *telemetry.Server
	hs     *http.Server
	serve  chan error // Serve's return
	logf   *os.File
	base   string
	client *http.Client // the load client's connection
	scr    *scraper
	jobs   []int // every job submitted, for span collection
}

func setUpServed(ctx context.Context, b *bench) (runner, error) {
	return newServed(ctx, b, true)
}

// newServed starts the server; with warm it runs one job per kernel first,
// which fills the server's trace cache.
func newServed(ctx context.Context, b *bench, warm bool) (*served, error) {
	dir, err := b.subdir("served")
	if err != nil {
		return nil, err
	}
	s := &served{b: b, dir: dir, client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
	if err := s.start(); err != nil {
		return nil, errors.Join(err, s.close())
	}
	if warm {
		root := b.start("setup", "setup")
		for _, k := range servedKernels {
			runtime.GC()
			spec := telemetry.JobSpec{Arch: "InO", Workload: k, Width: 2, Ops: opsPerRequest}
			v, err := s.job(ctx, root, spec)
			if err == nil && v.State != telemetry.JobDone {
				err = fmt.Errorf("warm-up job %d ended %s: %s", v.ID, v.State, v.Error)
			}
			if err != nil {
				root.End()
				return nil, errors.Join(err, s.close())
			}
		}
		root.End()
	}
	s.scr = startScraper(b, s.base)
	return s, nil
}

func (s *served) start() error {
	var err error
	if s.logf, err = os.Create(filepath.Join(s.dir, "ballserved.log")); err != nil {
		return err
	}
	if s.store, err = jobstore.Open(filepath.Join(s.dir, "store")); err != nil {
		return err
	}
	s.srv, err = telemetry.NewServer(telemetry.Options{
		Workers: 1,
		Store:   s.store,
		Tracer:  span.NewTracer(0),
		Logger:  slog.New(slog.NewTextHandler(s.logf, nil)),
	})
	if err != nil {
		return err
	}
	s.srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv.Handler()}
	s.serve = make(chan error, 1)
	go func() { s.serve <- s.hs.Serve(ln) }()
	return nil
}

func (s *served) round(ctx context.Context, r int) []outcome {
	return s.run(ctx, r, servedSequence(s.b.seed, r), "request")
}

// run submits each spec in turn and waits for it, one client in a closed
// loop, then reports any scrape that failed meanwhile.
func (s *served) run(ctx context.Context, r int, seq []servedOp, kind string) []outcome {
	outs := make([]outcome, 0, len(seq))
	for _, op := range seq {
		spec := op.spec
		o := outcome{key: specKey(spec), kernel: spec.Workload, design: spec.Arch, width: spec.Width,
			topdown: spec.Topdown, round: r, slot: op.slot, wantOps: opsPerRequest}
		root := s.b.start(kind, "request")
		o.traceID = root.TraceID()
		start := time.Now()
		v, err := s.job(ctx, root, spec)
		o.latency = time.Since(start)
		root.End()
		o.jobID, o.fromStore = v.ID, v.FromStore
		switch {
		case err != nil:
			o.err = err.Error()
		case v.State != telemetry.JobDone:
			o.err = fmt.Sprintf("job %d ended %s: %s", v.ID, v.State, v.Error)
		default:
			m := v.Manifest
			o.cycles, o.committed, o.energyPJ = m.Stats.Cycles, m.Stats.Committed, m.Energy.TotalPJ
		}
		outs = append(outs, o)
	}
	for _, err := range s.scr.takeErrors() {
		outs = append(outs, outcome{key: "GET /metrics", round: r, err: err.Error()})
	}
	return outs
}

// job submits spec and polls the job until it reaches a terminal state
// with its manifest.
func (s *served) job(ctx context.Context, root *span.Span, spec telemetry.JobSpec) (telemetry.JobView, error) {
	var v telemetry.JobView
	body, err := json.Marshal(spec)
	if err != nil {
		return v, err
	}
	sp := root.Child("POST /jobs")
	err = s.call(ctx, http.MethodPost, "/jobs", body, http.StatusAccepted, &v)
	sp.End()
	if err != nil {
		return v, err
	}
	s.jobs = append(s.jobs, v.ID)
	root.SetInt("job", int64(v.ID))
	aw := root.Child("await")
	aw.SetInt("job", int64(v.ID))
	defer aw.End()
	for polls := 1; ; polls++ {
		done := v.State == telemetry.JobDone && v.Manifest != nil
		if done || (v.State != telemetry.JobDone && terminal(v.State)) {
			aw.SetInt("polls", int64(polls))
			return v, nil
		}
		time.Sleep(pollPeriod)
		if err := s.call(ctx, http.MethodGet, fmt.Sprintf("/jobs/%d", v.ID), nil, http.StatusOK, &v); err != nil {
			return v, err
		}
	}
}

func terminal(st telemetry.JobState) bool {
	switch st {
	case telemetry.JobDone, telemetry.JobFailed, telemetry.JobCancelled, telemetry.JobParked:
		return true
	}
	return false
}

// call makes one request on the load client's connection and decodes a
// response of the wanted status into into.
func (s *served) call(ctx context.Context, method, path string, body []byte, want int, into any) error {
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

func (s *served) maxRounds() int { return 4 }

// programTrees fetches the lifecycle span tree of every job the server ran.
func (s *served) programTrees(ctx context.Context) ([]*span.Tree, error) {
	var trees []*span.Tree
	for _, id := range s.jobs {
		tr := new(span.Tree)
		if err := s.call(ctx, http.MethodGet, fmt.Sprintf("/jobs/%d/spans", id), nil, http.StatusOK, tr); err != nil {
			return nil, err
		}
		trees = append(trees, tr)
	}
	return trees, nil
}

// close stops the scraper, drains the HTTP server and the job server
// (which checkpoints and closes the store), and removes the scratch files.
func (s *served) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if s.scr != nil {
		s.scr.stopAndWait()
	}
	if s.hs != nil {
		errs = append(errs, s.hs.Shutdown(ctx))
		if err := <-s.serve; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	s.client.CloseIdleConnections()
	switch {
	case s.srv != nil:
		errs = append(errs, s.srv.Shutdown(ctx))
	case s.store != nil:
		errs = append(errs, s.store.Close())
	}
	if s.logf != nil {
		errs = append(errs, s.logf.Close())
	}
	errs = append(errs, os.RemoveAll(s.dir))
	return errors.Join(errs...)
}

// scraper is the second connection: it scrapes GET /metrics at a fixed
// period until stopped.
type scraper struct {
	b      *bench
	url    string
	client *http.Client
	stop   chan struct{}
	done   chan struct{}

	mu   sync.Mutex
	errs []error
}

func startScraper(b *bench, base string) *scraper {
	sc := &scraper{b: b, url: base + "/metrics", stop: make(chan struct{}), done: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
	go func() {
		defer close(sc.done)
		t := time.NewTicker(scrapePeriod)
		defer t.Stop()
		for {
			select {
			case <-sc.stop:
				return
			case <-t.C:
				sc.scrape()
			}
		}
	}()
	return sc
}

// scrape fetches the exposition once under its own span.
func (sc *scraper) scrape() {
	sp := sc.b.start("scrape", "GET /metrics")
	n, err := sc.get()
	sp.SetInt("bytes", n)
	sp.Fail(err)
	sp.End()
	if err != nil {
		sc.mu.Lock()
		sc.errs = append(sc.errs, err)
		sc.mu.Unlock()
	}
}

func (sc *scraper) get() (int64, error) {
	resp, err := sc.client.Get(sc.url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return n, err
}

// takeErrors returns and clears the scrape failures seen so far.
func (sc *scraper) takeErrors() []error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	errs := sc.errs
	sc.errs = nil
	return errs
}

func (sc *scraper) stopAndWait() {
	close(sc.stop)
	<-sc.done
	sc.client.CloseIdleConnections()
}
