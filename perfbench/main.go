// Command perfbench is the repository's benchmark. For a workload name and a
// seed it builds a request sequence, runs it in one process through the
// simulator's public entry points (ballerino.RunContext, RunAll,
// PrepareTrace, ExportTrace/ImportTrace and the telemetry server's HTTP
// API), checks every result, and prints the end-to-end metrics as the last
// line of standard output. With --trace 1 it instead runs the same window
// untraced and then traced, times every layer from outside through spans
// around the calls into it, and prints the per-layer metrics.
//
// Run it from the repository root through the wrapper that builds it:
//
//	bash perfbench/run.sh --workload cold-run --seed 1 --seconds 10 --trace 0
//
// See BENCHMARK.json for the workloads, the metrics and the predictions
// they encode.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/span"
)

// opsPerRequest is the μop budget of every simulated point: the tier-1
// point size, default 8 MiB footprint.
const opsPerRequest = 30_000

// setUps is how many times an untraced run performs its set-up; setup_s is
// the median, and the window runs on the last one.
const setUps = 3

// designs are the paper's seven compared designs.
var designs = []string{"InO", "OoO", "CES", "CASINO", "FXA", "Ballerino", "Ballerino-12"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: cold-run, sweep-memory or served")
	seed := fs.Int64("seed", 1, "seed of the request sequence")
	seconds := fs.Int("seconds", 10, "minimum length of the measured window, in seconds")
	traced := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	dir := fs.String("dir", ".bench_build", "directory for scratch files and span output")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*name]; !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload %v, --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	scratch, err := os.MkdirTemp(*dir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	b := &bench{name: *name, seed: *seed, dir: scratch, out: stdout}
	window := time.Duration(*seconds) * time.Second
	var res *result
	if *traced == 1 {
		res, err = tracedRun(context.Background(), b, window, filepath.Join(*dir, "spans"))
	} else {
		res, err = untracedRun(context.Background(), b, window)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// bench is the state one run shares across its workload, set-ups and
// window.
type bench struct {
	name string // the workload
	seed int64
	dir  string    // scratch directory of this run, removed at exit
	out  io.Writer // human-readable report lines

	// tracer records the benchmark's spans around calls into each layer,
	// one trace per operation; nil in untraced runs, where every span call
	// is a no-op.
	tracer *span.Tracer

	mu       sync.Mutex // guards the fields below (the scraper starts traces too)
	traceIDs []string   // every trace started, in order
	nIDs     int
}

// start begins the root span of a new trace, with an ID made unique from
// kind (nil when untraced).
func (b *bench) start(kind, name string) *span.Span {
	if b.tracer == nil {
		return nil
	}
	b.mu.Lock()
	b.nIDs++
	id := fmt.Sprintf("%s-%d", kind, b.nIDs)
	b.traceIDs = append(b.traceIDs, id)
	b.mu.Unlock()
	return b.tracer.Start(id, name)
}

// subdir makes a fresh scratch directory for one set-up or probe.
func (b *bench) subdir(prefix string) (string, error) {
	b.mu.Lock()
	b.nIDs++
	d := filepath.Join(b.dir, fmt.Sprintf("%s-%d", prefix, b.nIDs))
	b.mu.Unlock()
	return d, os.MkdirAll(d, 0o755)
}

func (b *bench) reportf(format string, args ...any) {
	fmt.Fprintf(b.out, format+"\n", args...)
}

// A runner executes rounds of a workload's request sequence on one set-up.
// Every round is a seeded permutation of one multiset of operations
// (served rounds differ only in their DVFS level), so windows of any number
// of rounds, and every seed, load the layers in the same proportions.
type runner interface {
	// round executes round r of the request sequence in order, one outcome
	// per operation.
	round(ctx context.Context, r int) []outcome
	// maxRounds is how many rounds the workload can run before its inputs
	// would repeat (0 = unbounded).
	maxRounds() int
	// programTrees returns the span trees the program recorded itself,
	// which the benchmark's tracer does not hold (served job lifecycles).
	programTrees(ctx context.Context) ([]*span.Tree, error)
	// close tears the set-up down.
	close() error
}

// workloads maps each traffic mix to its set-up.
var workloads = map[string]func(ctx context.Context, b *bench) (runner, error){
	"cold-run":     setUpColdRun,
	"sweep-memory": setUpSweep,
	"served":       setUpServed,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// outcome is one operation of a window as its client saw it.
type outcome struct {
	key     string // configuration identity; a recurring key must reproduce its first result
	kernel  string
	design  string
	width   int  // issue width (0 = the default 8)
	topdown bool // topdown accounting attached
	round   int
	slot    int // the operation's position in the multiset every round permutes
	latency time.Duration
	wantOps uint64
	err     string // why the operation failed ("" = it did not)

	cycles, committed uint64
	energyPJ          float64
	fromStore         bool // served from the durable job store

	traceID string // the benchmark's trace of this operation
	jobID   int    // served job ID (0 elsewhere)
}

func (o *outcome) failed() bool { return o.err != "" }

// windowResult is one measured window.
type windowResult struct {
	outs       []outcome
	rounds     int
	roundSecs  []float64
	start, end time.Time
	elapsed    time.Duration
	heapMB     float64      // live heap after a forced GC at window end
	trees      []*span.Tree // program-recorded spans (traced runs)
}

// runWindow runs whole rounds and stops at the round boundary nearest to
// length (or when the workload runs out of distinct inputs), then measures
// the live heap before anything is torn down.
func runWindow(ctx context.Context, r runner, length time.Duration) windowResult {
	runtime.GC()
	w := windowResult{start: time.Now()}
	for {
		began := time.Now()
		w.outs = append(w.outs, r.round(ctx, w.rounds)...)
		w.roundSecs = append(w.roundSecs, time.Since(began).Seconds())
		w.rounds++
		elapsed := time.Since(w.start)
		if elapsed+elapsed/time.Duration(2*w.rounds) >= length || w.rounds == r.maxRounds() {
			break
		}
	}
	w.end = time.Now()
	w.elapsed = w.end.Sub(w.start)
	w.heapMB = liveHeapMB()
	return w
}

// liveHeapMB is the heap in use after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// setUpTimed runs one set-up from a collected heap and returns its runner
// and wall time.
func setUpTimed(ctx context.Context, b *bench) (runner, time.Duration, error) {
	runtime.GC()
	start := time.Now()
	r, err := workloads[b.name](ctx, b)
	if err != nil {
		err = fmt.Errorf("%s set-up: %w", b.name, err)
	}
	return r, time.Since(start), err
}

// untracedWindow sets the workload up several times, then runs one
// untraced window on the last set-up; it returns the window and every
// set-up's wall time.
func untracedWindow(ctx context.Context, b *bench, length time.Duration) (windowResult, []float64, error) {
	var setups []float64
	for {
		r, d, err := setUpTimed(ctx, b)
		if err != nil {
			return windowResult{}, nil, err
		}
		setups = append(setups, d.Seconds())
		last := len(setups) == setUps
		var w windowResult
		if last {
			w = runWindow(ctx, r, length)
		}
		if err := r.close(); err != nil {
			return windowResult{}, nil, fmt.Errorf("%s tear-down: %w", b.name, err)
		}
		if last {
			return w, setups, nil
		}
	}
}

// untracedRun measures the end-to-end metrics.
func untracedRun(ctx context.Context, b *bench, length time.Duration) (*result, error) {
	w, setups, err := untracedWindow(ctx, b, length)
	if err != nil {
		return nil, err
	}
	failed, problems := check(w.outs)
	for _, p := range problems {
		b.reportf("FAILED %s", p)
	}
	b.reportf("%s seed %d: %d rounds, %d operations in %.3fs; rounds %.3f s; set-ups %.3f s",
		b.name, b.seed, w.rounds, len(w.outs), w.elapsed.Seconds(), w.roundSecs, setups)
	sums := roundSums(w)[0]
	b.reportf("exact, first round: sim.cycles=%d sim.committed=%d sim.ipc=%.6f",
		sums.cycles, sums.committed, sums.ipc())
	return &result{
		Correct:   failed == 0,
		Attempted: len(w.outs),
		Failed:    failed,
		Metrics:   endToEnd(setups, w, peakRSSMB()),
	}, nil
}

// tracedRun measures the per-layer metrics. It runs the window untraced, as
// an untraced run does, and then traced on a fresh set-up with the same
// seed, so that the difference is the tracing overhead and the simulated
// totals must agree exactly; then it probes the layers the window leaves
// idle.
func tracedRun(ctx context.Context, b *bench, length time.Duration, spanDir string) (*result, error) {
	plain, _, err := untracedWindow(ctx, b, length)
	if err != nil {
		return nil, err
	}

	b.tracer = span.NewTracer(-1)
	r, _, err := setUpTimed(ctx, b)
	if err != nil {
		return nil, err
	}
	w := runWindow(ctx, r, length)
	if w.trees, err = r.programTrees(ctx); err != nil {
		return nil, errors.Join(fmt.Errorf("%s spans: %w", b.name, err), r.close())
	}
	p, perr := probe(ctx, b, r, w.outs)
	if err := r.close(); err != nil {
		return nil, fmt.Errorf("%s tear-down: %w", b.name, err)
	}
	if perr != nil {
		return nil, fmt.Errorf("%s probe: %w", b.name, perr)
	}

	failed, problems := check(plain.outs)
	f2, p2 := check(w.outs)
	failed += f2
	problems = append(problems, p2...)
	for _, pr := range problems {
		b.reportf("FAILED %s", pr)
	}
	plainSums, sums := roundSums(plain), roundSums(w)
	agree := true
	for i := range min(len(plainSums), len(sums)) {
		if plainSums[i] != sums[i] {
			agree = false
			b.reportf("FAILED round %d simulated totals differ: untraced %+v, traced %+v", i, plainSums[i], sums[i])
		}
	}

	sp := collectSpans(b, w, p)
	m := perLayer(sp, plain, w, p, sums[0])
	b.reportf("%s seed %d: untraced %.0f uops/s over %d rounds, traced %.0f uops/s over %d rounds; tracing overhead %+.2f%%",
		b.name, b.seed, throughput(plain), plain.rounds, throughput(w), w.rounds, 100*m["tracing.overhead"].Value)
	reportSelfTimes(b, sp, w.elapsed)

	path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.trace.json", b.name, b.seed))
	if err := writeChrome(path, sp); err != nil {
		return nil, err
	}
	b.reportf("spans written to %s (chrome://tracing or Perfetto)", path)
	return &result{
		Correct:   failed == 0 && agree && p.failed == 0,
		Attempted: len(plain.outs) + len(w.outs) + p.attempted,
		Failed:    failed + p.failed,
		Metrics:   m,
	}, nil
}
