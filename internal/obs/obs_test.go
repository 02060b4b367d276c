package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/sched"
)

// --- metrics ---

func TestHistogramObserve(t *testing.T) {
	h := NewHistogram("h", []uint64{1, 2, 4, 8})
	for _, v := range []uint64{0, 1, 2, 3, 4, 8, 9, 100} {
		h.Observe(v)
	}
	want := []uint64{2, 1, 2, 1, 2} // ≤1, ≤2, ≤4, ≤8, overflow
	for i, c := range h.Counts {
		if c != want[i] {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, c, want[i], h.Counts)
		}
	}
	if h.N != 8 || h.Sum != 127 || h.Max != 100 {
		t.Errorf("N=%d Sum=%d Max=%d", h.N, h.Sum, h.Max)
	}
	if got := h.Mean(); got != 127.0/8 {
		t.Errorf("Mean = %v", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram("h", []uint64{10, 20, 30})
	var empty uint64
	if empty = h.Quantile(0.5); empty != 0 {
		t.Errorf("empty quantile = %d", empty)
	}
	for i := 0; i < 90; i++ {
		h.Observe(5) // first bucket
	}
	for i := 0; i < 10; i++ {
		h.Observe(25) // third bucket
	}
	if got := h.Quantile(0.5); got != 10 {
		t.Errorf("p50 = %d, want 10", got)
	}
	if got := h.Quantile(0.95); got != 30 {
		t.Errorf("p95 = %d, want 30", got)
	}
	h.Observe(1000) // overflow
	if got := h.Quantile(1.0); got != 1000 {
		t.Errorf("p100 = %d, want Max", got)
	}
}

func TestHistogramPanics(t *testing.T) {
	for name, bounds := range map[string][]uint64{
		"empty":         {},
		"non-ascending": {4, 2},
		"duplicate":     {4, 4},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s bounds: no panic", name)
				}
			}()
			NewHistogram("bad", bounds)
		}()
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Inc()
	r.Counter("a").Add(2)
	r.Counter("b").Add(5)
	if got := r.Counter("a").Value(); got != 3 {
		t.Errorf("counter a = %d", got)
	}
	h1 := r.NewHistogram("h", []uint64{1, 2})
	h2 := r.NewHistogram("h", []uint64{9, 99}) // same name: first wins
	if h1 != h2 {
		t.Error("duplicate histogram registration returned a new histogram")
	}
	if r.Histogram("missing") != nil {
		t.Error("missing histogram not nil")
	}
	h1.Observe(2)

	d := r.Dump()
	if d.Counters["a"] != 3 || d.Counters["b"] != 5 {
		t.Errorf("dump counters = %v", d.Counters)
	}
	if len(d.Histograms) != 1 || d.Histograms[0].N != 1 || d.Histograms[0].P50 != 2 {
		t.Errorf("dump histograms = %+v", d.Histograms)
	}
	var nilReg *Registry
	if nilReg.Dump() != nil {
		t.Error("nil registry dump not nil")
	}
}

// --- recorder ---

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Emit(Event{Kind: KindFetch})
	r.ObserveCommit(&sched.UOp{D: &isa.DynInst{}}, 1)
	r.Heartbeat(Snapshot{})
	r.Finish(Snapshot{})
	r.FinalizeSched(map[string]uint64{"x": 1})
	if r.HeartbeatDue(1 << 60) {
		t.Error("nil recorder claims heartbeat due")
	}
	if start, last := r.Snapshots(); r.Registry() != nil || r.Intervals() != 0 || start != (Snapshot{}) || last != (Snapshot{}) {
		t.Error("nil recorder leaked state")
	}
	if err := r.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
}

func TestRecorderHeartbeat(t *testing.T) {
	mem := &MemorySink{}
	r := NewRecorder(100, mem)

	if r.HeartbeatDue(99) {
		t.Error("heartbeat due before interval")
	}
	if !r.HeartbeatDue(100) {
		t.Error("heartbeat not due at interval")
	}
	r.Heartbeat(Snapshot{Cycle: 100, Committed: 40, Fetched: 50, SchedOccupancy: 7})
	if r.HeartbeatDue(150) {
		t.Error("heartbeat due again before next interval")
	}
	r.Heartbeat(Snapshot{Cycle: 200, Committed: 90, Fetched: 100, SchedOccupancy: 9})
	// Final partial interval.
	r.Finish(Snapshot{Cycle: 250, Committed: 130, Fetched: 140})
	// Finish with an unchanged snapshot must not add an empty interval.
	r.Finish(Snapshot{Cycle: 250, Committed: 130, Fetched: 140})

	if len(mem.Intervals) != 3 {
		t.Fatalf("intervals = %d, want 3", len(mem.Intervals))
	}
	iv := mem.Intervals[1]
	if iv.Index != 1 || iv.StartCycle != 100 || iv.EndCycle != 200 || iv.Committed != 50 {
		t.Errorf("interval 1 = %+v", iv)
	}
	if got := iv.IPC(); got != 0.5 {
		t.Errorf("interval IPC = %v", got)
	}
	var total uint64
	for _, iv := range mem.Intervals {
		total += iv.Committed
	}
	if total != 130 {
		t.Errorf("interval committed sum = %d, want final 130", total)
	}
	// The start and last snapshots span every interval row.
	if start, last := r.Snapshots(); last.Delta(start).Committed != total || last.Cycle != 250 {
		t.Errorf("snapshots = %+v, %+v", start, last)
	}
	if r.Intervals() != 3 {
		t.Errorf("Intervals() = %d", r.Intervals())
	}
	// Occupancy histogram saw each heartbeat's level.
	if h := r.Registry().Histogram("sched_occupancy"); h.N != 3 {
		t.Errorf("occupancy samples = %d", h.N)
	}
}

func TestRecorderSkippedBeatsCatchUp(t *testing.T) {
	r := NewRecorder(10)
	// Nothing happened for many intervals; one heartbeat at cycle 95 must
	// advance nextBeat past 95, not fire once per missed interval.
	r.Heartbeat(Snapshot{Cycle: 95})
	if r.HeartbeatDue(99) {
		t.Error("due again immediately after catch-up")
	}
	if !r.HeartbeatDue(100) {
		t.Error("not due at next boundary")
	}
}

// TestHorizonBoundsJumps: Horizon lets a jump run to the next heartbeat,
// allows none when a heartbeat is due, and sets no bound without a
// recorder.
func TestHorizonBoundsJumps(t *testing.T) {
	r := NewRecorder(100)
	if got := r.Horizon(2); got != 100 {
		t.Errorf("Horizon(2) = %d, want the heartbeat at 100", got)
	}
	if got := r.Horizon(100); got != 101 {
		t.Errorf("Horizon(100) with a heartbeat due = %d, want 101", got)
	}
	var nilRec *Recorder
	if got := nilRec.Horizon(7); got != math.MaxUint64 {
		t.Errorf("nil Horizon = %d, want no bound", got)
	}
}

func TestRecorderEmitAndCommit(t *testing.T) {
	mem := &MemorySink{}
	r := NewRecorder(0, mem)
	r.Emit(Event{Kind: KindFetch, Cycle: 1, Seq: 7})
	u := &sched.UOp{D: &isa.DynInst{Op: isa.OpLoad}, Cls: sched.ClassLd,
		DecodeCycle: 2, IssueCycle: 10, Port: 3}
	r.ObserveCommit(u, 12)

	if len(mem.Events) != 2 {
		t.Fatalf("sink saw %d events", len(mem.Events))
	}
	c := mem.Events[1]
	if c.Kind != KindCommit || c.Seq != u.Seq() || c.Port != 3 || c.Cls != sched.ClassLd {
		t.Errorf("commit event = %+v", c)
	}
	h := r.Registry().Histogram("issue_delay.Ld")
	if h.N != 1 || h.Sum != 8 {
		t.Errorf("delay histogram N=%d Sum=%d, want 1/8", h.N, h.Sum)
	}
}

func TestFinalizeSched(t *testing.T) {
	r := NewRecorder(0)
	r.FinalizeSched(map[string]uint64{"issued": 42})
	if got := r.Registry().Counter("sched.issued").Value(); got != 42 {
		t.Errorf("sched.issued = %d", got)
	}
}

func TestKindStrings(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == "" || k.String() == "unknown" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if Kind(250).String() != "unknown" {
		t.Error("out-of-range kind not unknown")
	}
}

func TestFromProbeCoversAllProbeKinds(t *testing.T) {
	want := map[sched.ProbeKind]Kind{
		sched.ProbeSteerMDAHit:   KindSteerMDAHit,
		sched.ProbeSteerMDAMiss:  KindSteerMDAMiss,
		sched.ProbeSteerDep:      KindSteerDep,
		sched.ProbeSteerNewChain: KindSteerNew,
		sched.ProbePIQSplit:      KindPIQSplit,
		sched.ProbePIQShare:      KindPIQShare,
		sched.ProbePIQMerge:      KindPIQMerge,
		sched.ProbeSIQPromote:    KindSIQPromote,
	}
	for pk, k := range want {
		if got := FromProbe(pk); got != k {
			t.Errorf("FromProbe(%d) = %v, want %v", pk, got, k)
		}
	}
}

// --- sinks ---

// nopCloser adapts a bytes.Buffer to io.WriteCloser.
type nopCloser struct{ *bytes.Buffer }

func (nopCloser) Close() error { return nil }

func TestChromeSinkRendersSpans(t *testing.T) {
	var buf bytes.Buffer
	c := NewChromeSinkWriter(nopCloser{&buf})

	in := &isa.DynInst{Seq: 5, Op: isa.OpIntALU, Dst: 1}
	c.Event(&Event{Kind: KindDecode, Cycle: 1, Seq: 5, Inst: in})
	c.Event(&Event{Kind: KindDispatch, Cycle: 3, Seq: 5, Port: 2})
	c.Event(&Event{Kind: KindIssue, Cycle: 6, Seq: 5, Arg: 5})
	c.Event(&Event{Kind: KindExec, Cycle: 6, Seq: 5, Arg: 8})
	c.Event(&Event{Kind: KindCommit, Cycle: 9, Seq: 5, Op: isa.OpIntALU})
	c.Event(&Event{Kind: KindFlush, Cycle: 10, Seq: 6})
	c.Interval(Interval{EndCycle: 100, SchedOccupancy: 3, Committed: 1})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	var f struct {
		TraceEvents []TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("not trace_event JSON: %v", err)
	}
	var slice, instant, counter int
	for _, e := range f.TraceEvents {
		switch e.Ph {
		case "X":
			slice++
			if e.Name != in.String() || e.TS != 3 || e.Dur != 5 || e.TID != 2 {
				t.Errorf("slice = %+v", e)
			}
		case "i":
			instant++
		case "C":
			counter++
		}
	}
	if slice != 1 || instant != 1 || counter != 2 {
		t.Errorf("slices=%d instants=%d counters=%d", slice, instant, counter)
	}
}

func TestChromeSinkDropsSquashedAndPartial(t *testing.T) {
	var buf bytes.Buffer
	c := NewChromeSinkWriter(nopCloser{&buf})
	// Squashed μop: no slice.
	c.Event(&Event{Kind: KindDecode, Cycle: 1, Seq: 5, Inst: &isa.DynInst{Seq: 5}})
	c.Event(&Event{Kind: KindSquash, Cycle: 2, Seq: 5})
	c.Event(&Event{Kind: KindCommit, Cycle: 3, Seq: 5})
	// Commit without a tracked decode (attached mid-run): no slice.
	c.Event(&Event{Kind: KindCommit, Cycle: 4, Seq: 6})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"ph":"X"`) {
		t.Errorf("unexpected slice in %s", buf.String())
	}
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSinkWriter(nopCloser{&buf})
	s.Event(&Event{Kind: KindIssue, Cycle: 4, Seq: 9, Op: isa.OpLoad, Cls: sched.ClassLd, Arg: 3})
	s.Interval(Interval{Index: 0, EndCycle: 10, Committed: 2})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d: %q", len(lines), buf.String())
	}
	var ev map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev["kind"] != "issue" || ev["op"] != "load" || ev["cls"] != "Ld" {
		t.Errorf("event line = %v", ev)
	}
	var iv map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &iv); err != nil {
		t.Fatal(err)
	}
	if iv["kind"] != "interval" {
		t.Errorf("interval line = %v", iv)
	}
}

func TestCSVSink(t *testing.T) {
	var buf bytes.Buffer
	s := NewCSVSinkWriter(nopCloser{&buf})
	s.Event(&Event{Kind: KindFetch}) // ignored
	s.Interval(Interval{Index: 0, StartCycle: 0, EndCycle: 100, Committed: 50})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	if got := strings.Split(lines[0], ","); len(got) != len(CSVHeader) {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "0,0,100,100,50,") {
		t.Errorf("row = %q", lines[1])
	}
	if !strings.Contains(lines[1], ",0.5000,") {
		t.Errorf("row missing IPC: %q", lines[1])
	}
}

// --- benchmarks: the zero-cost-when-off claim ---

// BenchmarkEmitNil measures the off state: one nil check per emit site.
func BenchmarkEmitNil(b *testing.B) {
	var r *Recorder
	e := Event{Kind: KindIssue, Cycle: 1, Seq: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Emit(e)
	}
}

// BenchmarkEmitMemory measures the on state with the cheapest sink.
func BenchmarkEmitMemory(b *testing.B) {
	r := NewRecorder(0, &MemorySink{})
	e := Event{Kind: KindIssue, Cycle: 1, Seq: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Emit(e)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram("h", []uint64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i) & 1023)
	}
}
