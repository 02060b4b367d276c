package ballerino_test

import (
	"bufio"
	"context"
	"encoding/csv"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	ballerino "repro"
	"repro/internal/obs"
)

// runTraced runs one simulation with every observability sink attached and
// returns the result plus the sink paths.
func runTraced(t *testing.T, cfg ballerino.Config) (*ballerino.Result, string, string, string, string) {
	t.Helper()
	dir := t.TempDir()
	cfg.TracePath = filepath.Join(dir, "run.trace.json")
	cfg.EventsPath = filepath.Join(dir, "run.events.jsonl")
	cfg.MetricsPath = filepath.Join(dir, "run.metrics.csv")
	cfg.ManifestPath = filepath.Join(dir, "run.manifest.json")
	res, err := ballerino.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, cfg.TracePath, cfg.EventsPath, cfg.MetricsPath, cfg.ManifestPath
}

// TestChromeTraceWellFormed validates the emitted Chrome trace: it parses
// as trace_event JSON and every track's timestamps are monotonic.
func TestChromeTraceWellFormed(t *testing.T) {
	res, tracePath, _, _, _ := runTraced(t, ballerino.Config{
		Arch: "Ballerino", Workload: "store-load", MaxOps: 15_000, WarmupOps: 2_000,
		ObsInterval: 5_000,
	})

	b, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents     []obs.TraceEvent `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatalf("trace is not trace_event JSON: %v", err)
	}
	if len(f.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}

	type track struct{ pid, tid int }
	last := map[track]uint64{}
	var slices int
	for _, e := range f.TraceEvents {
		switch e.Ph {
		case "X", "i", "C":
		default:
			t.Fatalf("unexpected phase %q in %+v", e.Ph, e)
		}
		k := track{e.PID, e.TID}
		if e.TS < last[k] {
			t.Fatalf("track %v timestamps not monotonic: %d after %d", k, e.TS, last[k])
		}
		last[k] = e.TS
		if e.Ph == "X" {
			slices++
			if e.Dur == 0 {
				t.Errorf("zero-duration slice %+v", e)
			}
		}
	}
	if slices == 0 {
		t.Fatal("no μop slices in trace")
	}
	if uint64(slices) > res.Committed {
		t.Errorf("more slices (%d) than committed μops (%d)", slices, res.Committed)
	}
}

// TestIntervalMetricsSumToFinalStats validates the heartbeat machinery: the
// per-interval CSV deltas sum exactly to the final counters of the run
// manifest, and the cycle ranges tile the measured region.
func TestIntervalMetricsSumToFinalStats(t *testing.T) {
	res, _, _, csvPath, _ := runTraced(t, ballerino.Config{
		Arch: "Ballerino", Workload: "hash-join", MaxOps: 15_000, WarmupOps: 2_000,
		ObsInterval: 3_000,
	})

	f, err := os.Open(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 3 {
		t.Fatalf("only %d CSV rows", len(rows))
	}
	col := map[string]int{}
	for i, name := range rows[0] {
		col[name] = i
	}
	sum := func(name string) uint64 {
		var total uint64
		for _, row := range rows[1:] {
			v, err := strconv.ParseUint(row[col[name]], 10, 64)
			if err != nil {
				t.Fatalf("column %s: %v", name, err)
			}
			total += v
		}
		return total
	}

	st := res.Manifest.Stats
	for name, want := range map[string]uint64{
		"committed":       st.Committed,
		"fetched":         st.Fetched,
		"issued":          st.Issued,
		"flushes":         st.Flushes,
		"squashed":        st.Squashed,
		"dispatch_stalls": st.DispatchStalls,
		"violations":      st.Violations,
		"mispredicts":     st.Mispredicts,
		"cycles":          st.Cycles,
	} {
		if got := sum(name); got != want {
			t.Errorf("sum(%s) = %d, want final %d", name, got, want)
		}
	}
	// Intervals must tile the measured region: each row starts where the
	// previous ended. The first row starts at the warm-up boundary.
	prevEnd, _ := strconv.ParseUint(rows[1][col["start_cycle"]], 10, 64)
	for i, row := range rows[1:] {
		start, _ := strconv.ParseUint(row[col["start_cycle"]], 10, 64)
		end, _ := strconv.ParseUint(row[col["end_cycle"]], 10, 64)
		if start != prevEnd {
			t.Errorf("row %d starts at %d, previous ended at %d", i, start, prevEnd)
		}
		if end <= start {
			t.Errorf("row %d empty range [%d, %d]", i, start, end)
		}
		prevEnd = end
	}
	if res.Manifest.Intervals != len(rows)-1 {
		t.Errorf("manifest intervals = %d, CSV rows = %d", res.Manifest.Intervals, len(rows)-1)
	}
}

// TestJSONLEventsConsistent validates the JSONL sink: every line parses,
// and the commit-event count equals the committed-μop counter.
func TestJSONLEventsConsistent(t *testing.T) {
	res, _, eventsPath, _, _ := runTraced(t, ballerino.Config{
		Arch: "OoO", Workload: "stream", MaxOps: 10_000,
	})

	f, err := os.Open(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	counts := map[string]uint64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		counts[line.Kind]++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if counts["commit"] != res.Committed {
		t.Errorf("commit events = %d, committed = %d", counts["commit"], res.Committed)
	}
	if counts["issue"] != res.Manifest.Stats.Issued {
		t.Errorf("issue events = %d, issued = %d", counts["issue"], res.Manifest.Stats.Issued)
	}
	for _, kind := range []string{"fetch", "decode", "dispatch", "interval"} {
		if counts[kind] == 0 {
			t.Errorf("no %q events", kind)
		}
	}
}

// TestManifestWritten validates the run manifest: written to the requested
// path, schema-tagged, and carrying the metrics registry dump.
func TestManifestWritten(t *testing.T) {
	res, _, _, _, manifestPath := runTraced(t, ballerino.Config{
		Arch: "Ballerino", Workload: "stream", MaxOps: 10_000,
	})

	b, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	var m obs.Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatalf("manifest is not JSON: %v", err)
	}
	if m.Schema != obs.ManifestSchema {
		t.Errorf("schema = %q, want %q", m.Schema, obs.ManifestSchema)
	}
	if m.Stats.Committed != res.Committed || m.Stats.Cycles != res.Cycles {
		t.Errorf("manifest stats %+v != result (%d committed, %d cycles)",
			m.Stats, res.Committed, res.Cycles)
	}
	if m.Sim.Arch != "Ballerino" || m.Sim.Workload != "stream" {
		t.Errorf("manifest sim = %+v", m.Sim)
	}
	if m.Metrics == nil || len(m.Metrics.Histograms) == 0 {
		t.Error("manifest missing metrics dump")
	}
	var delayN uint64
	for _, h := range m.Metrics.Histograms {
		switch h.Name {
		case "issue_delay.Ld", "issue_delay.LdC", "issue_delay.Rst":
			delayN += h.N
		}
	}
	if delayN != m.Stats.Committed {
		t.Errorf("delay histogram samples = %d, committed = %d", delayN, m.Stats.Committed)
	}
	// Scheduler counters folded into the registry.
	found := false
	for name := range m.Metrics.Counters {
		if len(name) > 6 && name[:6] == "sched." {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no sched.* counters in metrics dump: %v", m.Metrics.Counters)
	}
	// Sinks: chrome-trace, events-jsonl, metrics-csv + the manifest itself.
	if len(m.Sinks) != 4 {
		t.Errorf("manifest sinks = %+v", m.Sinks)
	}
}

// TestManifestAlwaysPopulated: Result.Manifest is present even with no
// observability path configured (no files written, no recorder attached).
func TestManifestAlwaysPopulated(t *testing.T) {
	res, err := ballerino.Run(ballerino.Config{Arch: "InO", Workload: "stream", MaxOps: 5_000})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Manifest
	if m == nil {
		t.Fatal("nil manifest without sinks")
	}
	if m.Schema != obs.ManifestSchema || m.Stats.Committed != res.Committed {
		t.Errorf("manifest = %+v", m)
	}
	if m.Metrics != nil {
		t.Error("metrics dump present without a recorder")
	}
	if len(m.Sinks) != 0 {
		t.Errorf("sinks = %+v, want none", m.Sinks)
	}
	if m.WallSeconds <= 0 {
		t.Errorf("wall seconds = %v", m.WallSeconds)
	}
}

// TestManifestDefaultPath: with a trace sink but no explicit manifest path,
// the manifest lands alongside the first sink.
func TestManifestDefaultPath(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "run.trace.json")
	if _, err := ballerino.Run(ballerino.Config{
		Arch: "Ballerino", Workload: "stream", MaxOps: 5_000, TracePath: tracePath,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tracePath + ".manifest.json"); err != nil {
		t.Errorf("default manifest path: %v", err)
	}
}

// TestManifestEngineCounters: the manifest says how the cycle loop covered
// the measured region. A plain pointer-chase run, one whose recorder has
// no sinks, and an audited one jump over the DRAM waits; a recorder with
// sinks and a fault plan each make the loop step every cycle and are
// named as the reason. Either way stepped and skipped cycles add up to
// the measured cycles, and the canonical manifest drops the block. An
// audited run without warm-up audits once per stepped cycle, and consults
// readiness at least once per committed μop: every grant follows a
// consult. On store-load, whose loads wait on their predicted stores, the
// out-of-order and clustered designs consult at most 1.1 times per
// committed μop: a μop held by its store is not consulted before the
// store's grant, so a lost wakeup that falls back to polling shows in a
// count that cannot flake. Top-down accounting blames the μops select
// skips without consulting them, so attaching it leaves the consult count
// of a mixed run alone.
func TestManifestEngineCounters(t *testing.T) {
	dir := t.TempDir()
	base := ballerino.Config{Arch: "OoO", Workload: "pointer-chase", MaxOps: 800, WarmupOps: 200}
	tr, err := ballerino.PrepareTrace(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	base.Trace = tr
	cases := []struct {
		name   string
		adjust func(*ballerino.Config)
		reason string
	}{
		{"plain", func(*ballerino.Config) {}, ""},
		{"sink-less recorder", func(c *ballerino.Config) { c.ManifestPath = filepath.Join(dir, "m.json") }, ""},
		{"trace sink", func(c *ballerino.Config) { c.TracePath = filepath.Join(dir, "t.json") }, "sinks"},
		{"audit", func(c *ballerino.Config) { c.Audit = true }, ""},
		{"audit, no warm-up", func(c *ballerino.Config) { c.Audit, c.MaxOps, c.WarmupOps = true, 1_000, 0 }, ""},
		{"fault plan", func(c *ballerino.Config) { c.FaultSpec = "seed=5,jitter=8" }, "faults"},
	}
	for _, tc := range cases {
		cfg := base
		tc.adjust(&cfg)
		res, err := ballerino.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		e := res.Manifest.Engine
		if e == nil {
			t.Fatalf("%s: manifest has no engine block", tc.name)
		}
		if e.SteppedFor != tc.reason {
			t.Errorf("%s: stepped for %q, want %q", tc.name, e.SteppedFor, tc.reason)
		}
		if skips := e.Jumps > 0 && e.SkippedCycles > 0; skips != (tc.reason == "") {
			t.Errorf("%s: %d jumps over %d cycles, want jumps only when nothing makes the loop step", tc.name, e.Jumps, e.SkippedCycles)
		}
		if e.SteppedCycles+e.SkippedCycles != res.Cycles {
			t.Errorf("%s: %d stepped + %d skipped cycles != %d measured", tc.name, e.SteppedCycles, e.SkippedCycles, res.Cycles)
		}
		if res.Manifest.Canonical().Engine != nil {
			t.Errorf("%s: canonical manifest keeps the engine block", tc.name)
		}
		// Without warm-up every audit closes one stepped cycle: a jump
		// is audited once, at the cycle it starts from.
		if cfg.Audit && cfg.WarmupOps == 0 && res.AuditChecks != e.SteppedCycles {
			t.Errorf("%s: %d audits, want one per stepped cycle (%d)", tc.name, res.AuditChecks, e.SteppedCycles)
		}
		if cfg.WarmupOps == 0 && e.Consults < res.Committed {
			t.Errorf("%s: %d readiness consults for %d committed μops, want at least one each", tc.name, e.Consults, res.Committed)
		}
	}

	sl := ballerino.Config{Workload: "store-load", MaxOps: 30_000, Width: 8}
	if sl.Trace, err = ballerino.PrepareTrace(context.Background(), sl); err != nil {
		t.Fatal(err)
	}
	for _, arch := range []string{"OoO", "FXA", "CES", "CASINO"} {
		cfg := sl
		cfg.Arch = arch
		res, err := ballerino.Run(cfg)
		if err != nil {
			t.Fatalf("%s/store-load: %v", arch, err)
		}
		if c := res.Manifest.Engine.Consults; 10*c > 11*res.Committed {
			t.Errorf("%s/store-load: %d readiness consults for %d committed μops (%.2f each), want at most 1.1 each",
				arch, c, res.Committed, float64(c)/float64(res.Committed))
		}
	}

	// Select consults only μops whose port is free and whose SrcReady has
	// come, so on a compute kernel, where only the divider refuses a
	// consult, the in-order heads and Ballerino's S-IQ window consult
	// about once per μop.
	compute := ballerino.Config{Workload: "compute", MaxOps: 30_000, Width: 8}
	if compute.Trace, err = ballerino.PrepareTrace(context.Background(), compute); err != nil {
		t.Fatal(err)
	}
	for _, arch := range []string{"InO", "Ballerino"} {
		cfg := compute
		cfg.Arch = arch
		res, err := ballerino.Run(cfg)
		if err != nil {
			t.Fatalf("%s/compute: %v", arch, err)
		}
		if c := res.Manifest.Engine.Consults; 50*c > 51*res.Committed {
			t.Errorf("%s/compute: %d readiness consults for %d committed μops (%.3f each), want at most 1.02 each",
				arch, c, res.Committed, float64(c)/float64(res.Committed))
		}
	}

	mixed := ballerino.Config{Workload: "mixed", MaxOps: 30_000, Width: 8}
	if mixed.Trace, err = ballerino.PrepareTrace(context.Background(), mixed); err != nil {
		t.Fatal(err)
	}
	for _, arch := range []string{"OoO", "CASINO", "Ballerino"} {
		var consults [2]uint64
		for i, td := range []bool{false, true} {
			cfg := mixed
			cfg.Arch, cfg.Topdown = arch, td
			res, err := ballerino.Run(cfg)
			if err != nil {
				t.Fatalf("%s/mixed: %v", arch, err)
			}
			consults[i] = res.Manifest.Engine.Consults
		}
		if consults[0] != consults[1] {
			t.Errorf("%s/mixed: %d readiness consults with top-down off, %d with it on, want equal", arch, consults[0], consults[1])
		}
	}
}
