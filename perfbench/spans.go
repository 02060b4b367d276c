package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/span"
)

// spanRec is one recorded span, placed in its tree and its phase of the
// run: "setup" before the traced window, "window" during it and "probe"
// after it.
type spanRec struct {
	span.View
	tree   *span.Tree
	phase  string
	server bool // recorded by the program's telemetry server
}

// attrInt is an integer annotation (0 when absent).
func (s spanRec) attrInt(key string) int64 {
	n, _ := strconv.ParseInt(s.Attr(key), 10, 64)
	return n
}

// spanSet is every span of a traced run.
type spanSet struct {
	all   []spanRec
	trees map[string]*span.Tree // the benchmark's trees by trace ID
	jobs  map[int]*span.Tree    // the servers' job trees by job ID
	t0    time.Time             // earliest span start
}

// collectSpans gathers the benchmark's own spans and the span trees the
// program recorded, and places each tree in the phase it started in.
func collectSpans(b *bench, w windowResult, p probeResult) *spanSet {
	s := &spanSet{trees: map[string]*span.Tree{}, jobs: map[int]*span.Tree{}}
	add := func(tr *span.Tree, server bool) {
		if tr == nil || len(tr.Spans) == 0 {
			return
		}
		phase := "window"
		switch start := treeStart(tr); {
		case start.Before(w.start):
			phase = "setup"
		case start.After(w.end):
			phase = "probe"
		}
		if s.t0.IsZero() || treeStart(tr).Before(s.t0) {
			s.t0 = treeStart(tr)
		}
		for _, v := range tr.Spans {
			s.all = append(s.all, spanRec{View: v, tree: tr, phase: phase, server: server})
		}
	}
	for _, id := range b.traceIDs {
		tr := b.tracer.Tree(id)
		s.trees[id] = tr
		add(tr, false)
	}
	for _, tr := range append(w.trees, p.trees...) {
		add(tr, true)
		if root, ok := tr.Find("job"); ok {
			s.jobs[int(spanRec{View: root}.attrInt("job"))] = tr
		}
	}
	return s
}

func treeStart(tr *span.Tree) time.Time {
	t := tr.Spans[0].Start
	for _, v := range tr.Spans {
		if v.Start.Before(t) {
			t = v.Start
		}
	}
	return t
}

// pick returns the spans called name from the first phase that has any, in
// the order window, setup, probe: a layer is measured where the workload
// loads it, and by the probe only where it does not.
func (s *spanSet) pick(name string) []spanRec {
	for _, phase := range []string{"window", "setup", "probe"} {
		if r := s.named(name, phase); len(r) > 0 {
			return r
		}
	}
	return nil
}

// named returns the spans called name in the given phases.
func (s *spanSet) named(name string, phases ...string) []spanRec {
	var r []spanRec
	for _, x := range s.all {
		if x.Name == name {
			for _, ph := range phases {
				if x.phase == ph {
					r = append(r, x)
				}
			}
		}
	}
	return r
}

func secs(rs []spanRec) []float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = r.Duration().Seconds()
	}
	return xs
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// coverage is how much of [from, to] the given spans cover together.
func coverage(vs []span.View, from, to time.Time) time.Duration {
	type iv struct{ s, e time.Time }
	var ivs []iv
	for _, v := range vs {
		if v.Open {
			continue
		}
		s, e := v.Start, v.End
		if s.Before(from) {
			s = from
		}
		if e.After(to) {
			e = to
		}
		if e.After(s) {
			ivs = append(ivs, iv{s, e})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].s.Before(ivs[j].s) })
	var total time.Duration
	var cur iv
	for i, x := range ivs {
		switch {
		case i == 0:
			cur = x
		case x.s.After(cur.e):
			total += cur.e.Sub(cur.s)
			cur = x
		case x.e.After(cur.e):
			cur.e = x.e
		}
	}
	if len(ivs) > 0 {
		total += cur.e.Sub(cur.s)
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(r spanRec) time.Duration {
	if r.Open {
		return 0
	}
	return r.Duration() - coverage(r.tree.Children(r.ID), r.Start, r.End)
}

// descendants returns every span below id in tr.
func descendants(tr *span.Tree, id span.ID) []span.View {
	var out []span.View
	for _, c := range tr.Children(id) {
		out = append(out, c)
		out = append(out, descendants(tr, c.ID)...)
	}
	return out
}

// simRun is the time an operation's trees spent in the cycle loop.
func (s *spanSet) simRun(o outcome) time.Duration {
	var d time.Duration
	for _, tr := range []*span.Tree{s.trees[o.traceID], s.jobs[o.jobID]} {
		if tr == nil {
			continue
		}
		for _, v := range tr.Spans {
			if v.Name == "sim.run" {
				d += v.Duration()
			}
		}
	}
	return d
}

// layerOf names the layer whose code a span's self time is spent in. A
// call that builds a kernel spends nearly all its self time in
// workload.ByName, which runs inside it before trace generation starts.
func layerOf(r spanRec) string {
	switch r.Name {
	case "workload.ByName":
		return "workload"
	case "trace.generate":
		return "prog"
	case "ballerino.ImportTrace", "ballerino.ExportTrace":
		return "tracefile"
	case "sim.run", "sim.warmup":
		return "pipeline"
	case "wal.append":
		return "jobstore"
	case "cache.lookup":
		if r.Attr("outcome") == "miss" {
			return "workload"
		}
		return "campaign"
	case "ballerino.RunContext", "ballerino.PrepareTrace":
		for _, c := range r.tree.Children(r.ID) {
			if c.Name == "trace.generate" {
				return "workload"
			}
		}
		return "ballerino"
	case "ballerino.RunAll", "ballerino.TraceCache.Prepare":
		return "campaign"
	}
	if r.server {
		return "telemetry"
	}
	return "perfbench client"
}

// reportSelfTimes prints the window's self time per layer. A served
// client's wait for its job is left out: the server's own spans cover it.
func reportSelfTimes(b *bench, s *spanSet, window time.Duration) {
	per := map[string]time.Duration{}
	for _, r := range s.all {
		if r.phase == "window" && r.Name != "await" {
			per[layerOf(r)] += selfTime(r)
		}
	}
	var layers []string
	for l := range per {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return per[layers[i]] > per[layers[j]] })
	b.reportf("self time per layer in the traced window of %.3fs:", window.Seconds())
	for _, l := range layers {
		b.reportf("  %-18s %9.3fs %6.1f%%", l, per[l].Seconds(), 100*per[l].Seconds()/window.Seconds())
	}
}

// writeChrome writes every span as a Chrome trace_event file, one track per
// trace: the benchmark's traces in process 0, the servers' in process 1.
func writeChrome(path string, s *spanSet) error {
	tid := map[*span.Tree]int{}
	var events []obs.TraceEvent
	for _, r := range s.all {
		if r.Open {
			continue
		}
		if _, ok := tid[r.tree]; !ok {
			tid[r.tree] = len(tid)
		}
		args := map[string]any{"trace_id": r.tree.TraceID, "phase": r.phase}
		for _, a := range r.Attrs {
			args[a.Key] = a.Value
		}
		if r.Error != "" {
			args["error"] = r.Error
		}
		pid := 0
		if r.server {
			pid = 1
		}
		events = append(events, obs.TraceEvent{
			Name: r.Name, Cat: layerOf(r), Ph: "X",
			TS:  uint64(r.Start.Sub(s.t0).Microseconds()),
			Dur: max(1, uint64(r.Duration().Microseconds())),
			PID: pid, TID: tid[r.tree], Args: args,
		})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
