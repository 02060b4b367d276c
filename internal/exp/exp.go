// Package exp implements the per-figure experiment harnesses: for every
// table and figure in the paper's evaluation, a function runs the required
// simulations and renders the same rows/series the paper reports.
// cmd/experiments prints them; bench_test.go and the test suite drive them
// programmatically.
package exp

import (
	"context"
	"fmt"
	"strings"

	"repro"
)

// Options tunes experiment cost. Zero values select defaults.
type Options struct {
	// Ops is the dynamic μop budget per simulation (default 150000).
	Ops int
	// Workloads restricts the kernel set (default: all).
	Workloads []string
	// Parallelism bounds the simulations in flight per experiment
	// (0 = GOMAXPROCS, 1 = sequential).
	Parallelism int
}

// traces shares μop generation across every experiment in the process:
// each figure re-simulates the same kernels under a different timing
// model, so the functional traces are interpreted once, not per figure.
var traces = ballerino.NewTraceCache(0)

func (o Options) withDefaults() Options {
	if o.Ops == 0 {
		o.Ops = 150_000
	}
	if len(o.Workloads) == 0 {
		for _, k := range ballerino.Kernels() {
			if !k.Extra {
				o.Workloads = append(o.Workloads, k.Name)
			}
		}
	}
	return o
}

// runAll executes cfgs as one campaign on the shared trace cache — each
// simulation is independent and deterministic — and returns the results
// in submission order.
func (o Options) runAll(cfgs []ballerino.Config) ([]*ballerino.Result, error) {
	batch := ballerino.RunAll(context.Background(), cfgs, ballerino.BatchOptions{
		Parallelism: o.Parallelism,
		Cache:       traces,
	})
	if err := batch.FirstErr(); err != nil {
		return nil, err
	}
	out := make([]*ballerino.Result, len(cfgs))
	for i, rr := range batch.Results {
		out[i] = rr.Result
	}
	return out, nil
}

// suite runs tmpl on every workload at the experiment's μop budget and
// returns the results in o.Workloads order.
func (o Options) suite(tmpl ballerino.Config) ([]*ballerino.Result, error) {
	cfgs := make([]ballerino.Config, len(o.Workloads))
	for i, wl := range o.Workloads {
		cfgs[i] = tmpl
		cfgs[i].Workload = wl
		cfgs[i].MaxOps = o.Ops
	}
	return o.runAll(cfgs)
}

// geoSpeedup returns the geometric-mean ratio of res IPC over base IPC,
// pairing the two suites workload by workload.
func geoSpeedup(res, base []*ballerino.Result) float64 {
	var ratios []float64
	for i, r := range res {
		if b := base[i]; b.IPC > 0 {
			ratios = append(ratios, r.IPC/b.IPC)
		}
	}
	return ballerino.GeoMean(ratios)
}

// Row is one labelled series of values in an experiment result.
type Row struct {
	Label  string
	Values map[string]float64
}

// Table is a rendered experiment: an ordered set of rows with shared
// column names.
type Table struct {
	Title   string
	Columns []string
	Rows    []Row
	Notes   string
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "## %s\n", t.Title)
	width := 14
	for _, r := range t.Rows {
		if len(r.Label) > width {
			width = len(r.Label)
		}
	}
	fmt.Fprintf(&sb, "%-*s", width+2, "")
	for _, c := range t.Columns {
		fmt.Fprintf(&sb, "%12s", c)
	}
	sb.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%-*s", width+2, r.Label)
		for _, c := range t.Columns {
			if v, ok := r.Values[c]; ok {
				fmt.Fprintf(&sb, "%12.3f", v)
			} else {
				fmt.Fprintf(&sb, "%12s", "-")
			}
		}
		sb.WriteByte('\n')
	}
	if t.Notes != "" {
		fmt.Fprintf(&sb, "note: %s\n", t.Notes)
	}
	return sb.String()
}

// Get returns the value at (label, column).
func (t *Table) Get(label, column string) (float64, bool) {
	for _, r := range t.Rows {
		if r.Label == label {
			v, ok := r.Values[column]
			return v, ok
		}
	}
	return 0, false
}
