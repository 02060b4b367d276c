package ballerino_test

import (
	"context"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"time"

	ballerino "repro"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/span"
)

// benchOpts keeps the per-figure benchmarks affordable: a representative
// kernel subset and a reduced μop budget. cmd/experiments runs the full
// suite at full fidelity; these benches regenerate each figure's rows and
// report its headline number as a custom metric.
func benchOpts() exp.Options {
	return exp.Options{
		Ops:       20_000,
		Workloads: []string{"compute", "hash-join", "sparse-trees", "stream"},
	}
}

func benchFigure(b *testing.B, run func(exp.Options) (*exp.Table, error), metric func(*exp.Table) (string, float64)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t, err := run(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) == 0 {
			b.Fatal("empty figure")
		}
		if metric != nil {
			name, v := metric(t)
			b.ReportMetric(v, name)
		}
	}
}

// BenchmarkFig03SchedulingDelay regenerates Figure 3c (decode-to-issue
// delay breakdown for InO/CES/CASINO/OoO).
func BenchmarkFig03SchedulingDelay(b *testing.B) {
	benchFigure(b, exp.Fig3c, func(t *exp.Table) (string, float64) {
		v, _ := t.Get("OoO/All", "total")
		return "OoO-dec2issue-cyc", v
	})
}

// BenchmarkFig04CESSteering regenerates Figure 4 (CES steering outcomes).
func BenchmarkFig04CESSteering(b *testing.B) {
	benchFigure(b, exp.Fig4, nil)
}

// BenchmarkFig06aPIQStalls regenerates Figure 6a (P-IQ head cycle
// breakdown of the Step 2 design).
func BenchmarkFig06aPIQStalls(b *testing.B) {
	benchFigure(b, exp.Fig6a, nil)
}

// BenchmarkFig06bPIQSensitivity regenerates Figure 6b (IPC sensitivity to
// P-IQ count and size).
func BenchmarkFig06bPIQSensitivity(b *testing.B) {
	benchFigure(b, exp.Fig6b, func(t *exp.Table) (string, float64) {
		hi, _ := t.Get("11 P-IQs", "depth12")
		lo, _ := t.Get("3 P-IQs", "depth12")
		if lo == 0 {
			return "count-sensitivity", 0
		}
		return "count-sensitivity", hi / lo
	})
}

// BenchmarkFig11Speedup regenerates Figure 11 (speedup over InO for every
// microarchitecture).
func BenchmarkFig11Speedup(b *testing.B) {
	benchFigure(b, exp.Fig11, func(t *exp.Table) (string, float64) {
		v, _ := t.Get("Ballerino", "GEOMEAN")
		return "ballerino-speedup", v
	})
}

// BenchmarkFig12SchedulingPerf regenerates Figure 12 (Ballerino's
// scheduling-delay breakdown versus CES/CASINO/OoO).
func BenchmarkFig12SchedulingPerf(b *testing.B) {
	benchFigure(b, exp.Fig12, nil)
}

// BenchmarkFig13Steps regenerates Figure 13 (step-by-step gains).
func BenchmarkFig13Steps(b *testing.B) {
	benchFigure(b, exp.Fig13, func(t *exp.Table) (string, float64) {
		v, _ := t.Get("Ballerino", "speedup")
		return "step3-speedup", v
	})
}

// BenchmarkFig14IssueBreakdown regenerates Figure 14 (S-IQ vs P-IQ issue
// fractions).
func BenchmarkFig14IssueBreakdown(b *testing.B) {
	benchFigure(b, exp.Fig14, func(t *exp.Table) (string, float64) {
		v, _ := t.Get("Ballerino-step1", "S-IQ")
		return "siq-fraction", v
	})
}

// BenchmarkFig15Energy regenerates Figure 15 (energy by component,
// normalised to OoO).
func BenchmarkFig15Energy(b *testing.B) {
	benchFigure(b, exp.Fig15, func(t *exp.Table) (string, float64) {
		v, _ := t.Get("Ballerino", "TOTAL")
		return "ballerino-energy-vs-ooo", v
	})
}

// BenchmarkFig16EnergyEfficiency regenerates Figure 16 (1/EDP normalised
// to OoO).
func BenchmarkFig16EnergyEfficiency(b *testing.B) {
	benchFigure(b, exp.Fig16, func(t *exp.Table) (string, float64) {
		v, _ := t.Get("Ballerino", "efficiency")
		return "ballerino-eff-vs-ooo", v
	})
}

// BenchmarkFig17aIssueWidth regenerates Figure 17a (issue-width scaling).
func BenchmarkFig17aIssueWidth(b *testing.B) {
	benchFigure(b, exp.Fig17a, func(t *exp.Table) (string, float64) {
		v, _ := t.Get("Ballerino", "w8")
		return "ballerino-8wide-speedup", v
	})
}

// BenchmarkFig17bDVFS regenerates Figure 17b (frequency/voltage levels).
func BenchmarkFig17bDVFS(b *testing.B) {
	benchFigure(b, exp.Fig17b, func(t *exp.Table) (string, float64) {
		v, _ := t.Get("Ballerino@L4", "efficiency")
		return "ballerino-L4-eff-vs-cesL4", v
	})
}

// BenchmarkFig17cPIQCount regenerates Figure 17c (P-IQ count sweep).
func BenchmarkFig17cPIQCount(b *testing.B) {
	benchFigure(b, exp.Fig17c, func(t *exp.Table) (string, float64) {
		v, _ := t.Get("11 P-IQs", "speedup")
		return "11piq-speedup", v
	})
}

// BenchmarkMDPImpact regenerates the §III-B memory-dependence-prediction
// ablation (violations removed, speedup).
func BenchmarkMDPImpact(b *testing.B) {
	o := benchOpts()
	o.Workloads = []string{"store-load"}
	for i := 0; i < b.N; i++ {
		t, err := exp.MDPImpact(o)
		if err != nil {
			b.Fatal(err)
		}
		if v, ok := t.Get("store-load", "speedup"); ok {
			b.ReportMetric(v, "mdp-speedup")
		}
	}
}

// overheadOps is the measured budget of every overhead benchmark.
const overheadOps = 50_000

// benchOverhead times one variant of an overhead comparison on Ballerino
// running the mixed kernel. It generates the trace once, before
// b.ResetTimer, and injects it through Config.Trace, so the timed loop is
// simulation alone: sim runs b.N times on that config and the variant
// reports simulated μops/s, the metric the CI topdown gate reads.
func benchOverhead(b *testing.B, sim func(cfg ballerino.Config) error) {
	b.Helper()
	cfg := ballerino.Config{Arch: "Ballerino", Workload: "mixed", MaxOps: overheadOps}
	tr, err := ballerino.PrepareTrace(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Trace = tr
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sim(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(overheadOps*b.N)/b.Elapsed().Seconds(), "μops/s")
}

// runSim simulates cfg with Run.
func runSim(cfg ballerino.Config) error {
	_, err := ballerino.Run(cfg)
	return err
}

// BenchmarkObsOverhead measures the cost of the observability layer on
// the simulation: "off" runs with no recorder (one untaken nil check per
// emit site), "recorder" attaches a recorder with no sinks (the served
// configuration: no events, only heartbeats and the commit delay
// histograms, and quiet cycles skipped like "off"), and "sinks" streams
// every event to Chrome-trace, JSONL and CSV files in a temporary
// directory, stepping every cycle. It compares them; nothing gates the
// ratios.
// TestSteadyStateAllocs and TestRecorderSteadyStateAllocs
// (internal/pipeline) hold the cycle loop at zero allocations without a
// recorder and with a sink-less one.
func BenchmarkObsOverhead(b *testing.B) {
	b.Run("off", func(b *testing.B) { benchOverhead(b, runSim) })
	b.Run("recorder", func(b *testing.B) {
		benchOverhead(b, func(cfg ballerino.Config) error {
			cfg.Recorder = obs.NewRecorder(0)
			return runSim(cfg)
		})
	})
	b.Run("sinks", func(b *testing.B) {
		dir := b.TempDir()
		benchOverhead(b, func(cfg ballerino.Config) error {
			cfg.TracePath = filepath.Join(dir, "bench.trace.json")
			cfg.EventsPath = filepath.Join(dir, "bench.events.jsonl")
			cfg.MetricsPath = filepath.Join(dir, "bench.metrics.csv")
			return runSim(cfg)
		})
	})
}

// BenchmarkTopdownOverhead measures the cost of CPI-stack cycle accounting
// on the simulation: "off" runs with no engine (the issue path keeps its
// original closures), "on" attaches it (per-cycle scalar bookkeeping plus
// blame classification on blocked μops). BenchmarkTopdownPairs is the
// gate's measurement.
func BenchmarkTopdownOverhead(b *testing.B) {
	b.Run("off", func(b *testing.B) { benchOverhead(b, runSim) })
	b.Run("on", func(b *testing.B) {
		benchOverhead(b, func(cfg ballerino.Config) error {
			cfg.Topdown = true
			return runSim(cfg)
		})
	})
}

// topdownPairs is how many interleaved off/on pairs BenchmarkTopdownPairs
// times per iteration.
const topdownPairs = 15

// BenchmarkTopdownPairs times topdownPairs interleaved pairs of runs of
// one pre-generated Ballerino/mixed trace, top-down accounting off and
// on, alternating which of the two goes first, and reports the on/off
// wall-time ratio's median and quartiles and the pairs "on" won. On a
// host whose single runs swing by ±20%, a median over interleaved pairs
// resolves a few percent where best-of-N cannot; the CI topdown gate
// holds the median to 1.03.
func BenchmarkTopdownPairs(b *testing.B) {
	cfg := ballerino.Config{Arch: "Ballerino", Workload: "mixed", MaxOps: overheadOps}
	tr, err := ballerino.PrepareTrace(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Trace = tr
	timed := func(topdown bool) float64 {
		c := cfg
		c.Topdown = topdown
		runtime.GC() // neither side pays for the other's garbage
		start := time.Now()
		if err := runSim(c); err != nil {
			b.Fatal(err)
		}
		return time.Since(start).Seconds()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ratios := make([]float64, topdownPairs)
		wins := 0
		for k := range ratios {
			var off, on float64
			if k%2 == 0 {
				off = timed(false)
				on = timed(true)
			} else {
				on = timed(true)
				off = timed(false)
			}
			ratios[k] = on / off
			if on < off {
				wins++
			}
		}
		slices.Sort(ratios)
		b.ReportMetric(ratios[len(ratios)/2], "on/off-median")
		b.ReportMetric(ratios[len(ratios)/4], "on/off-q1")
		b.ReportMetric(ratios[3*len(ratios)/4], "on/off-q3")
		b.ReportMetric(float64(wins), "on-wins")
	}
}

// BenchmarkSpanOverhead measures the cost of lifecycle tracing on the
// simulation: "off" runs with no span in the
// context (the nil-tracer state — every instrumentation site is one
// failed context lookup or untaken nil check), "traced" runs under a live
// root span, so the run records its sim.run span. It compares the two;
// nothing gates the ratio. "nil-api" reports the span API's allocations
// in the off state, which TestNilTracerZeroAlloc (internal/span) pins at
// zero.
func BenchmarkSpanOverhead(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		b.ReportAllocs()
		benchOverhead(b, runSim)
	})
	b.Run("traced", func(b *testing.B) {
		tracer := span.NewTracer(-1)
		var job int
		benchOverhead(b, func(cfg ballerino.Config) error {
			job++
			root := tracer.Start(span.DeriveID(strconv.Itoa(job)), "job")
			defer root.End()
			_, err := ballerino.RunContext(span.ContextWith(context.Background(), root), cfg)
			return err
		})
	})
	b.Run("nil-api", func(b *testing.B) {
		ctx := context.Background()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sp := span.FromContext(ctx) // nil: tracing off
			child := sp.Child("attempt")
			child.SetAttr("k", "v")
			child.Fail(nil)
			child.End()
			_ = span.ContextWith(ctx, child)
		}
	})
}

// BenchmarkAblations regenerates the design-choice ablation study.
func BenchmarkAblations(b *testing.B) {
	o := exp.Options{Ops: 15_000, Workloads: []string{"compute", "sparse-trees"}}
	for i := 0; i < b.N; i++ {
		t, err := exp.Ablations(o)
		if err != nil {
			b.Fatal(err)
		}
		if v, ok := t.Get("no-sharing", "rel_ipc"); ok {
			b.ReportMetric(v, "no-sharing-rel-ipc")
		}
	}
}
