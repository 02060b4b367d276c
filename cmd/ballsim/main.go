// Command ballsim runs a single Ballerino-reproduction simulation (or a
// small comparison sweep) and prints the results.
//
// Usage:
//
//	ballsim -arch Ballerino -workload stream -ops 200000
//	ballsim -compare -ops 100000            # all architectures × kernels
//	ballsim -trace run.trace.json -metrics run.csv   # observability sinks
//	ballsim -trace-out stream.balltrace      # record the μop trace to a file
//	ballsim -trace-in stream.balltrace -arch OoO     # replay a recorded trace
//	ballsim -json                            # machine-readable manifest
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"text/tabwriter"

	"repro"
	"repro/internal/obs"
	topdownpkg "repro/internal/topdown"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		arch    = flag.String("arch", "Ballerino", "microarchitecture (see -list)")
		wl      = flag.String("workload", "stream", "workload kernel (see -list)")
		width   = flag.Int("width", 8, "issue width: 2, 4, 8 or 10")
		ops     = flag.Int("ops", 200_000, "dynamic μops to simulate")
		warmup  = flag.Int("warmup", 0, "warm-up μops before the measured region")
		foot    = flag.Int64("footprint", 0, "data footprint in bytes (0 = default 8 MiB)")
		piqs    = flag.Int("piqs", 0, "override P-IQ count (0 = Table II)")
		depth   = flag.Int("piq-depth", 0, "override P-IQ depth (0 = Table II)")
		noMDP   = flag.Bool("no-mdp", false, "disable memory dependence prediction")
		dvfs    = flag.String("dvfs", "L4", "operating point L1..L4")
		audit   = flag.Bool("audit", false, "verify simulation invariants at every stepped cycle (a jump over quiet cycles is checked once) and cross-check commits against the golden model")
		topdown = flag.Bool("topdown", false, "attribute every issue slot to a CPI-stack category and print the top-down breakdown")
		inject  = flag.String("inject", "", "inject deterministic timing faults, e.g. seed=1,jitter=8,flush=2000,squeeze=50,mdp=100")
		list    = flag.Bool("list", false, "list architectures and workloads")
		compare = flag.Bool("compare", false, "run every architecture on every kernel")
		par     = flag.Int("parallel", runtime.GOMAXPROCS(0), "simulations in flight for -compare (1 = sequential)")
		verbose = flag.Bool("v", false, "print scheduler counters and energy breakdown")

		traceIn  = flag.String("trace-in", "", "replay a recorded ballerino.trace/v1 file (overrides -workload/-footprint/-ops)")
		traceOut = flag.String("trace-out", "", "record the run's μop trace to a ballerino.trace/v1 file")

		trace    = flag.String("trace", "", "write a Chrome trace_event JSON file (chrome://tracing, Perfetto)")
		events   = flag.String("events", "", "write a JSONL pipeline event log")
		metrics  = flag.String("metrics", "", "write a CSV of per-interval counter deltas")
		interval = flag.Uint64("interval", 0, "heartbeat interval in cycles (0 = 10000)")
		manifest = flag.String("manifest", "", "write the run manifest JSON (default: alongside the first sink)")
		jsonOut  = flag.Bool("json", false, "print the run manifest as JSON instead of text")

		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	if *list {
		fmt.Println("architectures:")
		for _, a := range ballerino.Architectures() {
			fmt.Printf("  %s\n", a)
		}
		fmt.Println("workloads:")
		for _, k := range ballerino.Kernels() {
			if !k.Extra {
				fmt.Printf("  %s\n", k.Name)
			}
		}
		fmt.Println("extra workloads:")
		for _, k := range ballerino.Kernels() {
			if k.Extra {
				fmt.Printf("  %s\n", k.Name)
			}
		}
		return 0
	}

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pprof server: %v\n", err)
			}
		}()
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	// SIGINT/SIGTERM cancel the simulation cooperatively: the pipeline
	// stops within a few thousand cycles and Run flushes every attached
	// sink, so an interrupted traced run still leaves valid partial
	// artifacts. A second signal kills the process immediately.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	if *compare {
		return runCompare(ctx, *width, *ops, *foot, *par, *jsonOut, *topdown)
	}

	cfg := ballerino.Config{
		Arch:           *arch,
		Width:          *width,
		Workload:       *wl,
		FootprintBytes: *foot,
		MaxOps:         *ops,
		WarmupOps:      *warmup,
		NumPIQs:        *piqs,
		PIQDepth:       *depth,
		DisableMDP:     *noMDP,
		DVFS:           *dvfs,
		Audit:          *audit,
		Topdown:        *topdown,
		FaultSpec:      *inject,
		TracePath:      *trace,
		EventsPath:     *events,
		MetricsPath:    *metrics,
		ManifestPath:   *manifest,
		ObsInterval:    *interval,
	}

	// Record/replay: -trace-in replays a file through the same batch API a
	// generated trace uses (the file's workload identity wins over the
	// flags); -trace-out records the trace this run would simulate. With
	// both, the imported trace is re-exported verbatim.
	if *traceIn != "" {
		t, err := ballerino.ImportTrace(*traceIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		cfg = t.Configure(cfg)
	} else if *traceOut != "" {
		t, err := ballerino.PrepareTrace(ctx, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		cfg.Trace = t
	}
	if *traceOut != "" {
		if err := ballerino.ExportTrace(*traceOut, cfg.Trace); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("recorded %s: %s (%d μops)\n", *traceOut, cfg.Trace.Workload(), cfg.Trace.Ops())
	}

	res, err := ballerino.RunContext(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		var se *ballerino.SimError
		if errors.As(err, &se) && se.Autopsy != "" {
			fmt.Fprintln(os.Stderr, se.Autopsy)
		}
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "interrupted: partial sinks were flushed and are valid")
			return 130
		}
		return 1
	}
	if *jsonOut {
		b, err := res.Manifest.JSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Println(string(b))
		return 0
	}
	fmt.Printf("%s on %s (%d-wide, %d μops)\n", res.Arch, res.Workload, res.Width, res.Committed)
	fmt.Printf("  cycles      %d\n", res.Cycles)
	fmt.Printf("  IPC         %.3f\n", res.IPC)
	fmt.Printf("  mispredict  %.2f%%\n", 100*res.MispredictRate)
	fmt.Printf("  violations  %d (flushes %d)\n", res.Violations, res.Flushes)
	if res.AuditChecks > 0 {
		fmt.Printf("  audit       %d checks (one per stepped cycle), %d μops golden-verified, 0 violations\n",
			res.AuditChecks, res.GoldenOps)
	}
	if res.InjectedFaults != nil {
		fmt.Printf("  injected    %d flushes, %d squeezes, %d mdp waits, %d jittered ops (+%d cycles)\n",
			res.InjectedFaults["flushes"], res.InjectedFaults["squeezes"],
			res.InjectedFaults["mdp_waits"], res.InjectedFaults["jittered_ops"],
			res.InjectedFaults["jitter_cycles"])
	}
	fmt.Printf("  energy      %.2f µJ (EDP %.3g pJ·s)\n", res.EnergyPJ/1e6, res.EDP)
	for _, cls := range []string{"Ld", "LdC", "Rst", "All"} {
		d := res.Delay[cls]
		fmt.Printf("  delay %-4s  d2d=%.1f d2r=%.1f r2i=%.1f (n=%d)\n",
			cls, d.DecodeToDispatch, d.DispatchToReady, d.ReadyToIssue, d.Count)
	}
	if r := res.Topdown; r != nil {
		fmt.Printf("  top-down    CPI %.3f over %d slots (%d-wide × %d cycles)\n",
			r.CPI, r.TotalSlots, r.Width, r.Cycles)
		for c := topdownpkg.Category(0); c < topdownpkg.NumCategories; c++ {
			name := c.String()
			if r.Slots[name] == 0 {
				continue
			}
			fmt.Printf("    %-16s %6.2f%%  cpi %.4f\n",
				name, 100*r.Fractions[name], r.CPIStack[name])
		}
		if r.OverIssue > 0 {
			fmt.Printf("    %-16s %d slots beyond width (IXU)\n", "over-issue", r.OverIssue)
		}
	}
	if sinks := res.Manifest.Sinks; len(sinks) > 0 {
		for _, s := range sinks {
			fmt.Printf("  wrote       %s (%s)\n", s.Path, s.Kind)
		}
	}
	if *verbose {
		fmt.Println("  scheduler counters:")
		var keys []string
		for k := range res.SchedCounters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("    %-18s %d\n", k, res.SchedCounters[k])
		}
		fmt.Println("  energy by component (pJ):")
		var comps []string
		for k := range res.EnergyByComponent {
			comps = append(comps, k)
		}
		sort.Strings(comps)
		for _, k := range comps {
			fmt.Printf("    %-14s %.3g\n", k, res.EnergyByComponent[k])
		}
	}
	return 0
}

func runCompare(ctx context.Context, width, ops int, foot int64, par int, jsonOut, topdown bool) int {
	archs := ballerino.Architectures()
	var wls []string
	for _, k := range ballerino.Kernels() {
		if !k.Extra {
			wls = append(wls, k.Name)
		}
	}

	// One campaign over the whole grid: each kernel's trace is generated
	// once and shared by every architecture. Results arrive in grid order
	// (arch-major), so slot a*len(wls)+w is architecture a on kernel w.
	var cfgs []ballerino.Config
	for _, a := range archs {
		for _, w := range wls {
			cfgs = append(cfgs, ballerino.Config{
				Arch: a, Width: width, Workload: w,
				FootprintBytes: foot, MaxOps: ops, Topdown: topdown,
			})
		}
	}
	batch := ballerino.RunAll(ctx, cfgs, ballerino.BatchOptions{Parallelism: par})
	slot := func(a, w int) *ballerino.RunResult { return &batch.Results[a*len(wls)+w] }

	if jsonOut {
		var manifests []*obs.Manifest
		for i := range archs {
			for j := range wls {
				rr := slot(i, j)
				if rr.Err != nil {
					fmt.Fprintln(os.Stderr, rr.Err)
					if errors.Is(rr.Err, context.Canceled) {
						return 130
					}
					continue
				}
				manifests = append(manifests, rr.Result.Manifest)
			}
		}
		b, err := json.MarshalIndent(manifests, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Println(string(b))
		return 0
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "arch")
	for _, w := range wls {
		fmt.Fprintf(tw, "\t%s", w)
	}
	fmt.Fprintf(tw, "\tGEOMEAN\n")
	base := map[string]float64{}
	for i, a := range archs {
		fmt.Fprintf(tw, "%s", a)
		var ipcs []float64
		for j, w := range wls {
			rr := slot(i, j)
			if rr.Err != nil {
				fmt.Fprintf(tw, "\tERR")
				fmt.Fprintln(os.Stderr, rr.Err)
				if errors.Is(rr.Err, context.Canceled) {
					tw.Flush()
					return 130
				}
				continue
			}
			res := rr.Result
			if a == "InO" {
				base[w] = res.IPC
			}
			speedup := res.IPC
			if b := base[w]; b > 0 {
				speedup = res.IPC / b
			}
			ipcs = append(ipcs, speedup)
			fmt.Fprintf(tw, "\t%.2f", speedup)
		}
		fmt.Fprintf(tw, "\t%.2f\n", ballerino.GeoMean(ipcs))
		tw.Flush()
	}

	if topdown {
		// Per-architecture CPI stacks, averaged over the kernels: each
		// column is a category's share of the total slot budget.
		fmt.Println("\ntop-down slot shares (% of issue slots, all kernels):")
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "arch")
		for _, name := range topdownpkg.Names() {
			fmt.Fprintf(tw, "\t%s", name)
		}
		fmt.Fprintln(tw)
		for i, a := range archs {
			var slots [topdownpkg.NumCategories]uint64
			var total uint64
			for j := range wls {
				rr := slot(i, j)
				if rr.Err != nil || rr.Result.Topdown == nil {
					continue
				}
				for c, n := range rr.Result.Topdown.Counts {
					slots[c] += n
				}
				total += rr.Result.Topdown.TotalSlots
			}
			if total == 0 {
				continue
			}
			fmt.Fprintf(tw, "%s", a)
			for _, n := range slots {
				fmt.Fprintf(tw, "\t%.1f", 100*float64(n)/float64(total))
			}
			fmt.Fprintln(tw)
		}
		tw.Flush()
	}
	return 0
}
