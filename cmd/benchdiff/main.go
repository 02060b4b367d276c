// Command benchdiff is the simulator's wall-time gate: it emits a
// wall-time trajectory of the tier-1 microbenchmark set, or checks that a
// head trajectory is faster than a base one.
//
// Usage:
//
//	benchdiff -emit -o BENCH_pr.json -n 5              # run the tier-1 micro set
//	benchdiff -speedup 1.5 BASE.json HEAD.json         # require a 1.5× wall-time win
//	benchdiff -speedup 1.5 -speedup-workloads branchy BASE HEAD
//
// Inputs are "ballerino.bench/v1" trajectories (the -emit output). Per
// gated workload (-speedup-workloads), the geometric mean of per-point
// best-of-N base/head wall-time ratios must reach the -speedup factor.
// CI uses it to hold hot-loop optimisations to their claims. The
// simulated counters of the same grid are pinned by the golden-manifest
// corpus, so benchdiff compares wall time only.
//
// Exit codes: 0 gate passed (or trajectory written), 1 below the speedup
// gate, 2 usage or operational error.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"repro/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	var (
		emit = fs.Bool("emit", false, "run the tier-1 microbenchmark set and write a trajectory instead of comparing")
		out  = fs.String("o", "BENCH_pr.json", "output path for -emit")
		n    = fs.Int("n", 5, "repetitions per configuration for -emit (at least 1)")
		par  = fs.Int("parallel", runtime.GOMAXPROCS(0), "runs in flight at once for -emit (1 = sequential)")

		speedup   = fs.Float64("speedup", 0, "required best-of-N wall-time geomean speedup of head over base per gated workload")
		speedupWl = fs.String("speedup-workloads", "branchy,pointer-chase", "comma-separated workloads the -speedup gate covers")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	usage := func(msg string) int {
		fmt.Fprintf(os.Stderr, "benchdiff: %s\nusage: benchdiff -speedup F [flags] BASE.json HEAD.json  (or -emit -o FILE -n N)\n", msg)
		fs.PrintDefaults()
		return 2
	}

	if *emit {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		tr, err := bench.Collect(ctx, bench.DefaultConfigs(), *n, *par)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		if err := tr.WriteFile(*out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		fmt.Printf("wrote %s: %d points × %d samples\n", *out, len(tr.Points), *n)
		return 0
	}

	if fs.NArg() != 2 {
		return usage("need BASE and HEAD trajectories")
	}
	if *speedup <= 0 {
		return usage("nothing to compare without a positive -speedup")
	}
	base, err := bench.Load(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	head, err := bench.Load(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	rep := bench.CompareSpeedup(base, head, splitList(*speedupWl), *speedup)
	fmt.Print(rep)
	if rep.Failures > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d workload(s) below the %.2f× wall-time speedup gate\n", rep.Failures, *speedup)
		return 1
	}
	return 0
}

// splitList parses a comma-separated flag value, dropping empty items.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
