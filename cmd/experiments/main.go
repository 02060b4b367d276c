// Command experiments regenerates every table and figure of the paper's
// evaluation section on the reproduction's synthetic workload suite.
//
// Usage:
//
//	experiments                 # run everything (several minutes)
//	experiments -fig 11,13,16   # selected figures
//	experiments -ops 300000     # higher-fidelity runs
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/energy"
	"repro/internal/exp"
)

func main() {
	var (
		figs = flag.String("fig", "all", "comma-separated figure ids (3c,4,6a,6b,11,12,13,14,15,16,17a,17b,17c,mdp,ablations,casino-search,calib,cpistack,tables) or 'all'")
		ops  = flag.Int("ops", 150_000, "dynamic μops per simulation")
		wls  = flag.String("workloads", "", "comma-separated kernel subset (default all)")
		par  = flag.Int("parallel", 0, "simulations in flight per figure (0 = GOMAXPROCS)")
		csv  = flag.String("csv", "", "also write every rendered table to this directory as CSV")
	)
	flag.Parse()

	o := exp.Options{Ops: *ops, Parallelism: *par}
	if *wls != "" {
		o.Workloads = strings.Split(*wls, ",")
	}

	want := map[string]bool{}
	all := *figs == "all"
	for _, f := range strings.Split(*figs, ",") {
		want[strings.TrimSpace(f)] = true
	}

	if all || want["tables"] {
		fmt.Println(exp.TableI())
		fmt.Println(exp.TableII())
		fmt.Println(energy.StateReport())
	}
	if *csv != "" {
		if err := os.MkdirAll(*csv, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	for _, f := range exp.Figures {
		if !all && !want[f.Name] {
			continue
		}
		start := time.Now()
		t, err := f.Run(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figure %s: %v\n", f.Name, err)
			os.Exit(1)
		}
		fmt.Println(t.String())
		writeCSV(*csv, "fig"+f.Name, t)
		fmt.Printf("(figure %s took %.1fs)\n\n", f.Name, time.Since(start).Seconds())
	}

	// The CPI-stack comparison renders one table per tier-1 kernel, so it
	// runs outside the single-table figure loop.
	if all || want["cpistack"] {
		start := time.Now()
		tables, err := exp.CPIStacks(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figure cpistack: %v\n", err)
			os.Exit(1)
		}
		for i, t := range tables {
			fmt.Println(t.String())
			writeCSV(*csv, fmt.Sprintf("cpistack-%d", i), t)
		}
		fmt.Printf("(figure cpistack took %.1fs)\n\n", time.Since(start).Seconds())
	}
}

// writeCSV writes table t to dir/<stem>.csv; a failure is fatal (the CSV
// artifact is the point of -csv runs in CI).
func writeCSV(dir, stem string, t *exp.Table) {
	if dir == "" {
		return
	}
	f, err := os.Create(filepath.Join(dir, stem+".csv"))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	if err := t.WriteCSV(f); err != nil {
		fmt.Fprintf(os.Stderr, "csv %s: %v\n", stem, err)
		os.Exit(1)
	}
}
