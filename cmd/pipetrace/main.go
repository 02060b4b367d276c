// Command pipetrace renders a cycle-level pipeline diagram (Konata-style
// ASCII Gantt) for a window of committed μops — the per-instruction view
// behind the decode-to-issue breakdowns of Figures 3c and 12.
//
//	pipetrace -arch Ballerino -workload store-load -from 2000 -n 40
//
// Legend: D decoded, q waiting dispatch, s in scheduler, r ready, X issue,
// e executing, C complete.
//
// The run goes through ballerino.Run with an in-memory internal/obs sink
// as its recorder; the window is assembled from those decode/dispatch/
// issue/exec/commit events by obs.Assembler, the same assembler behind
// ballsim's Chrome trace, so the rendering consumes exactly what external
// trace files contain.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	ballerino "repro"
	"repro/internal/obs"
	"repro/internal/trace"
)

func main() {
	var (
		arch   = flag.String("arch", "Ballerino", "microarchitecture")
		wl     = flag.String("workload", "store-load", "workload kernel")
		from   = flag.Uint64("from", 2000, "first μop (sequence number) to display")
		n      = flag.Uint64("n", 32, "number of μops to display")
		ops    = flag.Int("ops", 0, "μops to simulate (default: from+n+1000)")
		kanata = flag.String("kanata", "", "also write a Kanata/Konata log to this file")
	)
	flag.Parse()

	budget := *ops
	if budget == 0 {
		budget = int(*from+*n) + 1000
	}

	mem := &obs.MemorySink{}
	if _, err := ballerino.Run(ballerino.Config{
		Arch:      *arch,
		Workload:  *wl,
		MaxOps:    budget,
		MaxCycles: uint64(budget) * 200,
		Recorder:  obs.NewRecorder(0, mem),
	}); err != nil {
		fail(err)
	}
	window := trace.Assemble(mem.Events, *from, *from+*n)
	if len(window) == 0 {
		fail(fmt.Errorf("no μops in [%d, %d) — trace too short?", *from, *from+*n))
	}

	// Origin: the earliest dispatch in the window. The (often long)
	// decode→dispatch backpressure is shown numerically instead of drawn.
	base := window[0].Dispatch
	for _, u := range window {
		if u.Dispatch < base {
			base = u.Dispatch
		}
	}
	fmt.Printf("%s on %q — μops %d..%d (cycle origin %d)\n\n",
		*arch, *wl, *from, window[len(window)-1].Seq, base)
	fmt.Printf("%6s %-26s %5s  %s\n", "seq", "μop", "d2d", "dispatch → complete")
	for _, u := range window {
		op := u.Label
		if i := strings.Index(op, " "); i >= 0 {
			op = op[i+1:]
		}
		fmt.Printf("%6d %-26s %5d  %s\n", u.Seq, op, u.Dispatch-u.Decode, lane(u, base))
	}
	fmt.Println("\nlegend (per cycle from dispatch): s waiting in scheduler · r ready, not granted · X issue · e executing · C complete")
	fmt.Println("d2d = decode→dispatch backpressure cycles (not drawn)")

	if *kanata != "" {
		f, err := os.Create(*kanata)
		if err != nil {
			fail(err)
		}
		err = trace.WriteKanata(f, window)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fail(err)
		}
		fmt.Printf("\nKanata log written to %s (open with the Konata viewer)\n", *kanata)
	}
}

// lane renders one μop's post-dispatch lifetime as a character row.
func lane(u obs.Timeline, base uint64) string {
	rel := func(c uint64) int {
		if c < base {
			return 0
		}
		return int(c - base)
	}
	dispatch := rel(u.Dispatch)
	ready := rel(u.Ready)
	if ready < dispatch {
		ready = dispatch
	}
	issue := rel(u.Issue)
	complete := rel(u.Complete)

	const maxLane = 140
	drawTo := complete
	if drawTo > maxLane {
		drawTo = maxLane
	}
	var sb strings.Builder
	for c := 0; c <= drawTo; c++ {
		switch {
		case c < dispatch:
			sb.WriteByte(' ')
		case c < ready && c < issue:
			sb.WriteByte('s')
		case c < issue:
			sb.WriteByte('r')
		case c == issue:
			sb.WriteByte('X')
		case c < complete:
			sb.WriteByte('e')
		default:
			sb.WriteByte('C')
		}
	}
	if complete > maxLane {
		sb.WriteString("…")
	}
	return sb.String()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
