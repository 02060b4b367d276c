// Package trace selects a window of committed μop timelines from the
// internal/obs event stream and renders it as a Kanata/Konata log. It is
// the shared backend of cmd/pipetrace and the trace regression tests.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"repro/internal/obs"
)

// Assemble replays an obs event stream through obs.Assembler and returns
// the committed μops with sequence numbers in [from, to), in commit order.
// Squashed attempts are discarded; a refetched μop's timeline reflects its
// committed incarnation.
func Assemble(events []obs.Event, from, to uint64) []obs.Timeline {
	var a obs.Assembler
	var window []obs.Timeline
	for i := range events {
		if u, ok := a.Add(&events[i]); ok && u.Seq >= from && u.Seq < to {
			window = append(window, u)
		}
	}
	return window
}

// WriteKanata emits the window as a Kanata 0004 log: one lane per μop with
// Dc (decode/backpressure), Sc (scheduler), Is (issue/execute) stages,
// readable by the Konata pipeline viewer.
func WriteKanata(out io.Writer, window []obs.Timeline) error {
	type event struct {
		cycle uint64
		line  string
	}
	// Eight log lines per μop (see the loop body below).
	events := make([]event, 0, 8*len(window))
	add := func(cycle uint64, format string, args ...any) {
		events = append(events, event{cycle, fmt.Sprintf(format, args...)})
	}
	for i, u := range window {
		id := i
		fetch := uint64(0)
		if u.Decode >= 2 {
			fetch = u.Decode - 2
		}
		add(fetch, "I\t%d\t%d\t0", id, u.Seq)
		add(fetch, "L\t%d\t0\t%d: %s", id, u.Seq, u.Label)
		add(fetch, "S\t%d\t0\tDc", id)
		add(u.Dispatch, "E\t%d\t0\tDc", id)
		add(u.Dispatch, "S\t%d\t0\tSc", id)
		add(u.Issue, "E\t%d\t0\tSc", id)
		add(u.Issue, "S\t%d\t0\tIs", id)
		add(u.Complete, "E\t%d\t0\tIs", id)
		add(u.Complete, "R\t%d\t%d\t0", id, u.Seq)
	}
	sort.SliceStable(events, func(a, b int) bool { return events[a].cycle < events[b].cycle })

	w := bufio.NewWriter(out)
	fmt.Fprintf(w, "Kanata\t0004\n")
	if len(events) == 0 {
		return w.Flush()
	}
	fmt.Fprintf(w, "C=\t%d\n", events[0].cycle)
	cur := events[0].cycle
	for _, e := range events {
		if e.cycle > cur {
			fmt.Fprintf(w, "C\t%d\n", e.cycle-cur)
			cur = e.cycle
		}
		fmt.Fprintln(w, e.line)
	}
	return w.Flush()
}
