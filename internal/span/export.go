package span

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/obs"
)

// View is the exported snapshot of one span: the wire form of the
// per-job timeline API and the input to the text and Chrome renderers.
type View struct {
	ID     ID     `json:"id"`
	Parent ID     `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Start/End are RFC3339Nano wall-clock times; End is the zero time
	// while the span is still open (Open true).
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	Open  bool      `json:"open,omitempty"`
	Error string    `json:"error,omitempty"`
	Attrs []Attr    `json:"attrs,omitempty"`
}

// Duration returns the span's length (0 while open).
func (v View) Duration() time.Duration {
	if v.Open {
		return 0
	}
	return v.End.Sub(v.Start)
}

// Attr returns the last value recorded for key ("" when absent): the
// last-write-wins read over the append-only annotation list.
func (v View) Attr(key string) string {
	for i := len(v.Attrs) - 1; i >= 0; i-- {
		if v.Attrs[i].Key == key {
			return v.Attrs[i].Value
		}
	}
	return ""
}

// Tree is one trace's exported span set, in span-creation order. Spans
// are flat with parent IDs (0 = top level); Roots/Children walk them as
// a tree.
type Tree struct {
	TraceID string `json:"trace_id"`
	Spans   []View `json:"spans"`
}

// Tree snapshots the spans of traceID (nil when the tracer is nil or the
// trace is unknown/evicted). The snapshot is a deep copy: it stays
// consistent while the live trace keeps growing.
func (t *Tracer) Tree(traceID string) *Tree {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tr := t.traces[traceID]
	if tr == nil {
		return nil
	}
	out := &Tree{TraceID: traceID, Spans: make([]View, len(tr.spans))}
	for i, sp := range tr.spans {
		out.Spans[i] = View{
			ID:     sp.id,
			Parent: sp.parent,
			Name:   sp.name,
			Start:  sp.start,
			End:    sp.end,
			Open:   sp.end.IsZero(),
			Error:  sp.errMsg,
			Attrs:  append([]Attr(nil), sp.attrs...),
		}
	}
	return out
}

// Roots returns the top-level spans (parent 0, or parent missing from the
// snapshot).
func (tr *Tree) Roots() []View {
	ids := make(map[ID]bool, len(tr.Spans))
	for _, v := range tr.Spans {
		ids[v.ID] = true
	}
	var roots []View
	for _, v := range tr.Spans {
		if v.Parent == 0 || !ids[v.Parent] {
			roots = append(roots, v)
		}
	}
	return roots
}

// Children returns the direct children of span id, in creation order.
func (tr *Tree) Children(id ID) []View {
	var out []View
	for _, v := range tr.Spans {
		if v.Parent == id && v.ID != id {
			out = append(out, v)
		}
	}
	return out
}

// Find returns the first span named name (creation order) and whether one
// exists.
func (tr *Tree) Find(name string) (View, bool) {
	for _, v := range tr.Spans {
		if v.Name == name {
			return v, true
		}
	}
	return View{}, false
}

// start returns the earliest span start — the trace's time base.
func (tr *Tree) start() time.Time {
	var t0 time.Time
	for _, v := range tr.Spans {
		if t0.IsZero() || v.Start.Before(t0) {
			t0 = v.Start
		}
	}
	return t0
}

// WriteJSON renders the tree as indented JSON — the default body of
// GET /jobs/{id}/spans.
func (tr *Tree) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(tr)
}

// WriteText renders a human-readable timeline: one line per span,
// indented by depth, with the offset from trace start, the duration, and
// the annotations. Open spans render as "…open"; failed spans carry their
// error.
func (tr *Tree) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "trace %s (%d spans)\n", tr.TraceID, len(tr.Spans)); err != nil {
		return err
	}
	t0 := tr.start()
	var walk func(v View, depth int) error
	walk = func(v View, depth int) error {
		dur := "…open"
		if !v.Open {
			dur = v.Duration().Round(time.Microsecond).String()
		}
		line := fmt.Sprintf("%s%-*s +%-12s %s",
			strings.Repeat("  ", depth+1), 28-2*depth, v.Name,
			v.Start.Sub(t0).Round(time.Microsecond), dur)
		for _, a := range v.Attrs {
			line += fmt.Sprintf(" %s=%s", a.Key, a.Value)
		}
		if v.Error != "" {
			line += " ERROR: " + v.Error
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
		for _, c := range tr.Children(v.ID) {
			if err := walk(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range tr.Roots() {
		if err := walk(r, 0); err != nil {
			return err
		}
	}
	return nil
}

// WriteChrome renders the tree in the Chrome trace_event format through
// obs.WriteTraceEvents: one complete ("X") slice per closed span (nested
// slices form the flame view), a begin ("B") event for each still-open
// span, timestamps in microseconds since trace start.
func (tr *Tree) WriteChrome(w io.Writer) error {
	t0 := tr.start()
	events := make([]obs.TraceEvent, 0, len(tr.Spans))
	for _, v := range tr.Spans {
		args := map[string]any{"span_id": uint64(v.ID), "trace_id": tr.TraceID}
		for _, a := range v.Attrs {
			args[a.Key] = a.Value
		}
		if v.Error != "" {
			args["error"] = v.Error
		}
		ev := obs.TraceEvent{
			Name: v.Name, Cat: "lifecycle", TS: uint64(v.Start.Sub(t0).Microseconds()),
			PID: 0, TID: 0, Args: args,
		}
		if v.Open {
			ev.Ph = "B"
		} else {
			ev.Ph = "X"
			ev.Dur = uint64(v.End.Sub(v.Start).Microseconds())
			if ev.Dur == 0 {
				ev.Dur = 1
			}
		}
		events = append(events, ev)
	}
	return obs.WriteTraceEvents(w, events, map[string]any{"trace_id": tr.TraceID, "unit": "1 ts = 1 µs wall clock"})
}
