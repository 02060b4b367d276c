package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// --- Chrome trace_event sink ---

// TraceEvent is one entry of the Chrome trace_event format (the JSON
// object format consumed by chrome://tracing and Perfetto).
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteTraceEvents writes events as one trace_event JSON object — the
// container chrome://tracing and Perfetto load — with timestamps as
// milliseconds for display and metadata as the file's metadata block.
// It sorts events by timestamp (stably) first, so every track is
// monotonic. ChromeSink and span trees both write through it.
func WriteTraceEvents(w io.Writer, events []TraceEvent, metadata map[string]any) error {
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []TraceEvent   `json:"traceEvents"`
		DisplayTimeUnit string         `json:"displayTimeUnit"`
		Metadata        map[string]any `json:"metadata,omitempty"`
	}{events, "ms", metadata})
}

// ChromeSink renders the event stream as a Chrome trace_event JSON file:
// one complete ("X") slice per committed μop on its issue port's track,
// instant events for flushes, and counter ("C") tracks fed by the interval
// heartbeats. The μop slices come from an Assembler; events are buffered
// and written at Close. Cycle numbers are reported as microseconds
// (1 cycle = 1 µs) purely for viewer ergonomics.
type ChromeSink struct {
	w      io.WriteCloser
	events []TraceEvent
	uops   Assembler
	closed bool
}

// Track layout of the generated trace.
const (
	chromePID      = 0
	chromeTIDFlush = 98 // instant flush markers
	chromeTIDBeat  = 99 // counter tracks
)

// NewChromeSink writes a Chrome trace to path.
func NewChromeSink(path string) (*ChromeSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: chrome sink: %w", err)
	}
	return NewChromeSinkWriter(f), nil
}

// NewChromeSinkWriter writes a Chrome trace to w, closing it on Close.
func NewChromeSinkWriter(w io.WriteCloser) *ChromeSink {
	return &ChromeSink{w: w}
}

// Event implements Sink.
func (c *ChromeSink) Event(e *Event) {
	if e.Kind == KindFlush {
		c.events = append(c.events, TraceEvent{
			Name: "flush", Ph: "i", TS: e.Cycle, PID: chromePID,
			TID: chromeTIDFlush, S: "g",
			Args: map[string]any{"bound": e.Seq},
		})
		return
	}
	u, ok := c.uops.Add(e)
	if !ok {
		return
	}
	name := u.Label
	if name == "" {
		name = e.Op.String()
	}
	c.events = append(c.events, TraceEvent{
		Name: name, Cat: e.Cls.String(), Ph: "X",
		TS: u.Dispatch, Dur: max(u.Complete-u.Dispatch, 1), PID: chromePID, TID: u.Port,
		Args: map[string]any{
			"seq":    u.Seq,
			"ready":  u.Ready,
			"issue":  u.Issue,
			"commit": u.Commit,
		},
	})
}

// Interval implements Sink: counter tracks for occupancy/queue pressure
// and interval IPC.
func (c *ChromeSink) Interval(iv Interval) {
	c.events = append(c.events,
		TraceEvent{
			Name: "occupancy", Ph: "C", TS: iv.EndCycle, PID: chromePID, TID: chromeTIDBeat,
			Args: map[string]any{"sched": iv.SchedOccupancy, "lq": iv.LQ, "sq": iv.SQ},
		},
		TraceEvent{
			Name: "interval", Ph: "C", TS: iv.EndCycle, PID: chromePID, TID: chromeTIDBeat,
			Args: map[string]any{"ipc": iv.IPC(), "committed": iv.Committed, "flushes": iv.Flushes},
		},
	)
}

// Close implements Sink: writes the buffered events through
// WriteTraceEvents and closes the writer.
func (c *ChromeSink) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	err := WriteTraceEvents(c.w, c.events, map[string]any{"unit": "1 ts = 1 core cycle"})
	if cerr := c.w.Close(); err == nil {
		err = cerr
	}
	c.events, c.uops = nil, Assembler{}
	return err
}

// --- JSONL event-log sink ---

// jsonlEvent is the wire form of one event line.
type jsonlEvent struct {
	Kind  string `json:"kind"`
	Cycle uint64 `json:"cycle"`
	Seq   uint64 `json:"seq"`
	PC    uint64 `json:"pc,omitempty"`
	Op    string `json:"op,omitempty"`
	Cls   string `json:"cls,omitempty"`
	Port  int16  `json:"port,omitempty"`
	Arg   uint64 `json:"arg,omitempty"`
	Label string `json:"label,omitempty"`
}

// JSONLSink streams every event as one JSON object per line. Interval
// snapshots are written as {"kind":"interval",...} lines on the same
// stream, so a single file replays the whole run.
type JSONLSink struct {
	w      io.WriteCloser
	buf    *bufio.Writer
	enc    *json.Encoder
	closed bool
}

// NewJSONLSink writes a JSONL event log to path.
func NewJSONLSink(path string) (*JSONLSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: jsonl sink: %w", err)
	}
	return NewJSONLSinkWriter(f), nil
}

// NewJSONLSinkWriter writes a JSONL event log to w, closing it on Close.
func NewJSONLSinkWriter(w io.WriteCloser) *JSONLSink {
	buf := bufio.NewWriterSize(w, 1<<16)
	return &JSONLSink{w: w, buf: buf, enc: json.NewEncoder(buf)}
}

// Event implements Sink.
func (s *JSONLSink) Event(e *Event) {
	le := jsonlEvent{
		Kind:  e.Kind.String(),
		Cycle: e.Cycle,
		Seq:   e.Seq,
		PC:    e.PC,
		Port:  e.Port,
		Arg:   e.Arg,
		Label: label(e.Inst),
	}
	if e.Kind == KindCommit || e.Kind == KindDispatch || e.Kind == KindIssue {
		le.Op = e.Op.String()
		le.Cls = e.Cls.String()
	}
	s.enc.Encode(le)
}

// Interval implements Sink.
func (s *JSONLSink) Interval(iv Interval) {
	s.enc.Encode(struct {
		Kind string `json:"kind"`
		Interval
	}{Kind: "interval", Interval: iv})
}

// Close implements Sink.
func (s *JSONLSink) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.buf.Flush()
	if cerr := s.w.Close(); err == nil {
		err = cerr
	}
	return err
}

// --- CSV interval sink ---

// CSVHeader is the column layout of the interval metrics dump.
var CSVHeader = []string{
	"interval", "start_cycle", "end_cycle", "cycles",
	"committed", "fetched", "issued", "flushes", "squashed",
	"dispatch_stalls", "violations", "mispredicts", "ipc",
	"sched_occupancy", "lq", "sq",
}

// CSVSink writes one row per interval heartbeat; events are ignored.
type CSVSink struct {
	w      io.WriteCloser
	buf    *bufio.Writer
	closed bool
}

// NewCSVSink writes interval metrics CSV to path.
func NewCSVSink(path string) (*CSVSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: csv sink: %w", err)
	}
	return NewCSVSinkWriter(f), nil
}

// NewCSVSinkWriter writes interval metrics CSV to w, closing it on Close.
func NewCSVSinkWriter(w io.WriteCloser) *CSVSink {
	s := &CSVSink{w: w, buf: bufio.NewWriter(w)}
	for i, col := range CSVHeader {
		if i > 0 {
			s.buf.WriteByte(',')
		}
		s.buf.WriteString(col)
	}
	s.buf.WriteByte('\n')
	return s
}

// Event implements Sink (ignored).
func (s *CSVSink) Event(*Event) {}

// Interval implements Sink.
func (s *CSVSink) Interval(iv Interval) {
	fmt.Fprintf(s.buf, "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.4f,%d,%d,%d\n",
		iv.Index, iv.StartCycle, iv.EndCycle, iv.EndCycle-iv.StartCycle,
		iv.Committed, iv.Fetched, iv.Issued, iv.Flushes, iv.Squashed,
		iv.DispatchStalls, iv.Violations, iv.Mispredicts, iv.IPC(),
		iv.SchedOccupancy, iv.LQ, iv.SQ)
}

// Close implements Sink.
func (s *CSVSink) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.buf.Flush()
	if cerr := s.w.Close(); err == nil {
		err = cerr
	}
	return err
}

// --- In-memory sink ---

// MemorySink buffers every event and interval in memory — the consumer
// surface for cmd/pipetrace and tests.
type MemorySink struct {
	Events    []Event
	Intervals []Interval
}

// Event implements Sink.
func (m *MemorySink) Event(e *Event) { m.Events = append(m.Events, *e) }

// Interval implements Sink.
func (m *MemorySink) Interval(iv Interval) { m.Intervals = append(m.Intervals, iv) }

// Close implements Sink (no-op: the buffers stay readable).
func (m *MemorySink) Close() error { return nil }
