package trace

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// stream is a hand-built event sequence: three μops through the full
// pipeline, one of them (seq 11) squashed once by a flush and refetched.
func stream() []obs.Event {
	ev := func(k obs.Kind, cycle, seq, arg uint64, in *isa.DynInst) obs.Event {
		return obs.Event{Kind: k, Cycle: cycle, Seq: seq, Arg: arg, Inst: in}
	}
	add := &isa.DynInst{Seq: 10, PC: 0, Op: isa.OpIntALU, Fn: isa.FnAdd, Dst: 1}
	load := &isa.DynInst{Seq: 11, PC: 1, Op: isa.OpLoad, Dst: 2, Addr: 0x40}
	and := &isa.DynInst{Seq: 12, PC: 2, Op: isa.OpIntALU, Fn: isa.FnAnd, Dst: 3}
	return []obs.Event{
		ev(obs.KindDecode, 2, 10, 0, add),
		ev(obs.KindDispatch, 4, 10, 0, nil),
		ev(obs.KindDecode, 3, 11, 0, load),
		ev(obs.KindDispatch, 5, 11, 0, nil),
		ev(obs.KindIssue, 6, 10, 5, nil),
		ev(obs.KindExec, 6, 10, 7, nil),
		ev(obs.KindCommit, 8, 10, 0, nil),
		// Flush: seq 11's first incarnation dies before issuing.
		ev(obs.KindFlush, 9, 11, 0, nil),
		ev(obs.KindSquash, 9, 11, 0, nil),
		// Refetch and complete.
		ev(obs.KindDecode, 11, 11, 0, load),
		ev(obs.KindDispatch, 13, 11, 0, nil),
		ev(obs.KindIssue, 14, 11, 13, nil),
		ev(obs.KindExec, 14, 11, 18, nil),
		ev(obs.KindDecode, 12, 12, 0, and),
		ev(obs.KindDispatch, 14, 12, 0, nil),
		ev(obs.KindIssue, 19, 12, 18, nil),
		ev(obs.KindExec, 19, 12, 20, nil),
		ev(obs.KindCommit, 19, 11, 0, nil),
		ev(obs.KindCommit, 21, 12, 0, nil),
	}
}

func TestAssemble(t *testing.T) {
	w := Assemble(stream(), 10, 13)
	if len(w) != 3 {
		t.Fatalf("got %d μops, want 3", len(w))
	}
	// Commit order.
	for i, want := range []uint64{10, 11, 12} {
		if w[i].Seq != want {
			t.Errorf("window[%d].Seq = %d, want %d", i, w[i].Seq, want)
		}
	}
	// Seq 11 must reflect the refetched (committed) incarnation.
	u := w[1]
	if u.Decode != 11 || u.Dispatch != 13 || u.Issue != 14 || u.Ready != 13 || u.Complete != 18 || u.Commit != 19 {
		t.Errorf("seq 11 timeline = %+v, want refetched incarnation", u)
	}
	if u.Label != "#11 pc=1 load r2, [0x40]" {
		t.Errorf("seq 11 label = %q", u.Label)
	}

	if got := Assemble(stream(), 11, 12); len(got) != 1 || got[0].Seq != 11 {
		t.Errorf("sub-window [11,12) = %+v", got)
	}
	if got := Assemble(nil, 0, 100); got != nil {
		t.Errorf("empty stream: got %+v", got)
	}
}

// TestAssembleIncomplete drops partial timelines rather than emitting
// garbage: a commit without a preceding decode/dispatch/issue is skipped.
func TestAssembleIncomplete(t *testing.T) {
	events := []obs.Event{
		{Kind: obs.KindCommit, Cycle: 5, Seq: 1},
		{Kind: obs.KindDecode, Cycle: 1, Seq: 2, Inst: &isa.DynInst{Seq: 2}},
		{Kind: obs.KindCommit, Cycle: 6, Seq: 2},
	}
	if got := Assemble(events, 0, 100); len(got) != 0 {
		t.Errorf("incomplete timelines leaked: %+v", got)
	}
}

func TestWriteKanataGolden(t *testing.T) {
	window := Assemble(stream(), 10, 13)
	var buf bytes.Buffer
	if err := WriteKanata(&buf, window); err != nil {
		t.Fatal(err)
	}
	got := buf.String()

	golden := filepath.Join("testdata", "kanata.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if got != string(want) {
		t.Errorf("Kanata output drifted from %s:\n--- got ---\n%s\n--- want ---\n%s",
			golden, got, want)
	}

	// Structural sanity independent of the golden bytes.
	if !strings.HasPrefix(got, "Kanata\t0004\n") {
		t.Errorf("missing Kanata 0004 header: %q", got[:min(len(got), 20)])
	}
	retires := strings.Count(got, "\nR\t")
	if retires != len(window) {
		t.Errorf("retire lines = %d, want %d", retires, len(window))
	}
}

func TestWriteKanataEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteKanata(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "Kanata\t0004\n" {
		t.Errorf("empty window: %q", buf.String())
	}
}
