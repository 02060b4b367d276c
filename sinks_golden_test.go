package ballerino_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	ballerino "repro"
	"repro/internal/obs"
	"repro/internal/trace"
)

var updateSinks = flag.Bool("update", false, "rewrite testdata/sinks.golden")

// sinkGoldenConfigs cover the event kinds every sink renders: steering
// probe events and MDA traffic (Ballerino/store-load) and flushes with
// squashed μops (OoO/branchy).
var sinkGoldenConfigs = []ballerino.Config{
	{Arch: "Ballerino", Workload: "store-load", MaxOps: 5_000, WarmupOps: 500},
	{Arch: "OoO", Workload: "branchy", MaxOps: 5_000, WarmupOps: 500},
}

// TestSinkOutputsGolden pins every byte the observability writers produce:
// the Chrome trace, the JSONL event log and the CSV metrics a traced run
// writes, plus the Kanata log pipetrace renders from an in-memory
// recorder's events. Each file is recorded as its length and SHA-256, so
// a change to event content, label rendering or writer formatting fails
// here. Regenerate with -update only for an intended output change.
func TestSinkOutputsGolden(t *testing.T) {
	var got strings.Builder
	for _, cfg := range sinkGoldenConfigs {
		name := cfg.Arch + "/" + cfg.Workload
		dir := t.TempDir()
		traced := cfg
		traced.TracePath = filepath.Join(dir, "run.trace.json")
		traced.EventsPath = filepath.Join(dir, "run.events.jsonl")
		traced.MetricsPath = filepath.Join(dir, "run.metrics.csv")
		if _, err := ballerino.Run(traced); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, f := range []struct{ kind, path string }{
			{"chrome-trace", traced.TracePath},
			{"events-jsonl", traced.EventsPath},
			{"metrics-csv", traced.MetricsPath},
		} {
			b, err := os.ReadFile(f.path)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "%s %s %d %x\n", name, f.kind, len(b), sha256.Sum256(b))
		}

		mem := &obs.MemorySink{}
		recorded := cfg
		recorded.Recorder = obs.NewRecorder(0, mem)
		if _, err := ballerino.Run(recorded); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var kanata bytes.Buffer
		if err := trace.WriteKanata(&kanata, trace.Assemble(mem.Events, 0, math.MaxUint64)); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%s kanata %d %x\n", name, kanata.Len(), sha256.Sum256(kanata.Bytes()))
	}

	golden := filepath.Join("testdata", "sinks.golden")
	if *updateSinks {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got.String() != string(want) {
		t.Errorf("sink outputs differ from %s:\ngot:\n%swant:\n%s", golden, got.String(), want)
	}
}
