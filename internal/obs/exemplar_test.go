package obs

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// exemplarTestHists builds a fixed pair of histograms exercising every
// renderer path: interior, first and overflow buckets, a bucket with no
// exemplar, exemplar replacement (last write wins), and an escaped
// exemplar label.
func exemplarTestHists() []*ExemplarHist {
	wait := NewExemplarHist("ballserved_queue_wait_seconds",
		"Time from submission to a worker picking the job up.",
		[]float64{0.001, 0.01, 0.1, 1})
	wait.Observe(0.0004, "aaaa000011112222")
	wait.Observe(0.05, "bbbb000011112222")
	wait.Observe(0.07, "cccc000011112222") // replaces bbbb in the 0.1 bucket
	wait.Observe(0.5, "")                  // counted, no exemplar
	wait.Observe(30, `dd"dd\0001`)         // overflow bucket, escaped label

	fsync := NewExemplarHist("ballserved_wal_fsync_seconds", "",
		[]float64{0.0005, 0.005, 0.05})
	fsync.Observe(0.002, "eeee000011112222")
	return []*ExemplarHist{fsync, wait} // unsorted on purpose; renderer sorts
}

func TestExemplarHistGolden(t *testing.T) {
	got := expose(t, func(x *Exposition) { x.ExemplarHists(exemplarTestHists(), PromLabels{"arch": "Ballerino"}) })

	golden := filepath.Join("testdata", "exemplar.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("exposition differs from golden file:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// stripExemplars removes OpenMetrics exemplar suffixes so the plain
// text-format parser (scanProm) accepts the exposition — exactly what a
// non-OpenMetrics scraper does by treating " # ..." as a comment.
func stripExemplars(text string) string {
	lines := strings.Split(text, "\n")
	for i, line := range lines {
		if j := strings.Index(line, " # {"); j >= 0 {
			lines[i] = line[:j]
		}
	}
	return strings.Join(lines, "\n")
}

// TestExemplarHistScansBack parses the rendered exposition (exemplars
// stripped) and verifies the histogram invariants: cumulative monotone
// buckets, +Inf == _count, _sum matches, and the exemplar suffixes
// themselves carry the expected trace IDs and values.
func TestExemplarHistScansBack(t *testing.T) {
	hists := exemplarTestHists()
	text := expose(t, func(x *Exposition) { x.ExemplarHists(hists, nil) })
	samples := scanProm(t, stripExemplars(text))

	byName := map[string][]promSample{}
	for _, s := range samples {
		byName[s.name] = append(byName[s.name], s)
	}

	buckets := byName["ballserved_queue_wait_seconds_bucket"]
	if len(buckets) != 5 {
		t.Fatalf("bucket series length = %d, want 5 (4 bounds + +Inf)", len(buckets))
	}
	var prev float64 = -1
	var inf float64
	for _, s := range buckets {
		if s.value < prev {
			t.Errorf("bucket counts not cumulative: %v after %v", s.value, prev)
		}
		prev = s.value
		if s.labels["le"] == "+Inf" {
			inf = s.value
		}
	}
	count := byName["ballserved_queue_wait_seconds_count"][0].value
	if inf != 5 || count != 5 {
		t.Errorf("+Inf bucket %v / _count %v, want 5", inf, count)
	}
	wantSum := 0.0004 + 0.05 + 0.07 + 0.5 + 30
	sum := byName["ballserved_queue_wait_seconds_sum"][0].value
	if diff := sum - wantSum; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("_sum = %v, want %v", sum, wantSum)
	}

	// Exemplar suffixes: the 0.1 bucket's exemplar must be the LAST
	// observation that landed there, and its value must parse back.
	var line01 string
	for _, l := range strings.Split(text, "\n") {
		if strings.HasPrefix(l, `ballserved_queue_wait_seconds_bucket{le="0.1"}`) {
			line01 = l
		}
	}
	if line01 == "" {
		t.Fatal("no le=0.1 bucket line")
	}
	j := strings.Index(line01, " # {")
	if j < 0 {
		t.Fatalf("le=0.1 bucket has no exemplar: %q", line01)
	}
	suffix := line01[j+3:]
	if !strings.Contains(suffix, `trace_id="cccc000011112222"`) {
		t.Errorf("exemplar not last-write-wins: %q", suffix)
	}
	valStr := suffix[strings.LastIndexByte(suffix, ' ')+1:]
	if v, err := strconv.ParseFloat(valStr, 64); err != nil || v != 0.07 {
		t.Errorf("exemplar value = %q, want 0.07 (%v)", valStr, err)
	}

	// The 1.0 bucket got an observation without an exemplar ID: it must
	// render as a plain bucket line.
	for _, l := range strings.Split(text, "\n") {
		if strings.HasPrefix(l, `ballserved_queue_wait_seconds_bucket{le="1"}`) && strings.Contains(l, " # {") {
			t.Errorf("bucket without exemplar rendered one: %q", l)
		}
	}
}

func TestExemplarHistNilSafe(t *testing.T) {
	var h *ExemplarHist
	h.Observe(1, "x") // must not panic
	if h.Count() != 0 {
		t.Error("nil hist has nonzero count")
	}
	if out := expose(t, func(x *Exposition) { x.ExemplarHists([]*ExemplarHist{nil, nil}, nil) }); out != "" {
		t.Errorf("nil hists rendered output: %q", out)
	}
}

func TestExemplarHistConcurrent(t *testing.T) {
	h := NewExemplarHist("x", "", []float64{1, 2, 3})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			h.Observe(float64(i%5), "t")
		}
	}()
	for i := 0; i < 100; i++ {
		expose(t, func(x *Exposition) { x.ExemplarHists([]*ExemplarHist{h}, nil) })
	}
	<-done
	if h.Count() != 1000 {
		t.Errorf("count = %d, want 1000", h.Count())
	}
}
