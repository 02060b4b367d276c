package obs

import (
	"bufio"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// promTestDump builds a fixed registry snapshot exercising every renderer
// path: plain and punctuation-heavy counter names, and a histogram with
// samples in interior, first and overflow buckets.
func promTestDump() *MetricsDump {
	reg := NewRegistry()
	reg.Counter("sched.steer-dc").Add(42)
	reg.Counter("commit").Add(100000)
	reg.Counter("9starts.with.digit").Inc()
	h := reg.NewHistogram("issue_delay.Ld", []uint64{1, 4, 16, 64})
	for _, v := range []uint64{0, 1, 2, 3, 9, 17, 100, 1000} {
		h.Observe(v)
	}
	return reg.Dump()
}

// expose renders the families add puts into a fresh Exposition.
func expose(t *testing.T, add func(x *Exposition)) string {
	t.Helper()
	var x Exposition
	add(&x)
	var b strings.Builder
	if _, err := x.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestPrometheusGolden(t *testing.T) {
	labels := PromLabels{"workload": `ha"sh\join` + "\n2", "arch": "Ballerino"}
	got := expose(t, func(x *Exposition) {
		x.Registry("ballerino_", promTestDump(), labels)
		x.Gauge("ballserved_job_ipc", "Committed μops per cycle.", PromLabels{"job": "1"}, 2.125)
		x.Gauge("ballserved_job_ipc", "", PromLabels{"job": "2"}, 0.5)
		x.Gauge("ballserved_jobs_running", "", nil, 1)
	})

	golden := filepath.Join("testdata", "prometheus.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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

// TestExpositionFamilies: samples of one name join a single family under
// one HELP/TYPE header wherever they are added, integer samples render as
// integers, and the label escaper touches only what the text format
// defines (a tab stays raw).
func TestExpositionFamilies(t *testing.T) {
	got := expose(t, func(x *Exposition) {
		x.Gauge("cycles", "Cycles.", PromLabels{"job": "1"}, 12345678)
		x.Counter("hits_total", "", nil, 1<<60)
		x.Gauge("cycles", "ignored", PromLabels{"job": "2", "workload": "a\tb\"c\\d\ne"}, 0.5)
	})
	want := `# HELP cycles Cycles.
# TYPE cycles gauge
cycles{job="1"} 12345678
cycles{job="2",workload="a` + "\t" + `b\"c\\d\ne"} 0.5
# HELP hits_total Counter hits_total.
# TYPE hits_total counter
hits_total 1152921504606846976
`
	if got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

// promSample is one parsed exposition line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// scanProm is a minimal text-format parser: enough to verify our own
// output (names, escaped label values, float values), not a general one.
func scanProm(t *testing.T, text string) []promSample {
	t.Helper()
	var samples []promSample
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("no value separator in %q", line)
		}
		key, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		s := promSample{labels: map[string]string{}, value: val}
		if i := strings.IndexByte(key, '{'); i >= 0 {
			if !strings.HasSuffix(key, "}") {
				t.Fatalf("unterminated label set in %q", line)
			}
			s.name = key[:i]
			parseLabels(t, key[i+1:len(key)-1], s.labels)
		} else {
			s.name = key
		}
		for _, c := range s.name {
			if !(c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')) {
				t.Fatalf("invalid metric name character %q in %q", c, s.name)
			}
		}
		if s.name[0] >= '0' && s.name[0] <= '9' {
			t.Fatalf("metric name %q starts with a digit", s.name)
		}
		samples = append(samples, s)
	}
	return samples
}

// parseLabels parses `k="v",...` undoing the text-format escaping.
func parseLabels(t *testing.T, s string, into map[string]string) {
	t.Helper()
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || len(s) < eq+2 || s[eq+1] != '"' {
			t.Fatalf("malformed label pair in %q", s)
		}
		key := s[:eq]
		rest := s[eq+2:]
		var val strings.Builder
		i := 0
		for ; i < len(rest); i++ {
			switch rest[i] {
			case '\\':
				i++
				if i >= len(rest) {
					t.Fatalf("dangling escape in %q", s)
				}
				switch rest[i] {
				case 'n':
					val.WriteByte('\n')
				case '\\', '"':
					val.WriteByte(rest[i])
				default:
					t.Fatalf("unknown escape \\%c in %q", rest[i], s)
				}
			case '"':
				goto closed
			default:
				val.WriteByte(rest[i])
			}
		}
		t.Fatalf("unterminated label value in %q", s)
	closed:
		into[key] = val.String()
		s = rest[i+1:]
		s = strings.TrimPrefix(s, ",")
	}
}

// TestPrometheusScansBack parses the rendered exposition and verifies the
// format invariants: escaped label values round-trip, histogram buckets
// are cumulative and monotone, the +Inf bucket equals _count, and _sum
// matches the histogram's sum.
func TestPrometheusScansBack(t *testing.T) {
	dump := promTestDump()
	wl := `ha"sh\join` + "\nx"
	samples := scanProm(t, expose(t, func(x *Exposition) { x.Registry("ballerino_", dump, PromLabels{"workload": wl}) }))

	byName := map[string][]promSample{}
	for _, s := range samples {
		byName[s.name] = append(byName[s.name], s)
		if s.labels["workload"] != wl {
			t.Errorf("label value round-trip failed: got %q want %q", s.labels["workload"], wl)
		}
	}

	if got := byName["ballerino_sched_steer_dc_total"]; len(got) != 1 || got[0].value != 42 {
		t.Errorf("sched.steer-dc counter: got %+v, want one sample of 42", got)
	}
	if got := byName["ballerino__starts_with_digit_total"]; len(got) != 1 || got[0].value != 1 {
		t.Errorf("digit-leading counter: got %+v", got)
	}

	buckets := byName["ballerino_issue_delay_Ld_bucket"]
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
	count := byName["ballerino_issue_delay_Ld_count"][0].value
	sum := byName["ballerino_issue_delay_Ld_sum"][0].value
	h := dump.Histograms[0]
	if inf != float64(h.N) || count != float64(h.N) {
		t.Errorf("+Inf bucket %v / _count %v, want %d", inf, count, h.N)
	}
	if sum != float64(h.Sum) {
		t.Errorf("_sum = %v, want %d", sum, h.Sum)
	}
	// The le bound of each finite bucket must parse back to the registry
	// bound (inclusive upper bounds == Prometheus le semantics).
	for i, s := range buckets[:4] {
		le, err := strconv.ParseFloat(s.labels["le"], 64)
		if err != nil || le != float64(h.Bounds[i]) {
			t.Errorf("bucket %d le = %q, want %d", i, s.labels["le"], h.Bounds[i])
		}
	}
}

// TestRecorderIntervalFanOut verifies that every registered OnInterval
// hook observes the same heartbeat stream as the sinks.
func TestRecorderIntervalFanOut(t *testing.T) {
	mem := &MemorySink{}
	r := NewRecorder(100, mem)
	var a, b []Interval
	r.OnInterval(func(iv Interval) { a = append(a, iv) })
	r.OnInterval(func(iv Interval) { b = append(b, iv) })

	r.Start(Snapshot{Cycle: 0})
	r.Heartbeat(Snapshot{Cycle: 100, Committed: 10})
	r.Heartbeat(Snapshot{Cycle: 200, Committed: 25})
	r.Finish(Snapshot{Cycle: 250, Committed: 30})

	if len(mem.Intervals) != 3 || len(a) != 3 || len(b) != 3 {
		t.Fatalf("fan-out counts: sink=%d a=%d b=%d, want 3 each", len(mem.Intervals), len(a), len(b))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], mem.Intervals[i]) || !reflect.DeepEqual(b[i], mem.Intervals[i]) {
			t.Errorf("interval %d differs between hook and sink", i)
		}
	}
	var nilRec *Recorder
	nilRec.OnInterval(func(Interval) {}) // must not panic
}
