package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4). Every family a
// process exposes — registry dumps, gauges, service counters, the
// exemplar latency histograms — is collected into one Exposition and
// rendered by its WriteTo, so the format rules live in one place: HELP
// and TYPE appear once per family, every label value passes through one
// escaper, integer samples render as integers, and an exemplar is an
// optional field of a histogram bucket.
//
// An Exposition holds snapshots only: registry families come from a
// MetricsDump taken on the simulation goroutine, and exemplar histograms
// are copied under their own lock, so an HTTP handler never races the
// simulation.

// PromLabels is one sample's label set, rendered sorted by name. Values
// are escaped on render; names are used as-is and must be valid
// Prometheus label names.
type PromLabels map[string]string

// Exposition is an ordered list of metric families. A sample whose
// family name is already present joins that family, so the label sets
// of one metric share a single HELP/TYPE header. The zero value is empty
// and ready to use.
type Exposition struct {
	families []*family
	byName   map[string]*family
}

// family is one metric family: a name, HELP text, TYPE, and its samples
// in insertion order.
type family struct {
	name, help, typ string
	samples         []sample
}

// sample is one exposition line: the family name plus suffix (_bucket,
// _sum, _count, or none), the label set with a histogram bucket's bound
// rendered last, the formatted value, and an optional exemplar.
type sample struct {
	suffix   string
	labels   PromLabels
	le       string
	value    string
	exemplar exemplar
}

// exemplar is the OpenMetrics exemplar of one histogram bucket: the last
// observation that landed in it and its trace ID ("" when none).
type exemplar struct {
	labelID string
	value   float64
}

// family returns the family named name (sanitised), creating it with the
// given HELP text and type on first use.
func (x *Exposition) family(name, help, typ string) *family {
	name = promName(name)
	if f := x.byName[name]; f != nil {
		return f
	}
	if x.byName == nil {
		x.byName = make(map[string]*family)
	}
	f := &family{name: name, help: help, typ: typ}
	x.byName[name] = f
	x.families = append(x.families, f)
	return f
}

// Counter adds one counter sample.
func (x *Exposition) Counter(name, help string, labels PromLabels, v uint64) {
	f := x.family(name, help, "counter")
	f.samples = append(f.samples, sample{labels: labels, value: strconv.FormatUint(v, 10)})
}

// Gauge adds one gauge sample.
func (x *Exposition) Gauge(name, help string, labels PromLabels, v float64) {
	f := x.family(name, help, "gauge")
	f.samples = append(f.samples, sample{labels: labels, value: promFloat(v)})
}

// Registry adds a metrics-registry dump: every counter as
// `<prefix><name>_total`, every histogram as a cumulative
// `_bucket{le="..."}` series (the registry's inclusive upper bounds match
// Prometheus `le` semantics exactly) plus `_sum` and `_count`, counters
// first and each group sorted by name. labels are attached to every
// sample. A nil dump adds nothing.
func (x *Exposition) Registry(prefix string, d *MetricsDump, labels PromLabels) {
	if d == nil {
		return
	}
	names := make([]string, 0, len(d.Counters))
	for name := range d.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		x.Counter(prefix+promName(name)+"_total", fmt.Sprintf("Registry counter %q.", name), labels, d.Counters[name])
	}

	hists := append([]HistogramDump(nil), d.Histograms...)
	sort.Slice(hists, func(i, j int) bool { return hists[i].Name < hists[j].Name })
	for _, h := range hists {
		les := make([]string, len(h.Bounds))
		for i, b := range h.Bounds {
			les[i] = strconv.FormatUint(b, 10)
		}
		x.histogram(prefix+promName(h.Name), fmt.Sprintf("Registry histogram %q.", h.Name),
			labels, les, h.Counts, nil, strconv.FormatUint(h.Sum, 10))
	}
}

// ExemplarHists adds the histograms sorted by name, each bucket that
// holds an exemplar carrying it. Nil entries are skipped; labels are
// attached to every sample.
func (x *Exposition) ExemplarHists(hists []*ExemplarHist, labels PromLabels) {
	dumps := make([]exemplarHistDump, 0, len(hists))
	for _, h := range hists {
		if h != nil {
			dumps = append(dumps, h.dump())
		}
	}
	sort.Slice(dumps, func(i, j int) bool { return dumps[i].name < dumps[j].name })
	for _, d := range dumps {
		les := make([]string, len(d.bounds))
		for i, b := range d.bounds {
			les[i] = promFloat(b)
		}
		x.histogram(d.name, d.help, labels, les, d.counts, d.exemplars, promFloat(d.sum))
	}
}

// histogram adds one histogram family. counts holds one count per bound
// in les plus the overflow bucket; exemplars is nil or holds one entry
// per bucket. Buckets are rendered cumulatively, ending at le="+Inf",
// whose count is also the `_count`.
func (x *Exposition) histogram(name, help string, labels PromLabels, les []string, counts []uint64, exemplars []exemplar, sum string) {
	f := x.family(name, help, "histogram")
	var cum uint64
	for i, c := range counts {
		cum += c
		s := sample{suffix: "_bucket", labels: labels, le: "+Inf", value: strconv.FormatUint(cum, 10)}
		if i < len(les) {
			s.le = les[i]
		}
		if exemplars != nil {
			s.exemplar = exemplars[i]
		}
		f.samples = append(f.samples, s)
	}
	f.samples = append(f.samples,
		sample{suffix: "_sum", labels: labels, value: sum},
		sample{suffix: "_count", labels: labels, value: strconv.FormatUint(cum, 10)})
}

// WriteTo renders every family in insertion order: HELP and TYPE, then
// its samples. A family added without HELP text gets "<Type> <name>.".
func (x *Exposition) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	for _, f := range x.families {
		help := f.help
		if help == "" {
			help = strings.ToUpper(f.typ[:1]) + f.typ[1:] + " " + f.name + "."
		}
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, help, f.name, f.typ)
		for _, s := range f.samples {
			b.WriteString(f.name)
			b.WriteString(s.suffix)
			writeLabels(&b, s.labels, s.le)
			b.WriteByte(' ')
			b.WriteString(s.value)
			if s.exemplar.labelID != "" {
				fmt.Fprintf(&b, ` # {trace_id="%s"} %s`, labelEscaper.Replace(s.exemplar.labelID), promFloat(s.exemplar.value))
			}
			b.WriteByte('\n')
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// labelEscaper escapes a label value per the text format: backslash,
// double quote and newline, and nothing else.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// writeLabels renders {k="v",...} with keys sorted and le, when set,
// last; nothing when both are empty.
func writeLabels(b *strings.Builder, labels PromLabels, le string) {
	if len(labels) == 0 && le == "" {
		return
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k + `="` + labelEscaper.Replace(labels[k]) + `"`)
	}
	if le != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`le="` + le + `"`)
	}
	b.WriteByte('}')
}

// promName maps a registry metric name to a valid Prometheus metric name
// ([a-zA-Z_:][a-zA-Z0-9_:]*): every run of invalid characters (including
// a leading digit) becomes one underscore.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	prevUnder := false
	for i, c := range name {
		valid := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		switch {
		case valid:
			b.WriteRune(c)
			prevUnder = c == '_'
		case !prevUnder:
			b.WriteByte('_')
			prevUnder = true
		}
	}
	out := b.String()
	if out == "" {
		return "_"
	}
	return out
}

// promFloat renders a float sample value. Integral values below 2^53
// render as integers ("12345678", not "1.2345678e+07"); +Inf renders as
// "+Inf".
func promFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
