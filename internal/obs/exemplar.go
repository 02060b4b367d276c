package obs

import (
	"sort"
	"sync"
)

// ExemplarHist is a thread-safe latency histogram with float64 bucket
// bounds and per-bucket exemplars, built for the serving stack's
// lifecycle metrics (queue wait, service time, fsync, end-to-end). It
// stays a separate type from the registry Histogram, which holds uint64
// cycle samples written lock-free on the simulation goroutine and
// encoded as uint64 in the manifest: this one holds float64 seconds, is
// written from many goroutines (HTTP handlers, queue workers, the WAL
// observer), and each bucket remembers the last observation that landed
// in it together with an exemplar label — in practice the job's trace
// ID — so a tail-latency bucket on /metrics links straight to the
// offending job's span tree. Exposition.ExemplarHists renders it in the
// OpenMetrics exemplar syntax (`# {trace_id="..."} value`), which
// Prometheus parses when exemplar storage is enabled and plain-text
// scrapers can strip as a comment.
type ExemplarHist struct {
	name   string
	help   string
	bounds []float64 // inclusive upper bounds, ascending; +Inf implicit

	mu        sync.Mutex
	counts    []uint64 // len(bounds)+1, last = overflow (+Inf)
	sum       float64
	n         uint64
	exemplars []exemplar // len(bounds)+1; zero until a bucket gets one
}

// NewExemplarHist builds a histogram with the given ascending inclusive
// upper bounds (seconds, for latency metrics). help is the HELP text.
func NewExemplarHist(name, help string, bounds []float64) *ExemplarHist {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &ExemplarHist{
		name:      name,
		help:      help,
		bounds:    b,
		counts:    make([]uint64, len(b)+1),
		exemplars: make([]exemplar, len(b)+1),
	}
}

// Observe records v. exemplarID, when non-empty, replaces the bucket's
// exemplar (last write wins — recency beats sampling for linking a hot
// bucket to a live trace). Safe on a nil receiver and for concurrent use.
func (h *ExemplarHist) Observe(v float64, exemplarID string) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v (inclusive upper)
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.n++
	if exemplarID != "" {
		h.exemplars[i] = exemplar{labelID: exemplarID, value: v}
	}
	h.mu.Unlock()
}

// Count returns the number of observations so far (0 on nil).
func (h *ExemplarHist) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// exemplarHistDump is one histogram's consistent snapshot for rendering.
type exemplarHistDump struct {
	name      string
	help      string
	bounds    []float64
	counts    []uint64
	sum       float64
	exemplars []exemplar
}

func (h *ExemplarHist) dump() exemplarHistDump {
	h.mu.Lock()
	defer h.mu.Unlock()
	return exemplarHistDump{
		name:      h.name,
		help:      h.help,
		bounds:    h.bounds,
		counts:    append([]uint64(nil), h.counts...),
		sum:       h.sum,
		exemplars: append([]exemplar(nil), h.exemplars...),
	}
}
