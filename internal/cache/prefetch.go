package cache

// StridePrefetcher is a PC-indexed stride prefetcher in the style of the
// Table I "stride-based prefetcher" on the L1 data cache. Each static load
// PC trains an entry with its last address and stride; once the stride has
// been confirmed Confidence times, the prefetcher issues Degree prefetches
// ahead of the demand stream.
type StridePrefetcher struct {
	entries    []strideEntry
	mask       uint64
	degree     int
	confidence int8
	target     *Cache
	stats      PrefetchStats
}

type strideEntry struct {
	pc       uint64
	lastAddr uint64
	stride   int64
	conf     int8
	valid    bool
}

// PrefetchStats counts prefetcher events.
type PrefetchStats struct {
	Trains uint64 // table updates
	Issues uint64 // prefetches handed to the cache
	Resets uint64 // stride changes that reset confidence
}

// NewStridePrefetcher builds a prefetcher with a power-of-two table size
// feeding prefetches into target.
func NewStridePrefetcher(tableSize, degree int, confidence int8, target *Cache) *StridePrefetcher {
	if tableSize <= 0 || tableSize&(tableSize-1) != 0 {
		panic("cache: prefetcher table size must be a positive power of two")
	}
	return &StridePrefetcher{
		entries:    make([]strideEntry, tableSize),
		mask:       uint64(tableSize - 1),
		degree:     degree,
		confidence: confidence,
		target:     target,
	}
}

// Stats returns a copy of the prefetcher counters.
func (p *StridePrefetcher) Stats() PrefetchStats { return p.stats }

// Train observes a demand load from static pc to addr at cycle now and may
// issue prefetches.
func (p *StridePrefetcher) Train(pc uint64, addr uint64, now uint64) {
	p.stats.Trains++
	e := &p.entries[pc&p.mask]
	if !e.valid || e.pc != pc {
		*e = strideEntry{pc: pc, lastAddr: addr, valid: true}
		return
	}
	stride := int64(addr) - int64(e.lastAddr)
	e.lastAddr = addr
	if stride == 0 {
		return
	}
	if stride != e.stride {
		e.stride = stride
		e.conf = 0
		p.stats.Resets++
		return
	}
	if e.conf < p.confidence {
		e.conf++
		return
	}
	// For sub-line strides, only issue when the demand stream enters a new
	// line: the prefetch targets are line-granular, so issuing on every
	// access would just re-check resident lines.
	if stride > -LineSize && stride < LineSize && addr/LineSize == (addr-uint64(stride))/LineSize {
		return
	}
	// Confident: prefetch whole lines ahead of the stream. Small strides
	// advance line by line; large strides follow the stride itself.
	lineStride := stride
	if lineStride > 0 && lineStride < LineSize {
		lineStride = LineSize
	} else if lineStride < 0 && lineStride > -LineSize {
		lineStride = -LineSize
	}
	for i := 1; i <= p.degree; i++ {
		next := int64(addr) + lineStride*int64(i)
		if next <= 0 {
			break
		}
		p.stats.Issues++
		p.target.Prefetch(uint64(next), now)
	}
}
