package container

// Seqer is the element constraint for Ring: entries expose the dynamic
// sequence number FlushFrom truncates by.
type Seqer interface {
	Seq() uint64
}

// maxSelectWindow bounds SelectWindow's examined prefix so the taken-set
// bitmap fits in a fixed stack array (no per-call allocation).
const maxSelectWindow = 512

// Ring is a fixed-capacity FIFO backed by a circular buffer. It is the
// storage behind the InO issue queue, the CES P-IQs, the CASINO cascade
// and Ballerino's S-IQ: Push/PopFront are O(1) with no allocation and no
// slice creep, and FlushFrom truncates the young tail in place exactly
// like the slice-based queues it replaces.
// Vacated slots are zeroed so recycled entries are never reachable through
// a stale queue slot.
type Ring[T Seqer] struct {
	buf  []T
	head int
	n    int
}

// Init sizes the ring. Pushing beyond capacity is a caller bug (queues
// check Full before Push, as the slice-based code checked cap).
func (r *Ring[T]) Init(capacity int) {
	r.buf = make([]T, capacity)
	r.head, r.n = 0, 0
}

// Len returns the number of buffered entries.
func (r *Ring[T]) Len() int { return r.n }

// Cap returns the ring capacity.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Empty reports whether the ring holds no entries.
func (r *Ring[T]) Empty() bool { return r.n == 0 }

// Full reports whether the ring is at capacity.
func (r *Ring[T]) Full() bool { return r.n >= len(r.buf) }

// slot maps a logical index (0 = head) to a buffer position. i must be
// within [0, cap], so one conditional replaces the modulo.
func (r *Ring[T]) slot(i int) int {
	if s := r.head + i; s < len(r.buf) {
		return s
	} else {
		return s - len(r.buf)
	}
}

// At returns the i-th entry from the head.
func (r *Ring[T]) At(i int) T { return r.buf[r.slot(i)] }

// Head returns the oldest entry.
func (r *Ring[T]) Head() T { return r.buf[r.head] }

// Push appends v at the tail.
func (r *Ring[T]) Push(v T) {
	if r.Full() {
		panic("container: push to full ring")
	}
	r.buf[r.slot(r.n)] = v
	r.n++
}

// PopFront removes and returns the oldest entry.
func (r *Ring[T]) PopFront() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return v
}

// FlushFrom drops every entry with seq ≥ bound. Entries are in program
// order within a queue, so this truncates a suffix.
func (r *Ring[T]) FlushFrom(bound uint64) {
	var zero T
	for i := 0; i < r.n; i++ {
		if r.At(i).Seq() >= bound {
			for j := i; j < r.n; j++ {
				r.buf[r.slot(j)] = zero
			}
			r.n = i
			return
		}
	}
}

// SelectOldest is the in-order select: entries are offered from the head;
// Take pops and moves to the new head, while Keep and Stop both end the
// walk — an in-order queue's head blocks everything younger.
func (r *Ring[T]) SelectOldest(visit func(T) Verdict) {
	for r.n > 0 {
		if visit(r.buf[r.head]) != Take {
			return
		}
		r.PopFront()
	}
}

// SelectWindow offers the oldest window entries to visit in age order —
// a speculative scheduling window examined at the head. Take removes the
// entry; Keep leaves it (the walk continues past it); Stop leaves it and
// ends the walk. Survivors keep their relative order, ending up adjacent
// to the unexamined region with the head advanced over the vacated slots —
// the in-place equivalent of the "append(keep, rest...)" compaction the
// slice-based windowed queues did. window is capped at Len and must not
// exceed maxSelectWindow.
func (r *Ring[T]) SelectWindow(window int, visit func(T) Verdict) {
	if window > r.n {
		window = r.n
	}
	if window <= 0 {
		return
	}
	if window > maxSelectWindow {
		panic("container: select window too wide")
	}
	var taken [maxSelectWindow / 64]uint64
	removed := 0
walk:
	for i := 0; i < window; i++ {
		switch visit(r.buf[r.slot(i)]) {
		case Take:
			taken[i>>6] |= 1 << (i & 63)
			removed++
		case Stop:
			break walk
		}
	}
	if removed == 0 {
		return
	}
	var zero T
	w := window - 1
	for i := window - 1; i >= 0; i-- {
		if taken[i>>6]&(1<<(i&63)) == 0 {
			if w != i {
				r.buf[r.slot(w)] = r.buf[r.slot(i)]
			}
			w--
		}
	}
	for i := 0; i <= w; i++ {
		r.buf[r.slot(i)] = zero
	}
	r.head = r.slot(w + 1)
	r.n -= w + 1
}
