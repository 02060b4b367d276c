package core

import (
	"repro/internal/mdp"
	"repro/internal/sched"
)

// piq is one parallel in-order queue with the two operating modes of §IV-D:
//
//   - normal mode: a single circular FIFO over the whole buffer (one
//     head/tail pointer pair, parts[0] covering [0, cap));
//   - sharing mode: the buffer is split into two equal physical halves,
//     each an independent FIFO partition with its own head/tail pointers.
//
// Sharing activates only when the queue's occupied slots lie within one
// physical half (the "same half" pointer constraint), and — in the
// non-ideal design — only one partition's head is examined per cycle.
type piq struct {
	buf []*sched.UOp
	cap int
	// at and mdepPort mirror each buffered μop's SrcReady and, when it
	// has a predicted memory dependence, its issue port (else -1), so a
	// head that a producer wait holds stalls without its μop being read.
	// id is the queue's first UOp.Slot value: a μop at buffer position i
	// has Slot id+i.
	at       []uint64
	mdepPort []int8
	id       int
	// names are the partitions' queue-snapshot names.
	names [2]string

	// scratch backs the ideal-sharing compaction (≤ cap/2 entries move),
	// so activating sharing never allocates.
	scratch []*sched.UOp

	sharing bool
	parts   [2]part

	active     int  // partition whose head is examined (sharing mode)
	lastIssued bool // whether any head issued last cycle
	// switchHead records endCyclePolicy's decision to hand the head to
	// the other partition; tick applies it once per cycle.
	switchHead bool
}

// part is one FIFO partition over buf[base : base+size).
type part struct {
	base, size  int
	head, count int // head is an offset within the region
}

func (q *piq) init(capacity int) {
	if capacity < 2 || capacity%2 != 0 {
		panic("core: P-IQ depth must be an even number ≥ 2")
	}
	q.buf = make([]*sched.UOp, capacity)
	q.at = make([]uint64, capacity)
	q.mdepPort = make([]int8, capacity)
	q.cap = capacity
	q.scratch = make([]*sched.UOp, capacity/2)
	q.reset()
}

// reset returns to empty normal mode.
func (q *piq) reset() {
	q.sharing = false
	q.parts[0] = part{base: 0, size: q.cap}
	q.parts[1] = part{}
	q.active = 0
	q.lastIssued = false
	q.switchHead = false
}

func (q *piq) len() int { return q.parts[0].count + q.parts[1].count }

// slot maps the partition's i-th entry (0 = head, i < size) to a buffer
// position; one conditional replaces the modulo.
func (p *part) slot(i int) int {
	s := p.head + i
	if s >= p.size {
		s -= p.size
	}
	return p.base + s
}

// canAppend reports whether partition part can accept one more μop.
func (q *piq) canAppend(partIdx int) bool {
	if !q.sharing && partIdx != 0 {
		return false
	}
	p := &q.parts[partIdx]
	return p.size > 0 && p.count < p.size
}

// append pushes u at the tail of the given partition.
func (q *piq) append(partIdx int, u *sched.UOp) {
	if !q.canAppend(partIdx) {
		panic("core: append to full P-IQ partition")
	}
	p := &q.parts[partIdx]
	q.put(p.slot(p.count), u)
	p.count++
}

// put stores u at buffer position i with its mirrored fields.
func (q *piq) put(i int, u *sched.UOp) {
	q.buf[i], q.at[i], q.mdepPort[i] = u, u.SrcReady, -1
	if u.MDPWait != mdp.NoStore {
		q.mdepPort[i] = int8(u.Port)
	}
	u.Slot = q.id + i
}

// headOf returns the μop at the head of partition part (test convenience).
func (q *piq) headOf(partIdx int) *sched.UOp {
	p := &q.parts[partIdx]
	return q.buf[p.slot(0)]
}

// popHead removes the head of partition part. Collapsing a drained
// partition is deferred to endCycle so that callers iterating over the
// partitions within one cycle see a stable layout.
func (q *piq) popHead(partIdx int) {
	p := &q.parts[partIdx]
	q.buf[p.slot(0)] = nil
	if p.head++; p.head == p.size {
		p.head = 0
	}
	p.count--
}

// activeHeadsInto fills dst with the partitions whose heads are examined
// this cycle — the single FIFO head in normal mode, the active partition in
// sharing mode, or every non-empty partition in the ideal design — and
// returns how many, without allocating.
func (q *piq) activeHeadsInto(ideal bool, dst *[2]int) int {
	if q.len() == 0 {
		return 0
	}
	if !q.sharing {
		dst[0] = 0
		return 1
	}
	if ideal {
		n := 0
		for i := range q.parts {
			if q.parts[i].count > 0 {
				dst[n] = i
				n++
			}
		}
		return n
	}
	if q.parts[q.active].count == 0 {
		q.active = 1 - q.active
	}
	dst[0] = q.active
	return 1
}

// dataWait returns the first cycle one of the partition heads can be
// ready when a producer wait (register or predicted store) holds every
// non-empty partition's head, else 0; until then, a queue examined one
// head per cycle stalls in every cycle. port holds each partition's
// mdepPort at its head (-1 for an empty partition).
func (q *piq) dataWait(now uint64) (until uint64, port [2]int8) {
	port = [2]int8{-1, -1}
	for pi := range q.parts {
		p := &q.parts[pi]
		if p.count == 0 {
			continue
		}
		pos := p.slot(0)
		if q.at[pos] <= now {
			return 0, port
		}
		if until == 0 || q.at[pos] < until {
			until = q.at[pos]
		}
		port[pi] = q.mdepPort[pos]
	}
	return until, port
}

// activeHeads is activeHeadsInto as a slice (test convenience).
func (q *piq) activeHeads(ideal bool) []int {
	var hs [2]int
	n := q.activeHeadsInto(ideal, &hs)
	if n == 0 {
		return nil
	}
	return append([]int(nil), hs[:n]...)
}

// endCycle closes one cycle under the §IV-D head-pointer policy (test
// convenience: endCyclePolicy then tick).
func (q *piq) endCycle(issued bool) {
	q.endCyclePolicy(issued, false)
	q.tick(1)
}

// endCyclePolicy applies the §IV-D head-pointer policy once this cycle's
// heads were examined: keep the active head after an issue (back-to-back
// single-cycle chains), otherwise give the other dependence chain its
// opportunity. forceSwitch (ablation) alternates unconditionally. The
// switch itself waits for tick; nothing before it reads the active head.
func (q *piq) endCyclePolicy(issued, forceSwitch bool) {
	q.lastIssued = issued
	q.switchHead = false
	if !q.sharing {
		return
	}
	q.maybeCollapse()
	if !q.sharing {
		return
	}
	q.switchHead = (forceSwitch || !issued) && q.parts[1-q.active].count > 0
}

// tick closes n cycles of the head policy. In a quiet stretch the decision
// repeats every cycle, so the head alternates n times.
func (q *piq) tick(n uint64) {
	if q.switchHead && n&1 == 1 {
		q.active = 1 - q.active
	}
	q.switchHead = false
}

// shareable reports whether the normal-mode queue satisfies the same-half
// pointer constraint: occupied slots all within one physical half.
func (q *piq) shareable() bool {
	if q.sharing {
		return false
	}
	p := &q.parts[0]
	if p.count == 0 || p.count > q.cap/2 {
		return false
	}
	half := q.cap / 2
	first := p.slot(0)
	last := p.slot(p.count - 1)
	return first/half == last/half && first <= last
}

// canShare reports whether activateSharing would open a partition.
func (q *piq) canShare(ideal bool) bool {
	if q.sharing {
		return q.parts[0].count == 0 || q.parts[1].count == 0
	}
	return q.shareable() || ideal && q.parts[0].count <= q.cap/2
}

// activateSharing tries to open a partition for a new dependence chain.
// It returns the partition index to append into. In sharing mode an
// already-drained partition is reused directly.
func (q *piq) activateSharing(ideal bool) (int, bool) {
	if q.sharing {
		for i := range q.parts {
			if q.parts[i].count == 0 {
				return i, true
			}
		}
		return 0, false
	}
	half := q.cap / 2
	p := &q.parts[0]
	switch {
	case q.shareable():
		occupiedHalf := p.slot(0) / half
		q.sharing = true
		q.parts[0] = part{base: occupiedHalf * half, size: half, head: p.slot(0) - occupiedHalf*half, count: p.count}
		q.parts[1] = part{base: (1 - occupiedHalf) * half, size: half}
		q.active = 0
		return 1, true
	case ideal && p.count <= half:
		// Ideal design: compact the contents into the first half,
		// ignoring pointer locations.
		n := p.count
		tmp := q.scratch[:n]
		for i := 0; i < n; i++ {
			tmp[i] = q.buf[p.slot(i)]
		}
		for i := range q.buf {
			q.buf[i] = nil
		}
		for i, u := range tmp {
			q.put(i, u)
			tmp[i] = nil
		}
		q.sharing = true
		q.parts[0] = part{base: 0, size: half, count: n}
		q.parts[1] = part{base: half, size: half}
		q.active = 0
		return 1, true
	default:
		return 0, false
	}
}

// maybeCollapse reverts to normal mode when sharing is no longer needed:
// both partitions empty, or one empty while the survivor's contents are
// contiguous (so a single full-buffer FIFO can take over).
func (q *piq) maybeCollapse() {
	if !q.sharing {
		return
	}
	c0, c1 := q.parts[0].count, q.parts[1].count
	if c0 == 0 && c1 == 0 {
		q.reset()
		return
	}
	if c0 != 0 && c1 != 0 {
		return
	}
	survivor := 0
	if c0 == 0 {
		survivor = 1
	}
	p := &q.parts[survivor]
	if p.head+p.count > p.size {
		return // wrapped within its region; cannot express in normal mode yet
	}
	abs := p.base + p.head
	count := p.count
	q.sharing = false
	q.parts[0] = part{base: 0, size: q.cap, head: abs, count: count}
	q.parts[1] = part{}
	q.active = 0
}

// partSeqs appends partition partIdx's μop sequence numbers in head-first
// order (used by the invariant auditor and the deadlock autopsy).
func (q *piq) partSeqs(partIdx int, dst []uint64) []uint64 {
	p := &q.parts[partIdx]
	for i := 0; i < p.count; i++ {
		dst = append(dst, q.buf[p.slot(i)].Seq())
	}
	return dst
}

// flushFrom drops all μops with seq ≥ bound from both partitions (each
// partition holds μops in program order, so this truncates suffixes).
func (q *piq) flushFrom(bound uint64) {
	for pi := range q.parts {
		p := &q.parts[pi]
		for i := 0; i < p.count; i++ {
			if q.buf[p.slot(i)].Seq() >= bound {
				for j := i; j < p.count; j++ {
					q.buf[p.slot(j)] = nil
				}
				p.count = i
				break
			}
		}
	}
	if q.sharing {
		q.maybeCollapse()
	}
}
