// Package lsq implements the load queue / store queue pair: in-flight
// memory-operation tracking, store-to-load forwarding lookup, and memory
// order violation detection (§II-A). Entries are kept in program order;
// loads stay until commit, stores until their commit-time cache write.
package lsq

import (
	"fmt"

	"repro/internal/sched"
)

// Queues is the LQ/SQ pair with Table I capacities.
type Queues struct {
	lq, sq []*sched.UOp
	lqCap  int
	sqCap  int
}

// New returns empty queues with the given capacities.
func New(lqCap, sqCap int) (*Queues, error) {
	if lqCap <= 0 || sqCap <= 0 {
		return nil, fmt.Errorf("lsq: capacities must be positive (LQ %d, SQ %d)", lqCap, sqCap)
	}
	return &Queues{
		lq:    make([]*sched.UOp, 0, lqCap),
		sq:    make([]*sched.UOp, 0, sqCap),
		lqCap: lqCap,
		sqCap: sqCap,
	}, nil
}

// Counts returns the current (load, store) occupancies.
func (q *Queues) Counts() (int, int) { return len(q.lq), len(q.sq) }

// Caps returns the (load, store) queue capacities.
func (q *Queues) Caps() (int, int) { return q.lqCap, q.sqCap }

// Loads returns the in-flight loads in program order. The slice is the
// queue's backing storage: callers must treat it as read-only.
func (q *Queues) Loads() []*sched.UOp { return q.lq }

// Stores returns the in-flight stores in program order. The slice is the
// queue's backing storage: callers must treat it as read-only.
func (q *Queues) Stores() []*sched.UOp { return q.sq }

// YoungestUnissuedStore returns the youngest in-flight store that has not
// issued yet, or nil. The fault injector uses it to fabricate adversarial
// (but deadlock-free) memory dependence waits: the target is always
// strictly older than the μop being dispatched.
func (q *Queues) YoungestUnissuedStore() *sched.UOp {
	for i := len(q.sq) - 1; i >= 0; i-- {
		if !q.sq[i].Issued {
			return q.sq[i]
		}
	}
	return nil
}

// CanAccept reports whether u (if a memory operation) has a queue slot.
func (q *Queues) CanAccept(u *sched.UOp) bool {
	switch {
	case u.D.IsLoad():
		return len(q.lq) < q.lqCap
	case u.D.IsStore():
		return len(q.sq) < q.sqCap
	default:
		return true
	}
}

// Insert appends u to its queue at dispatch. Entries must arrive in
// program order (the dispatcher guarantees it). Non-memory μops are
// ignored.
func (q *Queues) Insert(u *sched.UOp) {
	switch {
	case u.D.IsLoad():
		q.lq = append(q.lq, u)
	case u.D.IsStore():
		q.sq = append(q.sq, u)
	}
}

// Remove deletes u from its queue (commit or squash).
func (q *Queues) Remove(u *sched.UOp) {
	switch {
	case u.D.IsLoad():
		q.lq = remove(q.lq, u)
	case u.D.IsStore():
		q.sq = remove(q.sq, u)
	}
}

func remove(s []*sched.UOp, u *sched.UOp) []*sched.UOp {
	for i, x := range s {
		if x == u {
			copy(s[i:], s[i+1:])
			s[len(s)-1] = nil
			return s[:len(s)-1]
		}
	}
	return s
}

// StoreBySeq returns the in-flight store with the given sequence number,
// or nil if it has left the queue (committed or squashed). The SQ is in
// program order (ascending seq), so this is a binary search. The pipeline
// looks an M-dependent μop's predicted store up when it dispatches (and
// when a register producer wakes it), not on every cycle it waits.
func (q *Queues) StoreBySeq(seq uint64) *sched.UOp {
	lo, hi := 0, len(q.sq)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if q.sq[mid].Seq() < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(q.sq) && q.sq[lo].Seq() == seq {
		return q.sq[lo]
	}
	return nil
}

// ForwardingStore returns the youngest store older than the load that
// targets the same word and whose address/data resolve no later than
// readAt — the store-to-load forwarding source — or nil.
func (q *Queues) ForwardingStore(ld *sched.UOp, readAt uint64) *sched.UOp {
	var fwd *sched.UOp
	for _, st := range q.sq {
		if st.Seq() < ld.Seq() && st.Issued && st.CompleteCycle <= readAt && st.D.Addr == ld.D.Addr {
			if fwd == nil || st.Seq() > fwd.Seq() {
				fwd = st
			}
		}
	}
	return fwd
}

// ViolatingLoad returns the OLDEST load younger than st that read the same
// word before st's address resolved (st.CompleteCycle) — the memory order
// violation victim — or nil. A load's memory read happens one cycle after
// its issue (AGU).
func (q *Queues) ViolatingLoad(st *sched.UOp) *sched.UOp {
	var victim *sched.UOp
	for _, ld := range q.lq {
		if ld.Seq() > st.Seq() && ld.Issued && ld.D.Addr == st.D.Addr &&
			ld.IssueCycle+1 < st.CompleteCycle {
			if victim == nil || ld.Seq() < victim.Seq() {
				victim = ld
			}
		}
	}
	return victim
}
