package obs

import "repro/internal/isa"

// Timeline is one committed μop's stage timeline in cycles, rebuilt from
// the event stream.
type Timeline struct {
	Seq   uint64
	Label string // the decoded μop's disassembly, rendered at commit
	Port  int    // issue port, from the dispatch event

	Decode   uint64
	Dispatch uint64
	Ready    uint64 // operand-ready cycle, from the issue event
	Issue    uint64
	Complete uint64 // completion cycle, never before Issue
	Commit   uint64
}

// Assembler rebuilds committed μop timelines from the event stream — the
// one assembler behind ChromeSink's per-μop slices and pipetrace's Gantt
// and Kanata views. It is squash-aware: a squashed attempt is dropped, so
// a refetched μop reports its committed incarnation. A commit whose decode,
// dispatch or issue was never seen yields nothing. Labels are rendered
// only for the timelines it returns, so squashed μops are never formatted.
// The zero value is ready to use.
type Assembler struct {
	inflight map[uint64]*partialTimeline
}

// partialTimeline accumulates one in-flight sequence number's stage events
// until commit (returned) or squash (dropped and rebuilt on refetch).
type partialTimeline struct {
	t                  Timeline
	inst               *isa.DynInst // the decode event's trace entry
	dispatched, issued bool
}

// Add folds e into the in-flight timelines and, when e commits a complete
// one, returns it.
func (a *Assembler) Add(e *Event) (Timeline, bool) {
	switch e.Kind {
	case KindDecode:
		if a.inflight == nil {
			a.inflight = make(map[uint64]*partialTimeline, 256)
		}
		a.inflight[e.Seq] = &partialTimeline{t: Timeline{Seq: e.Seq, Decode: e.Cycle}, inst: e.Inst}
	case KindDispatch:
		if p := a.inflight[e.Seq]; p != nil {
			p.t.Dispatch, p.t.Port, p.dispatched = e.Cycle, int(e.Port), true
		}
	case KindIssue:
		if p := a.inflight[e.Seq]; p != nil {
			p.t.Issue, p.t.Ready, p.issued = e.Cycle, e.Arg, true
		}
	case KindExec:
		if p := a.inflight[e.Seq]; p != nil {
			p.t.Complete = e.Arg
		}
	case KindSquash:
		delete(a.inflight, e.Seq)
	case KindCommit:
		p := a.inflight[e.Seq]
		delete(a.inflight, e.Seq)
		if p != nil && p.dispatched && p.issued {
			p.t.Commit = e.Cycle
			p.t.Complete = max(p.t.Complete, p.t.Issue)
			p.t.Label = label(p.inst)
			return p.t, true
		}
	}
	return Timeline{}, false
}
