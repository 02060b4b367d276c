package check

import (
	"fmt"
	"strings"

	"repro/internal/mdp"
	"repro/internal/rename"
	"repro/internal/sched"
)

// UOpState is the autopsy's snapshot of one interesting in-flight μop.
type UOpState struct {
	Seq           uint64
	Desc          string // disassembly of the dynamic μop
	Class         string // Ld / LdC / Rst
	Port          int
	Issued        bool
	DispatchCycle uint64
	IssueCycle    uint64
	CompleteCycle uint64
	// SrcReady renders each renamed source's readiness ("p12@ready",
	// "p9@cycle+40", "p3@never", "-").
	SrcReady [2]string
	// MDPWait is the store sequence number the μop waits for (mdp.NoStore
	// if none); MDPBlockedSince is the cycle the wait was filed on that
	// store, the μop's dispatch (0 if the store had issued or left the SQ
	// by then).
	MDPWait         uint64
	MDPBlockedSince uint64
}

// MDPWaitState records one outstanding cross-queue memory dependence wait.
type MDPWaitState struct {
	LoadSeq      uint64
	StoreSeq     uint64
	BlockedSince uint64 // the cycle the wait was filed; 0 = never filed
	StoreInROB   bool
}

// QueueState summarises one scheduler queue for the autopsy.
type QueueState struct {
	Name      string
	Occupancy int
	Cap       int
	HeadSeq   uint64 // meaningful only when Occupancy > 0
}

// Autopsy is a structured snapshot of the machine state at the moment a
// simulation stopped making progress (or broke an invariant). It renders
// into the multi-line diagnostic the ballsim CLI prints.
type Autopsy struct {
	Cycle uint64

	Fetched   uint64
	Committed uint64
	Squashed  uint64

	FetchIndex int
	TraceLen   int

	ROBLen       int
	DecodeDepth  int
	LQLen, LQCap int
	SQLen, SQCap int

	SchedulerName string
	SchedulerOcc  int
	SchedulerCap  int

	// Head is the head-of-ROB μop (nil when the ROB is empty) — the μop
	// whose failure to issue wedges everything behind it.
	Head *UOpState
	// OldestUnissued is the oldest μop still waiting to issue, with its
	// age since dispatch (it is the Head when the head has not issued).
	OldestUnissued    *UOpState
	OldestUnissuedAge uint64

	// Queues lists every scheduler queue (occupancy and head), when the
	// scheduler supports introspection.
	Queues []QueueState

	// MDPWaits lists in-flight loads and stores still blocked on a
	// predicted memory dependence — the cross-queue wait chains that
	// clustered in-order schedulers can wedge on.
	MDPWaits []MDPWaitState
}

// describe renders one μop's autopsy state.
func describe(u *sched.UOp, rn *rename.Renamer, cycle uint64) *UOpState {
	st := &UOpState{
		Seq:             u.Seq(),
		Desc:            u.D.String(),
		Class:           u.Cls.String(),
		Port:            u.Port,
		Issued:          u.Issued,
		DispatchCycle:   u.DispatchCycle,
		IssueCycle:      u.IssueCycle,
		CompleteCycle:   u.CompleteCycle,
		MDPWait:         u.MDPWait,
		MDPBlockedSince: u.MDPBlockedSince,
	}
	for i, src := range u.Src {
		switch at := rn.ReadyAt(src); {
		case src == rename.PhysNone:
			st.SrcReady[i] = "-"
		case at == rename.NeverReady:
			st.SrcReady[i] = fmt.Sprintf("p%d@never", src)
		case at <= cycle:
			st.SrcReady[i] = fmt.Sprintf("p%d@ready", src)
		default:
			st.SrcReady[i] = fmt.Sprintf("p%d@cycle+%d", src, at-cycle)
		}
	}
	return st
}

func (u *UOpState) String() string {
	state := "waiting"
	if u.Issued {
		state = fmt.Sprintf("issued@%d complete@%d", u.IssueCycle, u.CompleteCycle)
	}
	s := fmt.Sprintf("%s cls=%s port=%d dispatched@%d %s src=[%s %s]",
		u.Desc, u.Class, u.Port, u.DispatchCycle, state, u.SrcReady[0], u.SrcReady[1])
	if u.MDPWait != mdp.NoStore {
		s += fmt.Sprintf(" mdp-wait=store#%d", u.MDPWait)
		if u.MDPBlockedSince > 0 {
			s += fmt.Sprintf("(blocked since %d)", u.MDPBlockedSince)
		}
	}
	return s
}

// Collect snapshots the machine state for a deadlock autopsy.
func Collect(s Source) *Autopsy {
	cycle := s.Cycle()
	rn := s.Renamer()
	a := &Autopsy{
		Cycle:         cycle,
		FetchIndex:    s.FetchIndex(),
		TraceLen:      s.TraceLen(),
		ROBLen:        s.ROBLen(),
		DecodeDepth:   s.DecodeDepth(),
		SchedulerName: s.Scheduler().Name(),
		SchedulerOcc:  s.Scheduler().Occupancy(),
		SchedulerCap:  s.Scheduler().Capacity(),
	}
	a.Fetched, a.Committed, a.Squashed = s.Totals()
	a.LQLen, a.SQLen = s.LSQ().Counts()
	a.LQCap, a.SQCap = s.LSQ().Caps()

	if a.ROBLen > 0 {
		a.Head = describe(s.ROBEntry(0), rn, cycle)
	}
	for i := 0; i < a.ROBLen; i++ {
		if u := s.ROBEntry(i); !u.Issued {
			a.OldestUnissued = describe(u, rn, cycle)
			a.OldestUnissuedAge = cycle - u.DispatchCycle
			break
		}
	}

	for _, q := range s.Scheduler().Queues(nil) {
		qs := QueueState{Name: q.Name, Occupancy: len(q.Seqs), Cap: q.Cap}
		if len(q.Seqs) > 0 {
			qs.HeadSeq = q.Seqs[0]
		}
		a.Queues = append(a.Queues, qs)
	}

	// Outstanding memory dependence waits among in-flight memory μops.
	stores := make(map[uint64]bool, len(s.LSQ().Stores()))
	for _, st := range s.LSQ().Stores() {
		stores[st.Seq()] = true
	}
	for _, q := range [][]*sched.UOp{s.LSQ().Loads(), s.LSQ().Stores()} {
		for _, u := range q {
			if u.Issued || u.MDPWait == mdp.NoStore {
				continue
			}
			a.MDPWaits = append(a.MDPWaits, MDPWaitState{
				LoadSeq:      u.Seq(),
				StoreSeq:     u.MDPWait,
				BlockedSince: u.MDPBlockedSince,
				StoreInROB:   stores[u.MDPWait],
			})
		}
	}
	return a
}

// String renders the autopsy as the multi-line report ballsim prints.
func (a *Autopsy) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "deadlock autopsy @ cycle %d\n", a.Cycle)
	fmt.Fprintf(&b, "  progress: fetched=%d committed=%d squashed=%d fetchIdx=%d/%d\n",
		a.Fetched, a.Committed, a.Squashed, a.FetchIndex, a.TraceLen)
	fmt.Fprintf(&b, "  occupancy: rob=%d decodeQ=%d lq=%d/%d sq=%d/%d sched[%s]=%d/%d\n",
		a.ROBLen, a.DecodeDepth, a.LQLen, a.LQCap, a.SQLen, a.SQCap,
		a.SchedulerName, a.SchedulerOcc, a.SchedulerCap)
	if a.Head != nil {
		fmt.Fprintf(&b, "  rob head: %s\n", a.Head)
	} else {
		fmt.Fprintf(&b, "  rob head: <empty>\n")
	}
	if a.OldestUnissued != nil {
		fmt.Fprintf(&b, "  oldest unissued (age %d): %s\n", a.OldestUnissuedAge, a.OldestUnissued)
	}
	for _, q := range a.Queues {
		if q.Occupancy == 0 {
			fmt.Fprintf(&b, "  queue %-8s empty (cap %d)\n", q.Name, q.Cap)
			continue
		}
		fmt.Fprintf(&b, "  queue %-8s %d/%d head=#%d\n", q.Name, q.Occupancy, q.Cap, q.HeadSeq)
	}
	for _, w := range a.MDPWaits {
		loc := "left the SQ"
		if w.StoreInROB {
			loc = "still in the SQ"
		}
		fmt.Fprintf(&b, "  mdp wait: #%d → store#%d (%s, blocked since %d)\n",
			w.LoadSeq, w.StoreSeq, loc, w.BlockedSince)
	}
	return strings.TrimRight(b.String(), "\n")
}
