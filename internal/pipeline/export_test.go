package pipeline

import (
	"fmt"

	"repro/internal/mdp"
	"repro/internal/sched"
)

// StepEveryCycle makes p the reference stepper: it steps every cycle and
// never skips a quiet one.
func StepEveryCycle(p *Pipeline) { p.stepOnly = true }

// CheckWakeups holds p's select to its scoreboard and store queue, and
// accounts for every μop select passes over. bad is called for a μop
// consulted while a register source was not ready or its predicted store
// still held it (the store had not issued, or was granted this cycle),
// and for a passed-over μop that nothing holds back: one whose SrcReady
// has not come must have a register source not ready or a store holding
// it, and one whose SrcReady has come must follow a grant on its port
// earlier in the same cycle or a refused consult. A consulted μop's
// SrcReady must also be the cycle the scoreboard and the SQ give: the
// later of its sources' ready cycles and the cycle after its store's
// grant. The hooks replace top-down's, so attach none. skips counts the
// passed-over μops a producer wait holds.
func CheckWakeups(p *Pipeline, bad func(u *sched.UOp, why string)) (skips, consults *uint64) {
	skips, consults = new(uint64), new(uint64)
	// granted holds each store's last grant cycle, for a μop whose store
	// has since committed and left the SQ; portGrant each port's last
	// grant cycle plus one; refused the μop whose consult was refused
	// last, until its report.
	granted := map[uint64]uint64{}
	portGrant := make([]uint64, len(p.portInflight))
	var refused *sched.UOp
	grant := p.issueCtx.Grant
	p.issueCtx.Grant = func(u *sched.UOp) {
		if u.D.IsStore() {
			granted[u.Seq()] = p.cycle
		}
		portGrant[u.Port] = p.cycle + 1
		grant(u)
	}
	regsReady := func(u *sched.UOp) bool { return p.rn.Ready(u.Src[0], p.cycle) && p.rn.Ready(u.Src[1], p.cycle) }
	p.issueCtx.Blocked = func(u *sched.UOp) {
		wasRefused := refused == u
		refused = nil
		switch {
		case u.SrcReady > p.cycle:
			*skips++
			if regsReady(u) && p.mdpResolved(u) {
				bad(u, "passed over with both register sources ready and no store holding it")
			}
		case !wasRefused && portGrant[u.Port] != p.cycle+1:
			bad(u, fmt.Sprintf("passed over with SrcReady %d, port %d free and no refused consult", u.SrcReady, u.Port))
		}
	}
	ready := p.issueCtx.Ready
	p.issueCtx.Ready = func(u *sched.UOp) bool {
		*consults++
		switch {
		case !regsReady(u):
			bad(u, "consulted with a register source not ready")
		case !p.mdpResolved(u):
			bad(u, fmt.Sprintf("consulted while store #%d held it", u.MDPWait))
		}
		want := max(p.rn.ReadyAt(u.Src[0]), p.rn.ReadyAt(u.Src[1]))
		if u.MDPWait != mdp.NoStore {
			if st := p.lsq.StoreBySeq(u.MDPWait); st != nil {
				want = max(want, st.IssueCycle+1)
			} else if g, ok := granted[u.MDPWait]; ok {
				want = max(want, g+1)
			}
		}
		// A store that committed before u dispatched no longer holds it,
		// so a ready cycle up to u's dispatch reads as its dispatch.
		if max(u.SrcReady, u.DispatchCycle) != max(want, u.DispatchCycle) {
			bad(u, fmt.Sprintf("consulted with SrcReady %d, scoreboard and SQ %d", u.SrcReady, want))
		}
		ok := ready(u)
		if refused = nil; !ok {
			refused = u
		}
		return ok
	}
	return skips, consults
}

// mdpResolved reports whether u's predicted store no longer holds it:
// memReady has come.
func (p *Pipeline) mdpResolved(u *sched.UOp) bool {
	ready, _ := p.memReady(u)
	return ready <= p.cycle
}
