package pipeline

import (
	"fmt"

	"repro/internal/mdp"
	"repro/internal/sched"
)

// StepEveryCycle makes p the reference stepper: it steps every cycle and
// never skips a quiet one.
func StepEveryCycle(p *Pipeline) { p.stepOnly = true }

// CheckWakeups holds p's select to its scoreboard and store queue. bad is
// called for a μop select skipped without a consult although both its
// register sources were ready and no predicted store held it (the store
// had left the SQ or was granted before this cycle), and for one it
// consulted while a source was not ready or its store still held it. A
// consulted μop's SrcReady must also be the cycle the scoreboard and the
// SQ give: the later of its sources' ready cycles and the cycle after its
// store's grant. The hooks replace top-down's, so attach none.
func CheckWakeups(p *Pipeline, bad func(u *sched.UOp, why string)) (skips, consults *uint64) {
	skips, consults = new(uint64), new(uint64)
	// granted holds each store's last grant cycle, for a μop whose store
	// has since committed and left the SQ.
	granted := map[uint64]uint64{}
	grant := p.issueCtx.Grant
	p.issueCtx.Grant = func(u *sched.UOp) {
		if u.D.IsStore() {
			granted[u.Seq()] = p.cycle
		}
		grant(u)
	}
	regsReady := func(u *sched.UOp) bool { return p.rn.FastReady(u.Src[0]) && p.rn.FastReady(u.Src[1]) }
	p.issueCtx.Waiting = func(u *sched.UOp) {
		*skips++
		if regsReady(u) && p.mdpResolved(u) {
			bad(u, "skipped with both register sources ready and no store holding it")
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
		return ready(u)
	}
	return skips, consults
}
