package pipeline

import (
	"fmt"

	"repro/internal/sched"
)

// StepEveryCycle makes p the reference stepper: it steps every cycle and
// never skips a quiet one.
func StepEveryCycle(p *Pipeline) { p.stepOnly = true }

// CheckWakeups holds p's select to its scoreboard: bad is called for a μop
// select skipped without a consult although both its register sources
// were ready, and for one it consulted whose SrcReady differs from the
// scoreboard's. The hooks replace top-down's, so attach none.
func CheckWakeups(p *Pipeline, bad func(u *sched.UOp, why string)) (skips, consults *uint64) {
	skips, consults = new(uint64), new(uint64)
	p.issueCtx.Waiting = func(u *sched.UOp) {
		*skips++
		if p.rn.FastReady(u.Src[0]) && p.rn.FastReady(u.Src[1]) {
			bad(u, "skipped with both register sources ready")
		}
	}
	ready := p.issueCtx.Ready
	p.issueCtx.Ready = func(u *sched.UOp) bool {
		*consults++
		if u.SrcReady != p.srcReady(u) {
			bad(u, fmt.Sprintf("consulted with SrcReady %d, scoreboard %d", u.SrcReady, p.srcReady(u)))
		}
		return ready(u)
	}
	return skips, consults
}
