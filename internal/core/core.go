// Package core implements Ballerino, the paper's contribution: balanced and
// cache-miss-tolerable dynamic scheduling via cascaded and clustered
// in-order issue queues (§III, §IV).
//
// The scheduler is a speculative in-order queue (S-IQ) in front of a
// cluster of parallel in-order queues (P-IQs). Each cycle the S-IQ examines
// a speculative scheduling window at its head: ready μops issue
// immediately; non-ready μops are steered to the P-IQs along their M/R-
// dependences. Two techniques extend the effective P-IQ count:
//
//   - M-dependence-aware steering (§III-B): a load predicted dependent on
//     an in-flight store is steered into the producer store's P-IQ,
//     following the LFST's producer-location extension.
//   - P-IQ sharing (§III-C, §IV-D): when no empty P-IQ exists, a P-IQ whose
//     head and tail pointers sit in the same physical half is split into
//     two FIFO partitions, each holding a distinct dependence chain, with
//     one active head per cycle.
package core

import (
	"fmt"
	"math/bits"

	"repro/internal/container"
	"repro/internal/isa"
	"repro/internal/mdp"
	"repro/internal/rename"
	"repro/internal/sched"
)

// Options selects which Ballerino techniques are active, enabling the
// step-by-step variants of Figure 13.
type Options struct {
	// MDASteering enables M-dependence-aware steering (Step 2).
	MDASteering bool
	// Sharing enables P-IQ sharing mode (Step 3).
	Sharing bool
	// IdealSharing removes the implementation constraints of §IV-D:
	// sharing activates regardless of pointer locations and both
	// partition heads may issue in the same cycle.
	IdealSharing bool

	// Ablation knobs (not part of the paper's design; used by the
	// ablation harness to quantify the design choices).

	// SIQFirstSelect inverts §IV-E's select priority: the S-IQ window's
	// requests occupy the upper prefix-sum inputs instead of the P-IQ
	// heads, so younger speculative μops beat older dependence heads.
	SIQFirstSelect bool
	// AlwaysSwitchHead replaces §IV-D's keep-on-issue pointer policy
	// with unconditional alternation between partitions.
	AlwaysSwitchHead bool
}

// Config sizes the scheduler. Table II 8-wide: 8-entry S-IQ examined 4 wide,
// 7 × 12-entry P-IQs; Ballerino-12 uses 11 P-IQs.
type Config struct {
	SIQSize   int
	SIQWindow int // μops examined per cycle (= rename width)
	NumPIQs   int
	PIQDepth  int
	Width     int // issue width (number of ports)
	Options   Options
}

// Validate reports configuration errors: the geometry the sharing-mode
// pointer scheme requires (an even P-IQ depth splittable into two halves)
// and positive queue counts and window sizes.
func (c Config) Validate() error {
	if c.SIQSize <= 0 {
		return fmt.Errorf("core: SIQSize %d must be positive", c.SIQSize)
	}
	if c.SIQWindow <= 0 {
		return fmt.Errorf("core: SIQWindow %d must be positive", c.SIQWindow)
	}
	if c.NumPIQs <= 0 {
		return fmt.Errorf("core: NumPIQs %d must be positive", c.NumPIQs)
	}
	if c.PIQDepth < 2 || c.PIQDepth%2 != 0 {
		return fmt.Errorf("core: PIQDepth %d must be an even number ≥ 2 (sharing mode splits a queue into equal halves)", c.PIQDepth)
	}
	if c.Width <= 0 {
		return fmt.Errorf("core: Width %d must be positive", c.Width)
	}
	return nil
}

// Ballerino implements sched.Scheduler.
type Ballerino struct {
	cfg Config
	rn  *rename.Renamer
	mdp *mdp.MDP

	siq  container.Ring[*sched.UOp]
	piqs []piq
	// idle[i] parks P-IQ i while every head it can examine waits on data.
	idle []parked

	events sched.EnergyEvents
	ports  sched.PortMask

	// probe, when non-nil, reports steering/sharing events to the
	// observability layer.
	probe sched.Probe

	// Counters for Figures 6a, 13, 14.
	issuedSIQ   uint64
	issuedPIQ   uint64
	steerM      uint64
	steerDC     uint64
	allocEmpty  uint64
	allocShared uint64
	steerStalls uint64 // cycles the S-IQ head blocked on steering
	shareActs   uint64 // sharing-mode activations

	headIssue    uint64
	headStallM   uint64
	headStallDep uint64
	headEmpty    uint64

	// cur holds this cycle's per-cycle charges for Tick, prev the last
	// cycle's: a shared P-IQ alternates its examined head, so quiet
	// cycles repeat the two in turn. switching holds the P-IQs that hand
	// their head to the other partition; moved records a steered μop.
	cur, prev stalls
	switching piqSet
	moved     bool

	// free and share are the P-IQs steering can open for a new dependence
	// chain: the empty ones, and those activateSharing would split or
	// reuse a partition of (unless ideal, only those whose head did not
	// issue last cycle). refresh keeps a queue's bits current wherever its
	// contents, mode or last-cycle issue flag change.
	free, share piqSet
}

// piqSet is a set of P-IQ indices, one bit each.
type piqSet []uint64

func newPIQSet(n int) piqSet { return make(piqSet, (n+63)/64) }

// put adds i to s when in is true, else removes it.
func (s piqSet) put(i int, in bool) {
	if in {
		s[i>>6] |= 1 << (i & 63)
	} else {
		s[i>>6] &^= 1 << (i & 63)
	}
}

// first returns the lowest index in s, or -1 when s is empty.
func (s piqSet) first() int {
	for w, word := range s {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// parked is a P-IQ's parking: until is when one of its heads can next be
// ready (piq.dataWait), 0 when the queue is not parked. Until then the
// queue stalls every cycle, handing its head to the other partition when
// switches, and select tallies its active head without reading the queue
// as waitingHead would: a stall on data unless mdep records that a head
// has a predicted memory dependence, and then by port[k], partition k's
// mdepPort at its head. A new head in the queue, a flush or a ready cycle
// filled in for one of its μops unparks it.
type parked struct {
	until          uint64
	switches, mdep bool
	port           [2]int8
}

// stalls tallies one cycle's examinations that did not issue: P-IQs found
// empty, P-IQ heads held by a predicted M-dependence, P-IQ heads waiting
// on data or on a port granted to another head, and an S-IQ window
// stalled on steering.
type stalls struct {
	empty, mdep, dep uint64
	steer            bool
}

// New builds a Ballerino scheduler over the shared P-SCB (renamer) and MDP.
// The configuration must already satisfy Validate; config.NewMachine checks
// it before constructing the scheduler factory, so the panic below is an
// internal assertion, not a user-reachable error path.
func New(cfg Config, rn *rename.Renamer, m *mdp.MDP) *Ballerino {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	b := &Ballerino{cfg: cfg, rn: rn, mdp: m, piqs: make([]piq, cfg.NumPIQs),
		idle: make([]parked, cfg.NumPIQs), switching: newPIQSet(cfg.NumPIQs),
		free: newPIQSet(cfg.NumPIQs), share: newPIQSet(cfg.NumPIQs)}
	b.siq.Init(cfg.SIQSize)
	for i := range b.piqs {
		b.piqs[i].init(cfg.PIQDepth)
		b.piqs[i].id = i * cfg.PIQDepth
		b.piqs[i].names = [2]string{fmt.Sprintf("P-IQ%d.0", i), fmt.Sprintf("P-IQ%d.1", i)}
		b.refresh(i)
	}
	return b
}

// refresh recomputes P-IQ i's steering bits (see free and share).
func (b *Ballerino) refresh(i int) {
	q, o := &b.piqs[i], &b.cfg.Options
	b.free.put(i, q.len() == 0)
	b.share.put(i, (o.Sharing || o.IdealSharing) && (o.IdealSharing || !q.lastIssued) && q.canShare(o.IdealSharing))
}

// Name implements sched.Scheduler.
func (b *Ballerino) Name() string {
	switch {
	case b.cfg.Options.IdealSharing:
		return "Ballerino-ideal"
	case b.cfg.Options.Sharing:
		return "Ballerino"
	case b.cfg.Options.MDASteering:
		return "Ballerino-step2"
	default:
		return "Ballerino-step1"
	}
}

// Capacity implements sched.Scheduler.
func (b *Ballerino) Capacity() int {
	return b.cfg.SIQSize + b.cfg.NumPIQs*b.cfg.PIQDepth
}

// SetProbe implements sched.Probed.
func (b *Ballerino) SetProbe(p sched.Probe) { b.probe = p }

// PIQShares implements sched.Sharer.
func (b *Ballerino) PIQShares() uint64 { return b.allocShared }

// Occupancy implements sched.Scheduler.
func (b *Ballerino) Occupancy() int {
	n := b.siq.Len()
	for i := range b.piqs {
		n += b.piqs[i].len()
	}
	return n
}

// Dispatch implements sched.Scheduler: μops enter the S-IQ in program order.
func (b *Ballerino) Dispatch(u *sched.UOp, _ uint64) bool {
	if b.siq.Full() {
		return false
	}
	b.siq.Push(u)
	u.Slot = -1 // not in a P-IQ
	b.events.QueueWrites++
	return true
}

// Woken implements sched.Waker: a μop waiting in a P-IQ refreshes its
// mirrored ready cycle; one in the S-IQ is read directly.
func (b *Ballerino) Woken(u *sched.UOp) {
	if u.Slot >= 0 {
		i := u.Slot / b.cfg.PIQDepth
		q := &b.piqs[i]
		q.at[u.Slot-q.id] = u.SrcReady
		b.idle[i].until = 0
	}
}

// locCode encodes (P-IQ index, partition) into the producer-location value
// stored in P-SCB and LFST entries.
func locCode(iq, part int) int  { return iq*2 + part }
func locIQ(code int) int        { return code / 2 }
func locPartition(code int) int { return code % 2 }

// Issue implements sched.Scheduler. P-IQ head requests occupy the upper
// prefix-sum inputs (§IV-E), so they are granted before S-IQ requests.
func (b *Ballerino) Issue(cycle uint64, ctx *sched.IssueCtx) {
	b.ports.Reset()
	portUsed := &b.ports

	if b.cfg.Options.SIQFirstSelect {
		b.examineSIQ(cycle, ctx, portUsed)
		b.issuePIQHeads(cycle, ctx, portUsed)
		return
	}
	b.issuePIQHeads(cycle, ctx, portUsed)
	b.examineSIQ(cycle, ctx, portUsed)
}

// issuePIQHeads examines each P-IQ's active dependence heads: a granted
// head is popped, any other stalls in place.
func (b *Ballerino) issuePIQHeads(cycle uint64, ctx *sched.IssueCtx, portUsed *sched.PortMask) {
	for i := range b.piqs {
		q := &b.piqs[i]
		if idle := &b.idle[i]; idle.until > cycle {
			switch {
			case ctx.Blocked != nil:
				b.waitingHead(q, q.parts[q.active].slot(0), ctx, portUsed)
			case idle.mdep:
				b.tallyHeld(idle.port[q.active], portUsed)
			default:
				b.cur.dep++
			}
			if idle.switches {
				q.switchHead = true
				b.switching.put(i, true)
			}
			continue
		}
		if q.len() == 0 {
			b.cur.empty++
			continue
		}
		var heads [2]int
		issuedAny := false
		for _, part := range heads[:q.activeHeadsInto(b.cfg.Options.IdealSharing, &heads)] {
			pos := q.parts[part].slot(0)
			if q.at[pos] > cycle {
				b.waitingHead(q, pos, ctx, portUsed)
				continue
			}
			if b.examineHead(q.buf[pos], ctx, portUsed) {
				q.popHead(part)
				issuedAny = true
			}
		}
		wasSharing, lastIssued := q.sharing, q.lastIssued
		q.endCyclePolicy(issuedAny, b.cfg.Options.AlwaysSwitchHead)
		if issuedAny || q.lastIssued != lastIssued || q.sharing != wasSharing {
			b.refresh(i)
		}
		if q.switchHead {
			b.switching.put(i, true)
		}
		if !issuedAny && !b.cfg.Options.IdealSharing {
			until, port := q.dataWait(cycle)
			b.idle[i] = parked{until: until, switches: q.switchHead, mdep: port != [2]int8{-1, -1}, port: port}
		}
		if b.probe != nil && wasSharing && !q.sharing {
			b.probe(sched.ProbePIQMerge, cycle, 0, i)
		}
	}
}

// waitingHead tallies a P-IQ head that a producer wait holds as
// examineHead tallies one it does not grant (a head with a predicted
// memory dependence stalls on it unless another head took its port),
// reading the μop only to report it passed over.
func (b *Ballerino) waitingHead(q *piq, pos int, ctx *sched.IssueCtx, portUsed *sched.PortMask) {
	b.tallyHeld(q.mdepPort[pos], portUsed)
	if ctx.Blocked != nil {
		ctx.Blocked(q.buf[pos])
	}
}

// tallyHeld tallies a held P-IQ head by its mdepPort: a stall on its
// predicted memory dependence, or on data when it has none or another
// head took its port.
func (b *Ballerino) tallyHeld(port int8, portUsed *sched.PortMask) {
	if port >= 0 && !portUsed.Used(int(port)) {
		b.cur.mdep++
	} else {
		b.cur.dep++
	}
}

// examineHead offers one P-IQ head to select and reports whether it was
// granted; a head that stalls is tallied for Tick.
func (b *Ballerino) examineHead(u *sched.UOp, ctx *sched.IssueCtx, portUsed *sched.PortMask) bool {
	if portUsed.Used(u.Port) {
		ctx.PassOver(u)
		b.cur.dep++
		return false
	}
	if !ctx.CanIssue(u) {
		if u.MDPWait != mdp.NoStore {
			b.cur.mdep++
		} else {
			b.cur.dep++
		}
		return false
	}
	ctx.Grant(u)
	b.events.QueueReads++
	b.events.PSCBReads += 2
	b.events.PayloadReads++
	portUsed.Set(u.Port)
	b.issuedPIQ++
	b.headIssue++
	return true
}

// examineSIQ walks the speculative scheduling window at the S-IQ head,
// exactly one decision per examined μop (§IV-C, Figure 8): ready μops send
// issue requests (granted unless their port is taken — then steered as
// case 3); non-ready μops are steered to the P-IQs along their M/R-
// dependences. A steering failure stalls the window at that μop.
func (b *Ballerino) examineSIQ(cycle uint64, ctx *sched.IssueCtx, portUsed *sched.PortMask) {
	b.siq.SelectWindow(b.cfg.SIQWindow, func(u *sched.UOp) container.Verdict {
		if portUsed.Used(u.Port) {
			ctx.PassOver(u)
		} else if ctx.CanIssue(u) {
			ctx.Grant(u)
			b.events.QueueReads++
			b.events.PSCBReads += 2
			b.events.PayloadReads++
			portUsed.Set(u.Port)
			b.issuedSIQ++
			return container.Take
		}
		// Not ready (or §IV-C case 3: its port is taken): steer to the
		// P-IQs; a failure blocks the window here.
		if b.steer(u, cycle) {
			b.events.QueueReads++
			b.events.PSCBReads += 2
			b.events.SteerOps++
			b.moved = true
			if b.probe != nil {
				b.probe(sched.ProbeSIQPromote, cycle, u.Seq(), 0)
			}
			return container.Take
		}
		b.cur.steer = true
		return container.Stop
	})
}

// Tick implements sched.Scheduler: every P-IQ head and S-IQ window slot
// feeds the select circuits each cycle, a head that did not issue is read
// again, a stalled S-IQ window retries its steering, and each shared
// P-IQ's head pointer follows the §IV-D policy once per cycle.
func (b *Ballerino) Tick(n uint64) {
	b.events.SelectInputs += n * uint64(b.cfg.Width*(b.cfg.NumPIQs+b.cfg.SIQWindow))
	b.charge(b.cur, (n+1)/2)
	if n > 1 {
		b.charge(b.prev, n/2)
	}
	for w, word := range b.switching {
		for ; word != 0; word &= word - 1 {
			b.piqs[w<<6+bits.TrailingZeros64(word)].tick(n)
		}
		b.switching[w] = 0
	}
	b.prev, b.cur = b.cur, stalls{}
	b.moved = false
}

// Wake implements sched.Scheduler: a μop steered this cycle is examined
// afresh at its P-IQ next cycle.
func (b *Ballerino) Wake(now uint64) uint64 {
	if b.moved {
		return now + 1
	}
	return sched.NoWake
}

// charge applies the stalls of one cycle n times.
func (b *Ballerino) charge(s stalls, n uint64) {
	heads := s.mdep + s.dep
	b.headEmpty += n * s.empty
	b.headStallM += n * s.mdep
	b.headStallDep += n * s.dep
	b.events.QueueReads += n * heads
	b.events.PSCBReads += 2 * n * heads
	if s.steer {
		b.steerStalls += n
		b.events.SteerOps += n
		b.events.QueueReads += n
		b.events.PSCBReads += 2 * n
	}
}

// steer places u into a P-IQ following M-dependences, then R-dependences,
// then allocating an empty queue, then (Step 3) activating sharing mode.
// It reports false when every option is exhausted — the steering stall.
func (b *Ballerino) steer(u *sched.UOp, cycle uint64) bool {
	// 1) M-dependence-aware steering: follow the producer store (§III-B).
	mdaCandidate := b.cfg.Options.MDASteering && u.D.Op.IsMem() && u.SSID >= 0
	if mdaCandidate {
		if code, reserved, ok := b.mdp.ProducerLocation(u.SSID); ok && !reserved {
			iq, part := locIQ(code), locPartition(code)
			if iq < len(b.piqs) && b.piqs[iq].canAppend(part) {
				b.mdp.ReserveProducer(u.SSID)
				b.enqueue(iq, part, u)
				b.steerM++
				if b.probe != nil {
					b.probe(sched.ProbeSteerMDAHit, cycle, u.Seq(), iq)
				}
				return true
			}
		}
		if b.probe != nil {
			b.probe(sched.ProbeSteerMDAMiss, cycle, u.Seq(), 0)
		}
	}

	// 2) R-dependence steering: follow a producer at an unreserved tail.
	for _, src := range u.Src {
		code, reserved, ok := b.rn.ProducerIQ(src)
		if !ok || reserved {
			continue
		}
		iq, part := locIQ(code), locPartition(code)
		if iq < len(b.piqs) && b.piqs[iq].canAppend(part) {
			b.rn.ReserveProducer(src)
			b.enqueue(iq, part, u)
			b.steerDC++
			if b.probe != nil {
				b.probe(sched.ProbeSteerDep, cycle, u.Seq(), iq)
			}
			return true
		}
	}

	// 3) New dependence head: the first empty P-IQ.
	if i := b.free.first(); i >= 0 {
		b.enqueue(i, 0, u)
		b.allocEmpty++
		if b.probe != nil {
			b.probe(sched.ProbeSteerNewChain, cycle, u.Seq(), i)
		}
		return true
	}

	// 4) Sharing mode (Step 3): split the first eligible P-IQ. Only queues
	// whose head did not issue last cycle are eligible — their read port
	// was idle, so sharing costs the resident chain nothing (§III-C:
	// sharing targets chains stalled on long-latency loads). The ideal
	// variant shares any queue.
	i := b.share.first()
	if i < 0 {
		return false
	}
	wasSharing := b.piqs[i].sharing
	part, _ := b.piqs[i].activateSharing(b.cfg.Options.IdealSharing)
	b.shareActs++
	b.enqueue(i, part, u)
	b.allocShared++
	if b.probe != nil {
		if !wasSharing {
			b.probe(sched.ProbePIQSplit, cycle, u.Seq(), i)
		}
		b.probe(sched.ProbePIQShare, cycle, u.Seq(), i)
	}
	return true
}

// enqueue appends u to partition part of P-IQ iq and publishes the
// producer location to the P-SCB (and, for stores, the LFST).
func (b *Ballerino) enqueue(iq, part int, u *sched.UOp) {
	if b.piqs[iq].parts[part].count == 0 {
		b.idle[iq].until = 0 // u is a new head
	}
	b.piqs[iq].append(part, u)
	b.refresh(iq)
	b.events.QueueWrites++
	code := locCode(iq, part)
	if u.Dst != rename.PhysNone {
		b.rn.SetProducerIQ(u.Dst, code)
		b.events.PSCBWrites++
	}
	if b.cfg.Options.MDASteering && u.D.Op == isa.OpStore && u.SSID >= 0 {
		b.mdp.SetProducerLocation(u.SSID, u.Seq(), code)
	}
}

// Complete implements sched.Scheduler. Readiness propagates through the
// P-SCB; there is no CAM broadcast.
func (b *Ballerino) Complete(rename.PhysReg, uint64) {}

// Flush implements sched.Scheduler.
func (b *Ballerino) Flush(seq uint64) {
	clear(b.idle)
	b.siq.FlushFrom(seq)
	for i := range b.piqs {
		b.piqs[i].flushFrom(seq)
		b.refresh(i)
	}
}

// Queues implements sched.Scheduler: the S-IQ plus every P-IQ partition,
// each an in-order FIFO holding one dependence chain.
func (b *Ballerino) Queues(dst []sched.QueueSnapshot) []sched.QueueSnapshot {
	qs, siq := sched.NextQueue(dst[:0], "S-IQ", true, b.cfg.SIQSize)
	for i := 0; i < b.siq.Len(); i++ {
		siq.Seqs = append(siq.Seqs, b.siq.At(i).Seq())
	}
	for i := range b.piqs {
		q := &b.piqs[i]
		for pi := range q.parts {
			if q.parts[pi].size == 0 && q.parts[pi].count == 0 {
				continue // partition 1 does not exist in normal mode
			}
			var s *sched.QueueSnapshot
			qs, s = sched.NextQueue(qs, q.names[pi], true, q.parts[pi].size)
			s.Seqs = q.partSeqs(pi, s.Seqs)
		}
	}
	return qs
}

// Energy implements sched.Scheduler.
func (b *Ballerino) Energy() sched.EnergyEvents { return b.events }

// Counters implements sched.Scheduler.
func (b *Ballerino) Counters() map[string]uint64 {
	return map[string]uint64{
		"issued":          b.issuedSIQ + b.issuedPIQ,
		"issued_siq":      b.issuedSIQ,
		"issued_piq":      b.issuedPIQ,
		"steer_m":         b.steerM,
		"steer_dc":        b.steerDC,
		"alloc_empty":     b.allocEmpty,
		"alloc_shared":    b.allocShared,
		"steer_stalls":    b.steerStalls,
		"share_activates": b.shareActs,
		"head_issue":      b.headIssue,
		"head_stall_mdep": b.headStallM,
		"head_stall_dep":  b.headStallDep,
		"head_empty":      b.headEmpty,
	}
}

var (
	_ sched.Scheduler = (*Ballerino)(nil)
	_ sched.Probed    = (*Ballerino)(nil)
	_ sched.Waker     = (*Ballerino)(nil)
)
