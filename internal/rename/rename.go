// Package rename implements the two-stage register renaming front end of
// §IV-B: a register alias table (RAT), separate integer and floating-point
// physical register free lists (Table I: 180 int + 168 fp at 8-wide), a
// recovery log for mis-speculation repair, and the physical register
// scoreboard (P-SCB) that tracks per-register readiness and — for Ballerino
// — producer steering location.
package rename

import (
	"fmt"

	"repro/internal/isa"
)

// PhysReg names a physical register. PhysNone marks an absent operand.
type PhysReg int16

// PhysNone is the renamed form of isa.RegNone.
const PhysNone PhysReg = -1

// NeverReady is a readiness timestamp meaning "producer has not executed".
const NeverReady = ^uint64(0)

// Config sizes the register file.
type Config struct {
	IntRegs int
	FpRegs  int
}

// DefaultConfig is the 8-wide Table I configuration.
func DefaultConfig() Config { return Config{IntRegs: 180, FpRegs: 168} }

// Validate reports configuration errors. Physical registers must cover the
// architectural state plus at least one rename slot each.
func (c Config) Validate() error {
	if c.IntRegs <= isa.NumIntRegs {
		return fmt.Errorf("rename: IntRegs %d must exceed the %d architectural int registers", c.IntRegs, isa.NumIntRegs)
	}
	if c.FpRegs <= isa.NumFpRegs {
		return fmt.Errorf("rename: FpRegs %d must exceed the %d architectural fp registers", c.FpRegs, isa.NumFpRegs)
	}
	return nil
}

// pscbEntry is one P-SCB record (§IV-C): readiness plus producer location.
type pscbEntry struct {
	readyAt uint64
	// loadDep marks registers produced (directly or transitively) by a
	// load that had not completed when the producer dispatched. Used for
	// the Ld/LdC/Rst classification of Figure 3c/12.
	loadDep bool
	// IQIndex/Reserved implement the steering fields of §IV-C: the P-IQ
	// where the producer currently waits (or NoIQ) and whether a consumer
	// has already been steered behind it.
	iqIndex  int
	reserved bool
}

// NoIQ marks a P-SCB entry with no in-queue producer.
const NoIQ = -1

// Renamer is the RAT + free lists + recovery log + P-SCB.
type Renamer struct {
	cfg Config

	rat [isa.NumArchRegs]PhysReg

	freeInt []PhysReg
	freeFp  []PhysReg

	pscb []pscbEntry

	// Statistics.
	renames    uint64
	stallsFree uint64
}

// New builds a renamer with the architectural registers mapped to the first
// physical registers, all ready at cycle 0.
func New(cfg Config) (*Renamer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &Renamer{cfg: cfg, pscb: make([]pscbEntry, cfg.IntRegs+cfg.FpRegs)}
	for i := range r.pscb {
		r.pscb[i] = pscbEntry{readyAt: 0, iqIndex: NoIQ}
	}
	// Int physical registers occupy [0, IntRegs); fp [IntRegs, IntRegs+FpRegs).
	for a := 0; a < isa.NumIntRegs; a++ {
		r.rat[a] = PhysReg(a)
	}
	for a := 0; a < isa.NumFpRegs; a++ {
		r.rat[isa.NumIntRegs+a] = PhysReg(cfg.IntRegs + a)
	}
	for p := isa.NumIntRegs; p < cfg.IntRegs; p++ {
		r.freeInt = append(r.freeInt, PhysReg(p))
	}
	for p := cfg.IntRegs + isa.NumFpRegs; p < cfg.IntRegs+cfg.FpRegs; p++ {
		r.freeFp = append(r.freeFp, PhysReg(p))
	}
	return r, nil
}

// MustNew is New for known-good configurations.
func MustNew(cfg Config) *Renamer {
	r, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// FreeCount returns the free physical registers in (int, fp) pools.
func (r *Renamer) FreeCount() (int, int) { return len(r.freeInt), len(r.freeFp) }

// Lookup returns the current mapping of an architectural register.
func (r *Renamer) Lookup(a isa.Reg) PhysReg {
	if !a.Valid() {
		return PhysNone
	}
	return r.rat[a]
}

// Entry is the recovery log record for one renamed μop, to be stored in its
// ROB entry. OldPhys is freed at commit; at squash, the RAT is restored to
// OldPhys and NewPhys is freed.
type Entry struct {
	Arch    isa.Reg
	OldPhys PhysReg
	NewPhys PhysReg
}

// Rename maps the μop's sources through the RAT and allocates a physical
// destination. It returns the source mappings, destination mapping, and the
// recovery entry. ok is false — with no state change — when the free list
// for the destination kind is empty (dispatch must stall).
func (r *Renamer) Rename(d *isa.DynInst) (src [2]PhysReg, dst PhysReg, rec Entry, ok bool) {
	reads := d.Reads()
	for i, a := range reads {
		if a.Valid() {
			src[i] = r.rat[a]
		} else {
			src[i] = PhysNone
		}
	}
	dst = PhysNone
	rec = Entry{Arch: isa.RegNone, OldPhys: PhysNone, NewPhys: PhysNone}
	w := d.Writes()
	if !w.Valid() {
		r.renames++
		return src, dst, rec, true
	}
	var pool *[]PhysReg
	if w.IsFP() {
		pool = &r.freeFp
	} else {
		pool = &r.freeInt
	}
	if len(*pool) == 0 {
		return src, PhysNone, rec, false
	}
	dst = (*pool)[len(*pool)-1]
	*pool = (*pool)[:len(*pool)-1]
	rec = Entry{Arch: w, OldPhys: r.rat[w], NewPhys: dst}
	r.rat[w] = dst
	r.pscb[dst] = pscbEntry{readyAt: NeverReady, iqIndex: NoIQ}
	r.renames++
	return src, dst, rec, true
}

// Commit releases the previous mapping of a committed μop.
func (r *Renamer) Commit(rec Entry) {
	if rec.OldPhys == PhysNone {
		return
	}
	r.free(rec.OldPhys)
}

// Squash undoes one rename in reverse program order: restores the RAT and
// frees the speculative physical register. Its P-SCB entry is cleared
// (§IV-F: each flushed instruction clears the P-SCB entry of its
// destination operand).
func (r *Renamer) Squash(rec Entry) {
	if rec.NewPhys == PhysNone {
		return
	}
	r.rat[rec.Arch] = rec.OldPhys
	r.pscb[rec.NewPhys] = pscbEntry{readyAt: 0, iqIndex: NoIQ}
	r.free(rec.NewPhys)
}

func (r *Renamer) free(p PhysReg) {
	if int(p) < r.cfg.IntRegs {
		r.freeInt = append(r.freeInt, p)
	} else {
		r.freeFp = append(r.freeFp, p)
	}
}

// --- P-SCB operations ---

// ReadyAt returns the cycle at which p's value is available through the
// bypass network (NeverReady if unknown). PhysNone is always ready.
func (r *Renamer) ReadyAt(p PhysReg) uint64 {
	if p == PhysNone {
		return 0
	}
	return r.pscb[p].readyAt
}

// Ready reports whether p is available at cycle.
func (r *Renamer) Ready(p PhysReg, cycle uint64) bool {
	return r.ReadyAt(p) <= cycle
}

// SetReadyAt records the bypass-availability cycle of p (called when its
// producer issues with a known latency, or when a load completes). It also
// clears the steering fields, per §IV-C: "When I_p completes execution, the
// IQ index and Reserved fields of R_p are cleared and the Ready flag set."
func (r *Renamer) SetReadyAt(p PhysReg, cycle uint64) {
	if p == PhysNone {
		return
	}
	e := &r.pscb[p]
	e.readyAt = cycle
	e.iqIndex = NoIQ
	e.reserved = false
}

// SetLoadDep marks p as (transitively) load-dependent for scheduling-delay
// classification.
func (r *Renamer) SetLoadDep(p PhysReg, dep bool) {
	if p != PhysNone {
		r.pscb[p].loadDep = dep
	}
}

// LoadDep reports the load-dependence mark of p.
func (r *Renamer) LoadDep(p PhysReg) bool {
	return p != PhysNone && r.pscb[p].loadDep
}

// SetProducerIQ records that p's producer now waits in the given P-IQ with
// an unreserved tail slot.
func (r *Renamer) SetProducerIQ(p PhysReg, iq int) {
	if p != PhysNone {
		r.pscb[p].iqIndex = iq
		r.pscb[p].reserved = false
	}
}

// ProducerIQ returns (iqIndex, reserved, ok): where p's producer waits, if
// it is still queued and p is not yet ready.
func (r *Renamer) ProducerIQ(p PhysReg) (int, bool, bool) {
	if p == PhysNone {
		return NoIQ, false, false
	}
	e := &r.pscb[p]
	if e.iqIndex == NoIQ {
		return NoIQ, false, false
	}
	return e.iqIndex, e.reserved, true
}

// ReserveProducer sets the Reserved flag of p's P-SCB entry: a consumer has
// been steered to the producer's P-IQ, so p's producer is no longer at that
// queue's tail.
func (r *Renamer) ReserveProducer(p PhysReg) {
	if p != PhysNone {
		r.pscb[p].reserved = true
	}
}

// Stats returns (renames performed, dispatch stalls due to empty free list).
func (r *Renamer) Stats() (uint64, uint64) { return r.renames, r.stallsFree }

// NoteStalls counts n cycles in which Rename refused the dispatch head for
// want of a free physical register. The caller charges them once per
// stalled cycle; Rename itself leaves all state alone when it refuses.
func (r *Renamer) NoteStalls(n uint64) { r.stallsFree += n }
