package sched

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/isa"
)

// TestOoOOldestFirstDifferential drives the oldest-first OoO queue through
// a seeded random mix of in-order dispatches, issues under random readiness
// and ports, and flushes at random seqs, and holds every issue to a
// reference select: sort the residents by seq, then walk them granting the
// first ready μop per free port until width. The walk's whole log — ready
// consults, reports of μops passed over (a taken port, or a refused
// consult) and grants, in order — must match, since the pipeline's Ready
// and Blocked callbacks have side effects.
func TestOoOOldestFirstDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		capacity := []int{32, 64, 96, 120}[trial%4]
		width := []int{2, 4, 8}[trial%3]
		s := NewOoO(capacity, width, true)
		var resident []*UOp
		var nextSeq uint64
		var writes, reads uint64

		for op := 0; op < 3_000; op++ {
			switch r := rng.Intn(10); {
			case r < 5: // dispatch a burst in program order
				for k := rng.Intn(width + 1); k > 0; k-- {
					u := mkUOp(nextSeq, isa.OpIntALU, rng.Intn(width))
					ok := s.Dispatch(u, 0)
					if want := len(resident) < capacity; ok != want {
						t.Fatalf("trial %d op %d: dispatch seq %d = %v, want %v", trial, op, nextSeq, ok, want)
					}
					if ok {
						resident = append(resident, u)
						nextSeq++
						writes++
					}
				}
			case r < 9: // issue under random readiness
				pReady := rng.Float64()
				ready := map[*UOp]bool{}
				for _, u := range resident {
					ready[u] = rng.Float64() < pReady
				}
				withBlame := rng.Intn(4) != 0

				var got []string
				ctx := &IssueCtx{
					Ready: func(u *UOp) bool {
						got = append(got, fmt.Sprintf("ready %d", u.Seq()))
						return ready[u]
					},
					Grant: func(u *UOp) { got = append(got, fmt.Sprintf("grant %d", u.Seq())) },
				}
				if withBlame {
					ctx.Blocked = func(u *UOp) { got = append(got, fmt.Sprintf("blocked %d", u.Seq())) }
				}
				s.Issue(uint64(op), ctx)

				var want []string
				var used PortMask
				granted := 0
				kept := resident[:0:0]
				slices.SortFunc(resident, func(a, b *UOp) int { return cmp.Compare(a.Seq(), b.Seq()) })
				for _, u := range resident {
					switch {
					case granted >= width:
					case used.Used(u.Port):
						if withBlame {
							want = append(want, fmt.Sprintf("blocked %d", u.Seq()))
						}
					default:
						want = append(want, fmt.Sprintf("ready %d", u.Seq()))
						if !ready[u] {
							if withBlame {
								want = append(want, fmt.Sprintf("blocked %d", u.Seq()))
							}
							break
						}
						want = append(want, fmt.Sprintf("grant %d", u.Seq()))
						used.Set(u.Port)
						granted++
						reads++
						continue
					}
					kept = append(kept, u)
				}
				resident = kept
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d op %d: select log\n got  %v\n want %v", trial, op, got, want)
				}
			default: // flush from a random seq; refetch reuses the seqs
				if len(resident) == 0 {
					continue
				}
				bound := resident[0].Seq() + uint64(rng.Intn(int(nextSeq-resident[0].Seq())+1))
				s.Flush(bound)
				resident = slices.DeleteFunc(resident, func(u *UOp) bool { return u.Seq() >= bound })
				nextSeq = bound
			}

			if s.Occupancy() != len(resident) {
				t.Fatalf("trial %d op %d: occupancy %d, want %d", trial, op, s.Occupancy(), len(resident))
			}
			var snap []uint64
			for _, q := range s.Queues(nil) {
				snap = append(snap, q.Seqs...)
			}
			slices.Sort(snap)
			var want []uint64
			for _, u := range resident {
				want = append(want, u.Seq())
			}
			slices.Sort(want)
			if !slices.Equal(snap, want) {
				t.Fatalf("trial %d op %d: queue holds %v, want %v", trial, op, snap, want)
			}
		}
		if e := s.Energy(); e.QueueWrites != writes || e.PayloadReads != reads {
			t.Fatalf("trial %d: queue writes %d, payload reads %d; want %d, %d", trial, e.QueueWrites, e.PayloadReads, writes, reads)
		}
	}
}

// TestOoOQueuesSnapshot: the oldest-first queue reports itself as a FIFO
// listed oldest first, so the auditor's queue-fifo rule catches a μop
// that enters out of program order; the random queue lists its slots.
func TestOoOQueuesSnapshot(t *testing.T) {
	for _, oldestFirst := range []bool{true, false} {
		s := NewOoO(4, 8, oldestFirst)
		for seq := uint64(1); seq <= 3; seq++ {
			s.Dispatch(mkUOp(seq, isa.OpIntALU, int(seq)), 0)
		}
		var granted []*UOp
		s.Issue(1, ctx(func(u *UOp) bool { return u.Seq() == 1 }, &granted))
		s.Dispatch(mkUOp(4, isa.OpIntALU, 0), 0)
		q := s.Queues(nil)[0]
		want := []uint64{2, 3, 4}
		if !oldestFirst {
			want = []uint64{4, 2, 3} // seq 4 took the freed slot 0
		}
		if q.FIFO != oldestFirst || q.Cap != 4 || !slices.Equal(q.Seqs, want) {
			t.Errorf("oldestFirst=%v: snapshot %+v, want FIFO=%v seqs %v", oldestFirst, q, oldestFirst, want)
		}
	}
}
