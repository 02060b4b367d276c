package container

import (
	"math/bits"
	"math/rand"
	"testing"
)

// BenchmarkSelect measures the oldest-first pick over a 64-entry window —
// the per-cycle core of every age-ordered select — comparing a compacting
// ring walk against the insertion sort over an occupancy bitmap it
// replaced. The hot-loop CI gate archives this output.
func BenchmarkSelect(b *testing.B) {
	const entries = 64
	const width = 8
	rng := rand.New(rand.NewSource(7))
	ages := make([]uint64, entries)
	for i := range ages {
		ages[i] = uint64(rng.Intn(1 << 12))
	}

	b.Run("oldest-first", func(b *testing.B) {
		// An oldest-first walk: the whole compacting queue from the head,
		// granting the ready entries (even seqs) until width, then
		// stopping; dispatch refills the tail in program order.
		r := &Ring[seqInt]{}
		r.Init(entries)
		next := uint64(0)
		for ; next < entries; next++ {
			r.Push(seqInt(next))
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			granted := 0
			r.SelectWindow(r.Len(), func(v seqInt) Verdict {
				if granted >= width {
					return Stop
				}
				if v%2 != 0 {
					return Keep
				}
				granted++
				return Take
			})
			for ; !r.Full(); next++ {
				r.Push(seqInt(next))
			}
		}
	})

	b.Run("insertion-sort", func(b *testing.B) {
		// The pre-bitmap oldest-first path: enumerate an occupancy bitmap
		// into a scratch slice, insertion-sort by age, walk the prefix.
		var occ [entries / 64]uint64
		for i := range occ {
			occ[i] = ^uint64(0)
		}
		order := make([]int, 0, entries)
		sink := 0
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			order = order[:0]
			for w, word := range occ {
				for word != 0 {
					order = append(order, w<<6+bits.TrailingZeros64(word))
					word &= word - 1
				}
			}
			for j := 1; j < len(order); j++ {
				idx := order[j]
				age := ages[idx]
				k := j - 1
				for k >= 0 && ages[order[k]] > age {
					order[k+1] = order[k]
					k--
				}
				order[k+1] = idx
			}
			for _, idx := range order[:width] {
				sink += idx
			}
		}
		_ = sink
	})

	b.Run("ring-window", func(b *testing.B) {
		r := &Ring[seqInt]{}
		r.Init(entries)
		for _, s := range ages {
			r.Push(seqInt(s))
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			taken := 0
			r.SelectWindow(width, func(v seqInt) Verdict {
				if taken < width/2 {
					taken++
					return Take
				}
				return Keep
			})
			for taken > 0 {
				taken--
				r.Push(seqInt(uint64(i + taken)))
			}
		}
	})
}
