// Package internal_test hosts substrate micro-benchmarks: the raw cost of
// the simulator's building blocks, complementing the per-figure harness at
// the repository root.
package internal_test

import (
	"testing"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/isa"
	"repro/internal/mdp"
	"repro/internal/mem"
	"repro/internal/prog"
	"repro/internal/rename"
	"repro/internal/workload"
)

func BenchmarkTAGEPredictUpdate(b *testing.B) {
	p := bpred.NewTAGE()
	for i := 0; i < b.N; i++ {
		pc := uint64(i % 257)
		taken := i%3 != 0
		p.Predict(pc)
		p.Update(pc, taken)
	}
}

func BenchmarkBTBLookupInsert(b *testing.B) {
	btb := bpred.NewBTB(512, 4)
	for i := 0; i < b.N; i++ {
		pc := uint64(i % 1031)
		if _, ok := btb.Lookup(pc); !ok {
			btb.Insert(pc, int(pc)+1)
		}
	}
}

func BenchmarkL1HitPath(b *testing.B) {
	d := dram.MustNew(dram.DefaultConfig())
	c := cache.MustNew(cache.Config{Name: "L1", SizeBytes: 32 << 10, Ways: 8, HitLatency: 4, MSHRs: 8}, d)
	c.Access(0x1000, false, 0) // warm the line
	now := uint64(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = c.Access(0x1000, false, now)
	}
}

func BenchmarkCacheMissPath(b *testing.B) {
	d := dram.MustNew(dram.DefaultConfig())
	c := cache.MustNew(cache.Config{Name: "L1", SizeBytes: 32 << 10, Ways: 8, HitLatency: 4, MSHRs: 8}, d)
	now := uint64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh line every time: full miss + eviction path.
		now = c.Access(uint64(i)*64+1<<30, false, now)
	}
}

func BenchmarkDRAMAccess(b *testing.B) {
	d := dram.MustNew(dram.DefaultConfig())
	now := uint64(0)
	for i := 0; i < b.N; i++ {
		now = d.Access(uint64(i%100000)*64, false, now)
	}
}

func BenchmarkHierarchyLoad(b *testing.B) {
	h := mem.MustNew(mem.DefaultConfig())
	now := uint64(0)
	for i := 0; i < b.N; i++ {
		now = h.Load(uint64(i%64), uint64(i%100000)*8, now)
	}
}

func BenchmarkRenameCommit(b *testing.B) {
	rn := rename.MustNew(rename.DefaultConfig())
	d := &isa.DynInst{Op: isa.OpIntALU, Dst: isa.R(1), Src1: isa.R(2), Src2: isa.R(3)}
	for i := 0; i < b.N; i++ {
		_, _, rec, ok := rn.Rename(d)
		if !ok {
			b.Fatal("free list exhausted")
		}
		rn.Commit(rec)
	}
}

func BenchmarkMDPDispatch(b *testing.B) {
	m := mdp.New(mdp.DefaultConfig())
	m.TrainViolation(100, 200)
	for i := 0; i < b.N; i++ {
		_, ssid := m.StoreDispatched(100, uint64(i), mdp.NoIQ)
		m.LoadDispatched(200)
		m.StoreIssued(ssid, uint64(i))
	}
}

func BenchmarkFunctionalExecution(b *testing.B) {
	w, err := workload.ByName("stream", workload.Params{Footprint: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog.MustExecute(w.Program, 10_000)
	}
	b.SetBytes(10_000)
}

func BenchmarkTraceGenerationAllKernels(b *testing.B) {
	var ws []workload.Workload
	for _, name := range workload.Names(false) {
		w, err := workload.ByName(name, workload.Params{Footprint: 1 << 20})
		if err != nil {
			b.Fatal(err)
		}
		ws = append(ws, w)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range ws {
			prog.MustExecute(w.Program, 2_000)
		}
	}
}
