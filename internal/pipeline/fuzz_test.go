package pipeline_test

import (
	"bytes"
	"testing"

	"repro/internal/config"
	"repro/internal/pipeline"
	"repro/internal/prog"
	"repro/internal/sched"
	"repro/internal/workload"
)

// TestFuzzSchedulerEquivalence is the cross-scheduler oracle: for randomly
// generated programs, every microarchitecture must commit the identical
// correct-path μop stream (same sequence numbers, in order, exactly once),
// never violate issue-before-ready, and stay within the issue-width IPC
// bound. Timing may differ; semantics may not.
func TestFuzzSchedulerEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("long fuzz")
	}
	seeds := []uint64{1, 7, 42, 1234, 99999}
	archs := config.AllArchs()
	const ops = 5000

	for _, seed := range seeds {
		w := workload.Random(workload.RandomParams{Seed: seed})
		tr := traceOf(t, w, ops)
		for _, arch := range archs {
			arch := arch
			m := config.MustMachine(arch, 8, config.Options{MaxCycles: 2_000_000})
			p, err := pipeline.New(m.Pipeline, tr, m.Factory)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, arch, err)
			}
			next := uint64(0)
			p.OnCommit = func(u *sched.UOp) {
				if u.Seq() != next {
					t.Fatalf("seed %d %s: commit seq %d, want %d", seed, arch, u.Seq(), next)
				}
				if u.IssueCycle < u.ReadyCycle || u.CompleteCycle <= u.IssueCycle {
					t.Fatalf("seed %d %s: timing invariant broken at seq %d", seed, arch, u.Seq())
				}
				next++
			}
			s, err := p.Run(uint64(len(tr)))
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, arch, err)
			}
			if next != uint64(len(tr)) {
				t.Fatalf("seed %d %s: committed %d of %d", seed, arch, next, len(tr))
			}
			if ipc := s.IPC(); ipc <= 0 || ipc > 8 {
				t.Fatalf("seed %d %s: IPC %f out of bounds", seed, arch, ipc)
			}
		}
	}
}

// TestFuzzReplayDifferential pits the zero-alloc engine against the
// independent functional golden model: random programs run with the
// invariant auditor enabled while prog.Replay re-executes every committed
// μop from its own architectural state. A hot-path bug that commits a
// recycled record, reorders the stream, or corrupts a μop's payload
// surfaces as a concrete architectural divergence.
func TestFuzzReplayDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("long fuzz")
	}
	seeds := []uint64{3, 17, 256, 4093, 70707}
	const ops = 4000
	for _, seed := range seeds {
		w := workload.Random(workload.RandomParams{Seed: seed})
		tr := traceOf(t, w, ops)
		for _, arch := range config.AllArchs() {
			m := config.MustMachine(arch, 8, config.Options{MaxCycles: 2_000_000})
			p, err := pipeline.New(m.Pipeline, tr, m.Factory)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, arch, err)
			}
			p.EnableAudit()
			replay := prog.NewReplay(w.Program)
			p.OnCommit = func(u *sched.UOp) {
				if err := replay.Apply(u.D); err != nil {
					t.Fatalf("seed %d %s: %v", seed, arch, err)
				}
			}
			if _, err := p.Run(uint64(len(tr))); err != nil {
				t.Fatalf("seed %d %s: %v", seed, arch, err)
			}
			if replay.Ops() != uint64(len(tr)) {
				t.Fatalf("seed %d %s: replayed %d of %d μops", seed, arch, replay.Ops(), len(tr))
			}
		}
	}
}

// TestFuzzRecycleEquivalence proves the μop arena is invisible: the same
// trace runs twice per architecture, once with an OnCommit observer
// attached (which disables record recycling) and once without (recycling
// active), and every deterministic observable must be byte-identical.
// Any dependence of simulation behaviour on record reuse diverges here.
func TestFuzzRecycleEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("long fuzz")
	}
	seeds := []uint64{11, 1337}
	const ops = 4000
	for _, seed := range seeds {
		w := workload.Random(workload.RandomParams{Seed: seed})
		tr := traceOf(t, w, ops)
		for _, arch := range config.AllArchs() {
			run := func(observe bool) []byte {
				m := config.MustMachine(arch, 8, config.Options{MaxCycles: 2_000_000})
				p, err := pipeline.New(m.Pipeline, tr, m.Factory)
				if err != nil {
					t.Fatalf("seed %d %s: %v", seed, arch, err)
				}
				if observe {
					p.OnCommit = func(u *sched.UOp) {}
				}
				if _, err := p.Run(uint64(len(tr))); err != nil {
					t.Fatalf("seed %d %s (observe=%v): %v", seed, arch, observe, err)
				}
				return goldenDigest(p, arch, "fuzz")
			}
			pooled, observed := run(false), run(true)
			if !bytes.Equal(pooled, observed) {
				t.Fatalf("seed %d %s: recycling changed observable behaviour:\npooled:\n%s\nobserved:\n%s",
					seed, arch, pooled, observed)
			}
		}
	}
}

// TestFuzzWideAndNarrow runs random programs through the 2- and 10-wide
// configurations to exercise the scaled port maps and window sizes.
func TestFuzzWideAndNarrow(t *testing.T) {
	if testing.Short() {
		t.Skip("long fuzz")
	}
	for _, width := range []int{2, 10} {
		for _, arch := range []config.Arch{config.ArchOoO, config.ArchBallerino, config.ArchCASINO} {
			w := workload.Random(workload.RandomParams{Seed: uint64(width) * 31})
			tr := traceOf(t, w, 4000)
			m := config.MustMachine(arch, width, config.Options{MaxCycles: 2_000_000})
			p, err := pipeline.New(m.Pipeline, tr, m.Factory)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.Run(uint64(len(tr))); err != nil {
				t.Fatalf("%d-wide %s: %v", width, arch, err)
			}
			if got := p.Stats().Committed; got != uint64(len(tr)) {
				t.Fatalf("%d-wide %s: committed %d", width, arch, got)
			}
		}
	}
}

// TestFuzzTinyWindows shrinks every structure to force continuous
// backpressure, flushes and structural stalls.
func TestFuzzTinyWindows(t *testing.T) {
	for _, arch := range []config.Arch{config.ArchBallerino, config.ArchCES, config.ArchOoO} {
		m := config.MustMachine(arch, 8, config.Options{
			MaxCycles: 2_000_000,
			NumPIQs:   2,
			PIQDepth:  4,
		})
		m.Pipeline.ROBSize = 16
		m.Pipeline.LQSize = 4
		m.Pipeline.SQSize = 4
		m.Pipeline.DecodeQueue = 8
		w := workload.Random(workload.RandomParams{Seed: 5})
		tr := traceOf(t, w, 3000)
		p, err := pipeline.New(m.Pipeline, tr, m.Factory)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run(uint64(len(tr))); err != nil {
			t.Fatalf("%s tiny windows: %v", arch, err)
		}
	}
}
