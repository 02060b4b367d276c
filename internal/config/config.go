// Package config encodes Table I (core and memory system configurations)
// and Table II (scheduling window configurations) of the paper, and builds
// ready-to-run pipeline configurations for every evaluated
// microarchitecture at 2-, 4-, 8- and 10-wide issue widths.
package config

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mdp"
	"repro/internal/pipeline"
	"repro/internal/rename"
	"repro/internal/sched"
)

// Arch names an evaluated microarchitecture.
type Arch string

// The evaluated microarchitectures of §V.
const (
	ArchInO            Arch = "InO"
	ArchOoO            Arch = "OoO"
	ArchOoOOldest      Arch = "OoO-oldest" // OoO with oldest-first selection
	ArchCES            Arch = "CES"
	ArchCESMDA         Arch = "CES+MDA"
	ArchCASINO         Arch = "CASINO"
	ArchFXA            Arch = "FXA"
	ArchBallerino      Arch = "Ballerino"
	ArchBallerino12    Arch = "Ballerino-12"
	ArchBallerinoS1    Arch = "Ballerino-step1" // S-IQ + P-IQs only
	ArchBallerinoS2    Arch = "Ballerino-step2" // + MDA steering
	ArchBallerinoIdeal Arch = "Ballerino-ideal" // sharing without constraints
)

// AllArchs lists every standard microarchitecture (Figure 11's set plus the
// step variants of Figure 13).
func AllArchs() []Arch {
	return []Arch{
		ArchInO, ArchOoO, ArchOoOOldest,
		ArchCES, ArchCESMDA, ArchCASINO, ArchFXA,
		ArchBallerino, ArchBallerino12,
		ArchBallerinoS1, ArchBallerinoS2, ArchBallerinoIdeal,
	}
}

// Machine is a complete simulation configuration: the pipeline around the
// scheduler plus the scheduler factory for the chosen microarchitecture.
type Machine struct {
	Arch     Arch
	Width    int
	Pipeline pipeline.Config
	// NumPIQs applies to CES/Ballerino machines (Figure 17c varies it).
	NumPIQs  int
	PIQDepth int
	Factory  pipeline.SchedulerFactory
	// ClockGHz and VoltageV model the DVFS level (Figure 17b); they scale
	// wall-clock time and energy, not cycle counts.
	ClockGHz float64
	VoltageV float64
}

// widthParams holds the 8(/4/2)-wide scalings of Tables I and II.
type widthParams struct {
	fetch, renameW, issue, commit int
	rob, lq, sq                   int
	intRegs, fpRegs               int
	iqEntries                     int // unified IQ entries (InO/OoO)
	recovery                      uint64
	numPIQs, piqDepth             int // CES (Ballerino: numPIQs-1 + S-IQ)
	siqSize, siqWindow            int
	casinoSizes                   []int
	fxaIQ                         int
	clockGHz                      float64
}

func paramsFor(width int) (widthParams, error) {
	switch width {
	case 8:
		return widthParams{
			fetch: 4, renameW: 4, issue: 8, commit: 8,
			rob: 224, lq: 72, sq: 56,
			intRegs: 180, fpRegs: 168,
			iqEntries: 96, recovery: 11,
			numPIQs: 8, piqDepth: 12,
			siqSize: 8, siqWindow: 4,
			casinoSizes: []int{8, 40, 40, 8},
			fxaIQ:       48,
			clockGHz:    3.4,
		}, nil
	case 4:
		return widthParams{
			fetch: 4, renameW: 4, issue: 4, commit: 4,
			rob: 128, lq: 48, sq: 32,
			intRegs: 128, fpRegs: 96,
			iqEntries: 64, recovery: 11,
			numPIQs: 4, piqDepth: 16,
			siqSize: 8, siqWindow: 4,
			casinoSizes: []int{6, 52, 6},
			fxaIQ:       32,
			clockGHz:    2.5,
		}, nil
	case 2:
		return widthParams{
			fetch: 2, renameW: 2, issue: 2, commit: 2,
			rob: 48, lq: 24, sq: 16,
			intRegs: 32 + 64, fpRegs: 32 + 64, // 32 rename regs over architectural
			iqEntries: 32, recovery: 11,
			numPIQs: 2, piqDepth: 16,
			siqSize: 4, siqWindow: 2,
			casinoSizes: []int{4, 28},
			fxaIQ:       16,
			clockGHz:    2.0,
		}, nil
	case 10:
		return widthParams{
			fetch: 5, renameW: 5, issue: 10, commit: 10,
			rob: 256, lq: 80, sq: 64,
			intRegs: 200, fpRegs: 188,
			iqEntries: 120, recovery: 11,
			numPIQs: 10, piqDepth: 12,
			siqSize: 10, siqWindow: 5,
			casinoSizes: []int{10, 50, 50, 10},
			fxaIQ:       60,
			clockGHz:    3.4,
		}, nil
	default:
		return widthParams{}, fmt.Errorf("config: unsupported issue width %d", width)
	}
}

// Options customises a Machine beyond the Table II defaults.
type Options struct {
	// NumPIQs overrides the P-IQ count for CES/Ballerino (0 = default).
	// For Ballerino this counts P-IQs only (the S-IQ is extra).
	NumPIQs int
	// PIQDepth overrides the P-IQ entry count (0 = default).
	PIQDepth int
	// DisableMDP turns memory dependence prediction off.
	DisableMDP bool
	// DisablePrefetch turns the stride prefetcher off.
	DisablePrefetch bool
	// SIQSize/SIQWindow override the Ballerino S-IQ geometry (0 = Table II).
	SIQSize   int
	SIQWindow int
	// Ballerino, when non-nil, overrides the technique flags entirely
	// (used by the ablation harness).
	Ballerino *core.Options
	// CasinoSizes overrides CASINO's queue cascade (front-to-back entry
	// counts; the last queue is the in-order IQ). Used by the Table II
	// size-search methodology.
	CasinoSizes []int
	// MaxCycles bounds the simulation (0 = pipeline default of no bound).
	MaxCycles uint64
}

// Validate reports option errors before any structure is built, so user
// input surfaces as an error instead of a constructor panic deep in the
// scheduler.
func (o Options) Validate() error {
	if o.NumPIQs < 0 {
		return fmt.Errorf("config: NumPIQs %d must not be negative", o.NumPIQs)
	}
	if o.PIQDepth < 0 {
		return fmt.Errorf("config: PIQDepth %d must not be negative", o.PIQDepth)
	}
	if o.PIQDepth > 0 && o.PIQDepth%2 != 0 {
		return fmt.Errorf("config: PIQDepth %d must be even (each P-IQ splits into two shareable halves)", o.PIQDepth)
	}
	if o.SIQSize < 0 || o.SIQWindow < 0 {
		return fmt.Errorf("config: SIQSize %d / SIQWindow %d must not be negative", o.SIQSize, o.SIQWindow)
	}
	for i, n := range o.CasinoSizes {
		if n <= 0 {
			return fmt.Errorf("config: CasinoSizes[%d] = %d; every cascade queue needs at least one entry", i, n)
		}
	}
	return nil
}

// NewMachine builds the Machine for an architecture at an issue width.
func NewMachine(arch Arch, width int, opt Options) (*Machine, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	wp, err := paramsFor(width)
	if err != nil {
		return nil, err
	}
	ports, err := sched.PortsForWidth(width)
	if err != nil {
		return nil, err
	}

	pcfg := pipeline.DefaultConfig()
	pcfg.FetchWidth = wp.fetch
	pcfg.RenameWidth = wp.renameW
	pcfg.IssueWidth = wp.issue
	pcfg.CommitWidth = wp.commit
	pcfg.ROBSize = wp.rob
	pcfg.LQSize = wp.lq
	pcfg.SQSize = wp.sq
	pcfg.RecoveryPenalty = wp.recovery
	pcfg.Ports = ports
	pcfg.Rename = rename.Config{IntRegs: wp.intRegs, FpRegs: wp.fpRegs}
	pcfg.UseMDP = !opt.DisableMDP
	pcfg.MaxCycles = opt.MaxCycles
	if opt.DisablePrefetch {
		pcfg.Mem.PrefetchDegree = 0
	}

	m := &Machine{
		Arch:     arch,
		Width:    width,
		Pipeline: pcfg,
		ClockGHz: wp.clockGHz,
		VoltageV: 1.04,
	}

	numPIQs := wp.numPIQs
	if opt.NumPIQs > 0 {
		numPIQs = opt.NumPIQs
	}
	piqDepth := wp.piqDepth
	if opt.PIQDepth > 0 {
		piqDepth = opt.PIQDepth
	}
	m.PIQDepth = piqDepth

	siqSize, siqWindow := wp.siqSize, wp.siqWindow
	if opt.SIQSize > 0 {
		siqSize = opt.SIQSize
	}
	if opt.SIQWindow > 0 {
		siqWindow = opt.SIQWindow
	}
	ballerino := func(o core.Options, nPIQ int) pipeline.SchedulerFactory {
		if opt.Ballerino != nil {
			o = *opt.Ballerino
		}
		return func(rn *rename.Renamer, md *mdp.MDP) sched.Scheduler {
			return core.New(core.Config{
				SIQSize:   siqSize,
				SIQWindow: siqWindow,
				NumPIQs:   nPIQ,
				PIQDepth:  piqDepth,
				Width:     wp.issue,
				Options:   o,
			}, rn, md)
		}
	}

	switch arch {
	case ArchInO:
		// Table I: the in-order core has a shorter pipeline and smaller
		// memory structures.
		m.Pipeline.RecoveryPenalty = 8
		m.Pipeline.ROBSize = 64
		m.Pipeline.SQSize = 16
		m.Pipeline.LQSize = 16
		m.NumPIQs = 0
		m.Factory = func(*rename.Renamer, *mdp.MDP) sched.Scheduler {
			return sched.NewInO(wp.iqEntries, wp.issue)
		}
	case ArchOoO, ArchOoOOldest:
		oldest := arch == ArchOoOOldest
		m.NumPIQs = 0
		m.Factory = func(*rename.Renamer, *mdp.MDP) sched.Scheduler {
			return sched.NewOoO(wp.iqEntries, wp.issue, oldest)
		}
	case ArchCES, ArchCESMDA:
		mda := arch == ArchCESMDA
		m.NumPIQs = numPIQs
		m.Factory = func(rn *rename.Renamer, md *mdp.MDP) sched.Scheduler {
			return sched.NewCES(numPIQs, piqDepth, wp.issue, rn, md, mda)
		}
	case ArchCASINO:
		sizes := wp.casinoSizes
		if len(opt.CasinoSizes) > 0 {
			sizes = opt.CasinoSizes
		}
		m.NumPIQs = 0
		m.Factory = func(*rename.Renamer, *mdp.MDP) sched.Scheduler {
			return sched.NewCASINO(sizes, wp.siqWindow, wp.siqWindow, wp.issue)
		}
	case ArchFXA:
		m.NumPIQs = 0
		m.Factory = func(rn *rename.Renamer, _ *mdp.MDP) sched.Scheduler {
			return sched.NewFXA(wp.fxaIQ, wp.issue)
		}
	case ArchBallerino:
		n := numPIQs - 1 // one in-order IQ becomes the S-IQ (Table II)
		if opt.NumPIQs > 0 {
			n = opt.NumPIQs
		}
		m.NumPIQs = n
		m.Factory = ballerino(core.Options{MDASteering: true, Sharing: true}, n)
	case ArchBallerino12:
		n := 11
		if opt.NumPIQs > 0 {
			n = opt.NumPIQs
		}
		m.NumPIQs = n
		m.Factory = ballerino(core.Options{MDASteering: true, Sharing: true}, n)
	case ArchBallerinoS1:
		n := numPIQs - 1
		if opt.NumPIQs > 0 {
			n = opt.NumPIQs
		}
		m.NumPIQs = n
		m.Factory = ballerino(core.Options{}, n)
	case ArchBallerinoS2:
		n := numPIQs - 1
		if opt.NumPIQs > 0 {
			n = opt.NumPIQs
		}
		m.NumPIQs = n
		m.Factory = ballerino(core.Options{MDASteering: true}, n)
	case ArchBallerinoIdeal:
		n := numPIQs - 1
		if opt.NumPIQs > 0 {
			n = opt.NumPIQs
		}
		m.NumPIQs = n
		m.Factory = ballerino(core.Options{MDASteering: true, Sharing: true, IdealSharing: true}, n)
	default:
		return nil, fmt.Errorf("config: unknown architecture %q", arch)
	}
	return m, nil
}

// MustMachine is NewMachine for known-good arguments.
func MustMachine(arch Arch, width int, opt Options) *Machine {
	m, err := NewMachine(arch, width, opt)
	if err != nil {
		panic(err)
	}
	return m
}

// DVFSLevel is one frequency/voltage operating point of Figure 17b.
type DVFSLevel struct {
	Name     string
	ClockGHz float64
	VoltageV float64
}

// DVFSLevels returns L4..L1 of Figure 17b.
func DVFSLevels() []DVFSLevel {
	return []DVFSLevel{
		{"L4", 3.4, 1.04},
		{"L3", 3.2, 1.01},
		{"L2", 3.0, 0.98},
		{"L1", 2.8, 0.96},
	}
}
