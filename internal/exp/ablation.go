package exp

import (
	"fmt"

	"repro"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/prog"
	"repro/internal/workload"
)

// ablationVariant describes one configuration of the ablation study.
type ablationVariant struct {
	name string
	note string
	opt  config.Options
}

func fullBallerino() core.Options {
	return core.Options{MDASteering: true, Sharing: true}
}

func ablationVariants() []ablationVariant {
	with := func(mod func(*core.Options)) *core.Options {
		o := fullBallerino()
		mod(&o)
		return &o
	}
	return []ablationVariant{
		{"default", "full Ballerino (Table II)", config.Options{}},
		{"no-sharing", "P-IQ sharing off (Step 2)", config.Options{Ballerino: with(func(o *core.Options) { o.Sharing = false })}},
		{"no-mda", "M-dependence-aware steering off", config.Options{Ballerino: with(func(o *core.Options) { o.MDASteering = false })}},
		{"ideal-sharing", "§IV-D constraints removed", config.Options{Ballerino: with(func(o *core.Options) { o.IdealSharing = true })}},
		{"siq-first", "select priority inverted (S-IQ over P-IQ heads)", config.Options{Ballerino: with(func(o *core.Options) { o.SIQFirstSelect = true })}},
		{"always-switch", "head pointer alternates every cycle", config.Options{Ballerino: with(func(o *core.Options) { o.AlwaysSwitchHead = true })}},
		{"siq-16", "S-IQ doubled to 16 entries", config.Options{SIQSize: 16}},
		{"siq-window-2", "speculative window halved to 2", config.Options{SIQWindow: 2}},
		{"piq-depth-6", "P-IQ depth halved to 6", config.Options{PIQDepth: 6}},
		{"no-prefetch", "stride prefetcher off", config.Options{DisablePrefetch: true}},
		{"no-mdp", "memory dependence prediction off", config.Options{DisableMDP: true}},
	}
}

// runMachine simulates arch under every option set in opts over every
// workload and returns IPC by [variant][workload]. It covers the machine
// settings the public Config does not carry (technique flags, S-IQ
// geometry, prefetch, CASINO cascades). Each kernel is built and
// interpreted once per call, and its trace replayed under every variant.
func runMachine(arch config.Arch, opts []config.Options, o Options) ([][]float64, error) {
	ipcs := make([][]float64, len(opts))
	for v := range ipcs {
		ipcs[v] = make([]float64, len(o.Workloads))
	}
	for i, wl := range o.Workloads {
		w, err := workload.ByName(wl, workload.Params{})
		if err != nil {
			return nil, err
		}
		tr := prog.MustExecute(w.Program, o.Ops)
		for v, opt := range opts {
			opt.MaxCycles = uint64(o.Ops) * 200
			m, err := config.NewMachine(arch, 8, opt)
			if err != nil {
				return nil, err
			}
			p, err := pipeline.New(m.Pipeline, tr.Ops, m.Factory)
			if err != nil {
				return nil, err
			}
			s, err := p.Run(uint64(len(tr.Ops)))
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", arch, wl, err)
			}
			ipcs[v][i] = s.IPC()
		}
	}
	return ipcs, nil
}

// Ablations quantifies the design choices DESIGN.md calls out: each
// variant's geomean IPC relative to the full Ballerino configuration.
func Ablations(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{
		Title:   "Ablation study — Ballerino design choices (geomean IPC vs default)",
		Columns: []string{"rel_ipc"},
		Notes:   "each row disables or perturbs one design decision",
	}
	variants := ablationVariants()
	opts := make([]config.Options, len(variants))
	for v, av := range variants {
		opts[v] = av.opt
	}
	ipcs, err := runMachine(config.ArchBallerino, opts, o)
	if err != nil {
		return nil, err
	}
	baseline := ipcs[0] // the "default" variant
	for v, av := range variants {
		var ratios []float64
		for i, ipc := range ipcs[v] {
			if b := baseline[i]; b > 0 {
				ratios = append(ratios, ipc/b)
			}
		}
		t.Rows = append(t.Rows, Row{
			Label:  av.name,
			Values: map[string]float64{"rel_ipc": ballerino.GeoMean(ratios)},
		})
	}
	return t, nil
}
