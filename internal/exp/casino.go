package exp

import (
	"fmt"

	"repro"
	"repro/internal/config"
)

// casinoCandidates enumerates 96-entry cascades in the spirit of Table II's
// note: "we find the optimal combination of the S-IQ(s) and in-order IQ in
// size that achieves the best performance using the same number of entries
// as the baseline".
func casinoCandidates() [][]int {
	return [][]int{
		{8, 40, 40, 8}, // the paper's pick
		{8, 80, 8},     // one deep S-IQ
		{16, 32, 32, 16},
		{8, 28, 28, 32}, // larger final in-order IQ
		{4, 30, 30, 32},
		{8, 8, 40, 40},
		{48, 40, 8},
		{8, 88},
	}
}

// CasinoSearch reproduces the Table II methodology: sweep CASINO cascade
// shapes at a fixed 96-entry budget and report geomean IPC over the suite.
func CasinoSearch(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{
		Title:   "Table II methodology — CASINO cascade search (96 entries)",
		Columns: []string{"geomean_ipc"},
		Notes:   "paper picks 8/40/40/8 as the best-performing combination",
	}
	cands := casinoCandidates()
	opts := make([]config.Options, len(cands))
	for c, sizes := range cands {
		opts[c] = config.Options{CasinoSizes: sizes}
	}
	ipcs, err := runMachine(config.ArchCASINO, opts, o)
	if err != nil {
		return nil, err
	}
	for c, sizes := range cands {
		t.Rows = append(t.Rows, Row{
			Label:  fmt.Sprint(sizes),
			Values: map[string]float64{"geomean_ipc": ballerino.GeoMean(ipcs[c])},
		})
	}
	return t, nil
}
