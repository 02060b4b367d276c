package exp

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"repro"
	"repro/internal/topdown"
)

// cpiStackWorkloads is the tier-1 micro set the CPI-stack comparison runs
// over — the same grid as the golden corpus and BenchmarkHotLoop.
var cpiStackWorkloads = []string{"stream", "pointer-chase", "store-load", "branchy"}

// CPIStacks runs every architecture over the tier-1 kernels with top-down
// cycle accounting attached and renders one table per kernel: rows are
// architectures, columns the per-category CPI contributions (which sum to
// the "cpi" column). This is the cross-architecture bottleneck comparison
// the accounting exists for: it shows *why* one scheduler beats another on
// a kernel, not just that it does.
func CPIStacks(o Options) ([]*Table, error) {
	o = o.withDefaults()
	wls := o.Workloads
	if len(wls) > len(cpiStackWorkloads) {
		// The default workload set is the full kernel list; the CPI-stack
		// grid sticks to the tier-1 four unless explicitly restricted.
		wls = cpiStackWorkloads
	}
	archs := ballerino.Architectures()

	var cfgs []ballerino.Config
	for _, wl := range wls {
		for _, arch := range archs {
			cfgs = append(cfgs, ballerino.Config{Arch: arch, Workload: wl, MaxOps: o.Ops, Topdown: true})
		}
	}
	results, err := o.runAll(cfgs)
	if err != nil {
		return nil, err
	}

	columns := append([]string{"cpi"}, topdown.Names()...)
	tables := make([]*Table, 0, len(wls))
	for i, wl := range wls {
		t := &Table{
			Title:   fmt.Sprintf("CPI stack on %s (cycles per instruction by slot category)", wl),
			Columns: columns,
			Notes:   "category columns sum to cpi; base is useful issue, the rest are stalls",
		}
		for j, arch := range archs {
			r := results[i*len(archs)+j].Topdown
			if r == nil {
				return nil, fmt.Errorf("exp: %s/%s returned no topdown report", arch, wl)
			}
			values := map[string]float64{"cpi": r.CPI}
			for name, v := range r.CPIStack {
				values[name] = v
			}
			t.Rows = append(t.Rows, Row{Label: arch, Values: values})
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// WriteCSV renders the table as CSV: a title comment row, the header, then
// one row per label. Missing cells render empty.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{"label"}, t.Columns...)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range t.Rows {
		row := make([]string, 0, len(header))
		row = append(row, r.Label)
		for _, c := range t.Columns {
			if v, ok := r.Values[c]; ok {
				row = append(row, strconv.FormatFloat(v, 'f', 6, 64))
			} else {
				row = append(row, "")
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
