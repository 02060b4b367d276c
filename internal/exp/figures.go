package exp

import (
	"fmt"

	"repro"
)

// Figure is one single-table experiment and the id cmd/experiments
// selects it by.
type Figure struct {
	Name string
	Run  func(Options) (*Table, error)
}

// Figures lists every single-table experiment in the order
// cmd/experiments prints them.
var Figures = []Figure{
	{"3c", Fig3c},
	{"4", Fig4},
	{"6a", Fig6a},
	{"6b", Fig6b},
	{"11", Fig11},
	{"12", Fig12},
	{"13", Fig13},
	{"14", Fig14},
	{"15", Fig15},
	{"16", Fig16},
	{"17a", Fig17a},
	{"17b", Fig17b},
	{"17c", Fig17c},
	{"mdp", MDPImpact},
	{"ablations", Ablations},
	{"casino-search", CasinoSearch},
	{"calib", Calibration},
}

// fig11Archs is the Figure 11 comparison set.
var fig11Archs = []string{"CES", "CASINO", "FXA", "Ballerino", "Ballerino-12", "OoO", "OoO-oldest"}

// fig13Variants is the Figure 13 step sequence.
var fig13Variants = []string{"CES", "CES+MDA", "Ballerino-step1", "Ballerino-step2", "Ballerino", "Ballerino-ideal"}

// Fig3c reproduces Figure 3c: the average decode-to-issue delay breakdown
// of InO, CES, CASINO and OoO, per instruction class (Ld, LdC, Rst).
func Fig3c(o Options) (*Table, error) {
	return delayTable(o, &Table{
		Title: "Figure 3c — decode-to-issue cycle breakdown (avg over kernels)",
		Notes: "rows are arch/class; paper shows the same four microarchitectures",
	}, []string{"InO", "CES", "CASINO", "OoO"}, []string{"Ld", "LdC", "Rst", "All"})
}

// delayTable fills t with one arch/class row per architecture and
// instruction class: the decode-to-issue breakdown averaged over the
// suite, weighting each run by its μop count in the class. A class no run
// issued gets no row.
func delayTable(o Options, t *Table, archs, classes []string) (*Table, error) {
	o = o.withDefaults()
	t.Columns = []string{"dec→disp", "disp→rdy", "rdy→issue", "total"}
	for _, arch := range archs {
		suite, err := o.suite(ballerino.Config{Arch: arch})
		if err != nil {
			return nil, err
		}
		for _, cls := range classes {
			var d2d, d2r, r2i, n float64
			for _, r := range suite {
				d := r.Delay[cls]
				w := float64(d.Count)
				d2d += d.DecodeToDispatch * w
				d2r += d.DispatchToReady * w
				r2i += d.ReadyToIssue * w
				n += w
			}
			if n == 0 {
				continue
			}
			t.Rows = append(t.Rows, Row{
				Label: arch + "/" + cls,
				Values: map[string]float64{
					"dec→disp":  d2d / n,
					"disp→rdy":  d2r / n,
					"rdy→issue": r2i / n,
					"total":     (d2d + d2r + r2i) / n,
				},
			})
		}
	}
	return t, nil
}

// Fig4 reproduces Figure 4: the breakdown of CES steering outcomes,
// split by dispatch readiness, per kernel.
func Fig4(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{
		Title:   "Figure 4 — CES steering outcome breakdown (fractions)",
		Columns: []string{"steer_dc", "alloc_rdy", "alloc_nrdy", "stall_rdy", "stall_nrdy", "speedup"},
		Notes:   "paper: 27% steer along DCs; Allocate and Stall dominated by Ready μops",
	}
	ino, err := o.suite(ballerino.Config{Arch: "InO"})
	if err != nil {
		return nil, err
	}
	ces, err := o.suite(ballerino.Config{Arch: "CES"})
	if err != nil {
		return nil, err
	}
	for i, r := range ces {
		c := r.SchedCounters
		total := float64(c["steer_dc"] + c["steer_m"] + c["alloc_ready"] + c["alloc_nonready"] +
			c["stall_ready"] + c["stall_nonready"])
		if total == 0 {
			continue
		}
		t.Rows = append(t.Rows, Row{
			Label: o.Workloads[i],
			Values: map[string]float64{
				"steer_dc":   float64(c["steer_dc"]+c["steer_m"]) / total,
				"alloc_rdy":  float64(c["alloc_ready"]) / total,
				"alloc_nrdy": float64(c["alloc_nonready"]) / total,
				"stall_rdy":  float64(c["stall_ready"]) / total,
				"stall_nrdy": float64(c["stall_nonready"]) / total,
				"speedup":    r.IPC / ino[i].IPC,
			},
		})
	}
	return t, nil
}

// Fig6a reproduces Figure 6a: what P-IQ heads spend cycles on in the Step 2
// design (issue, M-dependence stalls, data stalls, empty).
func Fig6a(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{
		Title:   "Figure 6a — P-IQ head cycle breakdown, Step 2 design (fractions)",
		Columns: []string{"issue", "stall_mdep", "stall_data", "empty"},
		Notes:   "paper: ≈9% of issue stalls from M-dependent loads; heads issue only ≈6% of cycles",
	}
	step2, err := o.suite(ballerino.Config{Arch: "Ballerino-step2"})
	if err != nil {
		return nil, err
	}
	for i, r := range step2 {
		c := r.SchedCounters
		total := float64(c["head_issue"] + c["head_stall_mdep"] + c["head_stall_dep"] + c["head_empty"])
		if total == 0 {
			continue
		}
		t.Rows = append(t.Rows, Row{
			Label: o.Workloads[i],
			Values: map[string]float64{
				"issue":      float64(c["head_issue"]) / total,
				"stall_mdep": float64(c["head_stall_mdep"]) / total,
				"stall_data": float64(c["head_stall_dep"]) / total,
				"empty":      float64(c["head_empty"]) / total,
			},
		})
	}
	return t, nil
}

// Fig6b reproduces Figure 6b: Step-2 IPC sensitivity to the number and
// size of P-IQs (geomean speedup over InO).
func Fig6b(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{
		Title:   "Figure 6b — Step 2 sensitivity to P-IQ count and size (speedup over InO)",
		Columns: []string{"depth6", "depth12", "depth24"},
		Notes:   "paper: sensitive to the count, much less to the size",
	}
	ino, err := o.suite(ballerino.Config{Arch: "InO"})
	if err != nil {
		return nil, err
	}
	for _, n := range []int{3, 5, 7, 9, 11} {
		row := Row{Label: fmt.Sprintf("%d P-IQs", n), Values: map[string]float64{}}
		for _, depth := range []int{6, 12, 24} {
			suite, err := o.suite(ballerino.Config{Arch: "Ballerino-step2", NumPIQs: n, PIQDepth: depth})
			if err != nil {
				return nil, err
			}
			row.Values[fmt.Sprintf("depth%d", depth)] = geoSpeedup(suite, ino)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig11 reproduces Figure 11: speedup over the in-order core for every
// 8-wide microarchitecture, per kernel plus the geometric mean.
func Fig11(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{
		Title:   "Figure 11 — speedup over InO (8-wide)",
		Columns: append(append([]string{}, o.Workloads...), "GEOMEAN"),
		Notes:   "paper: CES 2.4×, CASINO 2.1×, FXA 2.8×, Ballerino 2.7×, Ballerino-12 ≈98% of OoO; oldest-first +2%",
	}
	base, err := o.suite(ballerino.Config{Arch: "InO"})
	if err != nil {
		return nil, err
	}
	for _, arch := range fig11Archs {
		suite, err := o.suite(ballerino.Config{Arch: arch})
		if err != nil {
			return nil, err
		}
		row := Row{Label: arch, Values: map[string]float64{}}
		for i, wl := range o.Workloads {
			row.Values[wl] = suite[i].IPC / base[i].IPC
		}
		row.Values["GEOMEAN"] = geoSpeedup(suite, base)
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig12 reproduces Figure 12: the scheduling-delay breakdown of Ballerino
// compared to CES, CASINO and OoO.
func Fig12(o Options) (*Table, error) {
	return delayTable(o, &Table{
		Title: "Figure 12 — scheduling performance (decode-to-issue breakdown)",
		Notes: "paper: Ballerino's decode→dispatch ≪ CES, slightly above CASINO; LdC ready→issue ≈ 0",
	}, []string{"CES", "CASINO", "Ballerino", "OoO"}, []string{"Ld", "LdC", "Rst"})
}

// Fig13 reproduces Figure 13: geomean speedup over InO as the proposed
// techniques are applied step by step.
func Fig13(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{
		Title:   "Figure 13 — step-by-step performance gain over InO",
		Columns: []string{"speedup", "delta_pp"},
		Notes:   "paper deltas: +MDA +4pp, Step1 +7pp over CES, Step2 +5pp, Step3 +13pp, ideal +5pp",
	}
	base, err := o.suite(ballerino.Config{Arch: "InO"})
	if err != nil {
		return nil, err
	}
	prev := 0.0
	for _, arch := range fig13Variants {
		suite, err := o.suite(ballerino.Config{Arch: arch})
		if err != nil {
			return nil, err
		}
		sp := geoSpeedup(suite, base)
		delta := 0.0
		if prev > 0 {
			delta = (sp - prev) * 100
		}
		t.Rows = append(t.Rows, Row{Label: arch, Values: map[string]float64{
			"speedup": sp, "delta_pp": delta,
		}})
		prev = sp
	}
	return t, nil
}

// Fig14 reproduces Figure 14: the fraction of μops issued from the S-IQ
// versus the P-IQs for each Ballerino step.
func Fig14(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{
		Title:   "Figure 14 — issue source breakdown per design step",
		Columns: []string{"S-IQ", "P-IQ"},
		Notes:   "paper: the S-IQ speculatively issues ≈41% of dynamic μops at Step 1",
	}
	for _, arch := range []string{"Ballerino-step1", "Ballerino-step2", "Ballerino", "Ballerino-ideal"} {
		suite, err := o.suite(ballerino.Config{Arch: arch})
		if err != nil {
			return nil, err
		}
		var siq, piq float64
		for _, r := range suite {
			siq += float64(r.SchedCounters["issued_siq"])
			piq += float64(r.SchedCounters["issued_piq"])
		}
		if siq+piq == 0 {
			continue
		}
		t.Rows = append(t.Rows, Row{Label: arch, Values: map[string]float64{
			"S-IQ": siq / (siq + piq), "P-IQ": piq / (siq + piq),
		}})
	}
	return t, nil
}

// Fig15 reproduces Figure 15: core-wide energy by component, normalised to
// the out-of-order core.
func Fig15(o Options) (*Table, error) {
	o = o.withDefaults()
	archs := []string{"CES", "CASINO", "FXA", "Ballerino", "Ballerino-12", "OoO"}
	comps := []string{"L1 I/D$", "Fetch/Decode", "Rename", "Steer", "MDP", "Schedule", "LSQ", "PRF", "FUs"}
	t := &Table{
		Title:   "Figure 15 — core energy by component, normalised to OoO",
		Columns: append(append([]string{}, comps...), "TOTAL"),
		Notes:   "paper: Ballerino ≈62% of OoO, ≈CES; CASINO and FXA higher",
	}
	// sums[arch][j] is comps[j]'s energy summed over the suite.
	sums := map[string][]float64{}
	for _, arch := range archs {
		suite, err := o.suite(ballerino.Config{Arch: arch})
		if err != nil {
			return nil, err
		}
		s := make([]float64, len(comps))
		for _, r := range suite {
			for j, c := range comps {
				s[j] += r.EnergyByComponent[c]
			}
		}
		sums[arch] = s
	}
	var oooTotal float64
	for _, v := range sums["OoO"] {
		oooTotal += v
	}
	for _, arch := range archs {
		row := Row{Label: arch, Values: map[string]float64{}}
		var tot float64
		for j, c := range comps {
			v := sums[arch][j] / oooTotal
			row.Values[c] = v
			tot += v
		}
		row.Values["TOTAL"] = tot
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig16 reproduces Figure 16: energy efficiency (performance per energy,
// 1/EDP) normalised to the out-of-order core.
func Fig16(o Options) (*Table, error) {
	o = o.withDefaults()
	archs := []string{"CES", "CASINO", "FXA", "Ballerino", "Ballerino-12", "OoO"}
	t := &Table{
		Title:   "Figure 16 — energy efficiency (1/EDP) normalised to OoO",
		Columns: []string{"efficiency"},
		Notes:   "paper: Ballerino +22% vs OoO, +9% vs CES, +42% vs CASINO, +5% vs FXA",
	}
	eff := map[string]float64{}
	for _, arch := range archs {
		suite, err := o.suite(ballerino.Config{Arch: arch})
		if err != nil {
			return nil, err
		}
		var edps []float64
		for _, r := range suite {
			edps = append(edps, r.EDP)
		}
		eff[arch] = 1 / ballerino.GeoMean(edps)
	}
	for _, arch := range archs {
		t.Rows = append(t.Rows, Row{Label: arch, Values: map[string]float64{
			"efficiency": eff[arch] / eff["OoO"],
		}})
	}
	return t, nil
}

// Fig17a reproduces Figure 17a: execution-time speedup over the 2-wide
// in-order core across issue widths, accounting for each width's clock.
func Fig17a(o Options) (*Table, error) {
	o = o.withDefaults()
	archs := []string{"InO", "CASINO", "CES", "FXA", "Ballerino", "OoO"}
	widths := []int{2, 4, 8, 10}
	t := &Table{
		Title:   "Figure 17a — speedup over 2-wide InO across issue widths (wall-clock)",
		Columns: []string{"w2", "w4", "w8", "w10"},
		Notes:   "paper: InO and CASINO flatten beyond 8-wide; CES/Ballerino/FXA/OoO keep scaling",
	}
	base, err := o.suite(ballerino.Config{Arch: "InO", Width: 2})
	if err != nil {
		return nil, err
	}
	for _, arch := range archs {
		row := Row{Label: arch, Values: map[string]float64{}}
		for _, w := range widths {
			suite, err := o.suite(ballerino.Config{Arch: arch, Width: w})
			if err != nil {
				return nil, err
			}
			var ratios []float64
			for i, r := range suite {
				ratios = append(ratios, base[i].TimeSeconds/r.TimeSeconds)
			}
			row.Values[fmt.Sprintf("w%d", w)] = ballerino.GeoMean(ratios)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig17b reproduces Figure 17b: speedup, energy and efficiency of Ballerino
// and OoO at the four DVFS levels, normalised to CES at L4.
func Fig17b(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{
		Title:   "Figure 17b — DVFS levels (normalised to CES @ L4)",
		Columns: []string{"speedup", "energy", "efficiency"},
		Notes:   "paper: Ballerino@L3 ≈ CES power budget with +5% perf; Ballerino@L2 ≈ CES perf at +9% efficiency",
	}
	type point struct{ time, energy float64 }
	measure := func(arch, level string) (point, error) {
		suite, err := o.suite(ballerino.Config{Arch: arch, DVFS: level})
		if err != nil {
			return point{}, err
		}
		var times, energies []float64
		for _, r := range suite {
			times = append(times, r.TimeSeconds)
			energies = append(energies, r.EnergyPJ)
		}
		return point{ballerino.GeoMean(times), ballerino.GeoMean(energies)}, nil
	}
	base, err := measure("CES", "L4")
	if err != nil {
		return nil, err
	}
	for _, arch := range []string{"Ballerino", "OoO"} {
		for _, lvl := range []string{"L4", "L3", "L2", "L1"} {
			p, err := measure(arch, lvl)
			if err != nil {
				return nil, err
			}
			sp := base.time / p.time
			en := p.energy / base.energy
			t.Rows = append(t.Rows, Row{Label: arch + "@" + lvl, Values: map[string]float64{
				"speedup": sp, "energy": en, "efficiency": sp / en,
			}})
		}
	}
	return t, nil
}

// Fig17c reproduces Figure 17c: Ballerino performance versus the number of
// P-IQs (geomean speedup over InO).
func Fig17c(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{
		Title:   "Figure 17c — Ballerino sensitivity to the number of P-IQs",
		Columns: []string{"speedup"},
		Notes:   "paper: gains up to eleven P-IQs, flattening beyond",
	}
	base, err := o.suite(ballerino.Config{Arch: "InO"})
	if err != nil {
		return nil, err
	}
	for _, n := range []int{3, 5, 7, 9, 11, 13, 15} {
		suite, err := o.suite(ballerino.Config{Arch: "Ballerino", NumPIQs: n})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, Row{Label: fmt.Sprintf("%d P-IQs", n), Values: map[string]float64{
			"speedup": geoSpeedup(suite, base),
		}})
	}
	return t, nil
}

// MDPImpact reproduces the §III-B claim: MDP removes ≈96% of memory order
// violations, speeding the baseline up by ≈1.5× where violations occur.
func MDPImpact(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{
		Title:   "§III-B — impact of memory dependence prediction (OoO)",
		Columns: []string{"viol_off", "viol_on", "removed", "speedup"},
		Notes:   "paper: 96% of violations removed, 1.5× average speedup",
	}
	ons, err := o.suite(ballerino.Config{Arch: "OoO"})
	if err != nil {
		return nil, err
	}
	offs, err := o.suite(ballerino.Config{Arch: "OoO", DisableMDP: true})
	if err != nil {
		return nil, err
	}
	for i, wl := range o.Workloads {
		on, off := ons[i], offs[i]
		removed := 0.0
		if off.Violations > 0 {
			removed = 1 - float64(on.Violations)/float64(off.Violations)
		}
		t.Rows = append(t.Rows, Row{Label: wl, Values: map[string]float64{
			"viol_off": float64(off.Violations),
			"viol_on":  float64(on.Violations),
			"removed":  removed,
			"speedup":  on.IPC / off.IPC,
		}})
	}
	return t, nil
}
