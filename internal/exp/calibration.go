package exp

import (
	"sort"

	"repro"
	"repro/internal/workload"
)

// Calibration runs every catalogued calibrated operating point
// (workload.CalibPresets) on the unified out-of-order scheduler and
// tabulates the measured steady-state IPC against the Carroll–Lin
// closed-form prediction. The error column is the model-validation
// number TestCalibratedIPC holds under 10%; the table makes the same
// cross-check inspectable at experiment fidelity.
func Calibration(o Options) (*Table, error) {
	o = o.withDefaults()
	names := make([]string, 0, len(workload.CalibPresets))
	for name := range workload.CalibPresets {
		names = append(names, name)
	}
	sort.Strings(names)

	// Warm up one fifth of the budget: the prediction describes the
	// steady-state recurrence throughput, not the loop's fill transient.
	warm := o.Ops / 5
	cfgs := make([]ballerino.Config, len(names))
	for i, name := range names {
		cfgs[i] = ballerino.Config{
			Arch: "OoO", Workload: name,
			MaxOps: o.Ops - warm, WarmupOps: warm,
		}
	}
	results, err := o.runAll(cfgs)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:   "Calibrated operating points: measured IPC vs queuing-model prediction (OoO)",
		Columns: []string{"predicted", "measured", "error_pct"},
		Notes:   "prediction is the Carroll–Lin bottleneck closed form over the kernel's dependence chains",
	}
	for i, name := range names {
		pred, err := workload.PredictIPC(workload.CalibPresets[name], 8)
		if err != nil {
			return nil, err
		}
		meas := results[i].IPC
		t.Rows = append(t.Rows, Row{Label: name, Values: map[string]float64{
			"predicted": pred,
			"measured":  meas,
			"error_pct": 100 * (meas - pred) / pred,
		}})
	}
	return t, nil
}
