package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/topdown"
)

// ManifestSchema identifies the manifest layout version.
const ManifestSchema = "ballerino.run/v1"

// Manifest is the machine-readable record of one simulation run: identity,
// configuration, wall time, final statistics, energy, scheduler counters
// and (when the recorder was attached) the metrics registry dump. It backs
// `ballsim -json` and is written alongside every traced run.
type Manifest struct {
	Schema      string `json:"schema"`
	CreatedAt   string `json:"created_at"`
	GoVersion   string `json:"go_version"`
	GitRevision string `json:"git_revision,omitempty"`
	Hostname    string `json:"hostname,omitempty"`

	Sim         SimInfo  `json:"sim"`
	WallSeconds float64  `json:"wall_seconds"`
	Stats       RunStats `json:"stats"`

	// Engine is how the cycle loop covered the measured region. Like
	// WallSeconds it says how the run was computed, not what it computed,
	// so the canonical form drops it.
	Engine *EngineInfo `json:"engine,omitempty"`

	Delay  map[string]DelayInfo `json:"delay,omitempty"`
	Energy EnergyInfo           `json:"energy"`

	SchedCounters  map[string]uint64 `json:"sched_counters,omitempty"`
	InjectedFaults map[string]uint64 `json:"injected_faults,omitempty"`
	AuditChecks    uint64            `json:"audit_checks,omitempty"`
	GoldenOps      uint64            `json:"golden_ops,omitempty"`

	Metrics   *MetricsDump `json:"metrics,omitempty"`
	Sinks     []SinkInfo   `json:"sinks,omitempty"`
	Intervals int          `json:"intervals,omitempty"`

	// Topdown is the CPI-stack cycle accounting; nil when -topdown was
	// off, keeping manifests byte-identical to pre-feature runs.
	Topdown *topdown.Report `json:"topdown,omitempty"`
}

// SimInfo names the simulated configuration.
type SimInfo struct {
	Arch      string `json:"arch"`
	Workload  string `json:"workload"`
	Width     int    `json:"width"`
	Ops       int    `json:"ops"`
	WarmupOps int    `json:"warmup_ops,omitempty"`
	NumPIQs   int    `json:"num_piqs,omitempty"`
	PIQDepth  int    `json:"piq_depth,omitempty"`
	MDP       bool   `json:"mdp"`
	DVFS      string `json:"dvfs"`
	FaultSpec string `json:"fault_spec,omitempty"`
}

// EngineInfo is how the cycle loop covered a run's measured region:
// SteppedCycles + SkippedCycles = Stats.Cycles.
type EngineInfo struct {
	SteppedCycles uint64 `json:"stepped_cycles"`
	SkippedCycles uint64 `json:"skipped_cycles"` // quiet cycles closed by jumps
	Jumps         uint64 `json:"jumps"`
	// Consults counts select's readiness consults: calls of the
	// pipeline's check that a μop can issue this cycle.
	Consults uint64 `json:"consults"`
	// SteppedFor names what made the loop step every cycle: "sinks" or
	// "faults"; empty when it could skip.
	SteppedFor string `json:"stepped_for,omitempty"`
}

// RunStats is the final counter state of the measured region.
type RunStats struct {
	Cycles         uint64  `json:"cycles"`
	Committed      uint64  `json:"committed"`
	Fetched        uint64  `json:"fetched"`
	Issued         uint64  `json:"issued"`
	IPC            float64 `json:"ipc"`
	TimeSeconds    float64 `json:"time_seconds"`
	Branches       uint64  `json:"branches"`
	Mispredicts    uint64  `json:"mispredicts"`
	MispredictRate float64 `json:"mispredict_rate"`
	Violations     uint64  `json:"violations"`
	Flushes        uint64  `json:"flushes"`
	Squashed       uint64  `json:"squashed"`
	DispatchStalls uint64  `json:"dispatch_stalls"`
	AvgOccupancy   float64 `json:"avg_occupancy"`
}

// DelayInfo is one class's average decode-to-issue delay breakdown.
type DelayInfo struct {
	Count            uint64  `json:"count"`
	DecodeToDispatch float64 `json:"decode_to_dispatch"`
	DispatchToReady  float64 `json:"dispatch_to_ready"`
	ReadyToIssue     float64 `json:"ready_to_issue"`
	Total            float64 `json:"total"`
}

// EnergyInfo is the end-of-run energy accounting.
type EnergyInfo struct {
	TotalPJ     float64            `json:"total_pj"`
	EDP         float64            `json:"edp"`
	Efficiency  float64            `json:"efficiency"`
	ByComponent map[string]float64 `json:"by_component,omitempty"`
}

// SinkInfo names one output artifact of the run.
type SinkInfo struct {
	Kind string `json:"kind"` // "chrome-trace", "events-jsonl", "metrics-csv", "manifest"
	Path string `json:"path"`
}

// NewManifest stamps a manifest with the environment identity (schema,
// time, Go version, VCS revision, hostname).
func NewManifest() *Manifest {
	m := &Manifest{
		Schema:      ManifestSchema,
		CreatedAt:   time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GitRevision: GitRevision(),
	}
	if h, err := os.Hostname(); err == nil {
		m.Hostname = h
	}
	return m
}

// GitRevision returns the VCS revision baked into the binary by the Go
// toolchain ("" when built outside a repository or from a test binary).
// A locally modified tree is suffixed with "+dirty".
func GitRevision() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	var rev, dirty string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if rev == "" {
		return ""
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	return rev + dirty
}

// JSON renders the manifest as indented JSON.
func (m *Manifest) JSON() ([]byte, error) {
	return json.MarshalIndent(m, "", "  ")
}

// Canonical returns a copy of the manifest with every
// environment-volatile field — creation time, Go version, VCS revision,
// hostname, wall time, engine counters, sink paths — zeroed. Two runs of
// the same configuration produce byte-identical canonical manifests
// regardless of machine, process or wall clock: the equality the durable
// job store's content-addressed results and the crash-recovery harness
// assert.
func (m *Manifest) Canonical() *Manifest {
	c := *m
	c.CreatedAt = ""
	c.GoVersion = ""
	c.GitRevision = ""
	c.Hostname = ""
	c.WallSeconds = 0
	c.Engine = nil
	c.Sinks = nil
	return &c
}

// CanonicalJSON renders the canonical form compactly. encoding/json
// marshals struct fields in declaration order and map keys sorted, so
// equal canonical manifests serialize to equal bytes.
func (m *Manifest) CanonicalJSON() ([]byte, error) {
	return json.Marshal(m.Canonical())
}

// WriteFile writes the manifest as indented JSON to path and records the
// artifact in its own sink list.
func (m *Manifest) WriteFile(path string) error {
	m.Sinks = append(m.Sinks, SinkInfo{Kind: "manifest", Path: path})
	b, err := m.JSON()
	if err != nil {
		return fmt.Errorf("obs: manifest: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("obs: manifest: %w", err)
	}
	return nil
}
