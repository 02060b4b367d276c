package exp

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/energy"
)

// -update regenerates testdata/figures.golden from the current harness.
// Run it only when a figure change is intended and reviewed.
var updateGolden = flag.Bool("update", false, "rewrite testdata/figures.golden")

// goldenOpts is the operating point the figure golden pins: small enough
// to render every figure in seconds, with a compute-bound, a streaming,
// a gather-heavy and a store→load kernel so every figure has contrast.
func goldenOpts() Options {
	return Options{Ops: 5_000, Workloads: []string{"compute", "stream", "sparse-trees", "store-load"}}
}

// renderFigures renders every table cmd/experiments prints, in its order:
// the configuration tables, the single-table figures, then the CPI stacks.
func renderFigures(t *testing.T, o Options) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, s := range []string{TableI(), TableII(), energy.StateReport()} {
		b.WriteString(s)
		b.WriteByte('\n')
	}
	for _, f := range Figures {
		tb, err := f.Run(o)
		if err != nil {
			t.Fatalf("figure %s: %v", f.Name, err)
		}
		b.WriteString(tb.String())
		b.WriteByte('\n')
	}
	stacks, err := CPIStacks(o)
	if err != nil {
		t.Fatalf("figure cpistack: %v", err)
	}
	for _, tb := range stacks {
		b.WriteString(tb.String())
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// TestFiguresGolden pins every rendered table byte for byte, so a change
// to how the harness runs its simulations cannot silently move a figure.
func TestFiguresGolden(t *testing.T) {
	got := renderFigures(t, goldenOpts())
	path := filepath.Join("testdata", "figures.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		reportDiff(t, "figures.golden", string(got), string(want))
	}
}

// reportDiff fails t once for every line where got and want differ.
func reportDiff(t *testing.T, name, got, want string) {
	t.Helper()
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s line %d:\n got %s\nwant %s", name, i+1, g, w)
		}
	}
}

// cellBits lists every cell of t, one "row/column=<float64 bits>" line
// each, in row and column order.
func cellBits(t *Table) string {
	var b strings.Builder
	for _, r := range t.Rows {
		for _, c := range t.Columns {
			if v, ok := r.Values[c]; ok {
				fmt.Fprintf(&b, "%s/%s=%016x\n", r.Label, c, math.Float64bits(v))
			}
		}
	}
	return b.String()
}

// TestFiguresBitReproducible re-renders the figures that reduce over many
// runs and requires every cell to repeat bit for bit: a reduction that
// iterates a map sums in a different order each time and fails here.
func TestFiguresBitReproducible(t *testing.T) {
	o := Options{Ops: 2_000, Workloads: []string{"branchy", "compute", "reduction", "pointer-chase", "hash-join"}}
	const repeats = 3
	for _, f := range []Figure{{"13", Fig13}, {"15", Fig15}, {"16", Fig16}, {"ablations", Ablations}} {
		var first string
		for i := 0; i < repeats; i++ {
			tb, err := f.Run(o)
			if err != nil {
				t.Fatalf("figure %s: %v", f.Name, err)
			}
			cells := cellBits(tb)
			if i == 0 {
				first = cells
			} else if cells != first {
				reportDiff(t, fmt.Sprintf("figure %s run %d vs run 0", f.Name, i), cells, first)
				break
			}
		}
	}
}
