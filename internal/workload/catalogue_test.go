package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/prog"
)

// -update regenerates testdata/catalogue.golden from the current kernels.
// Run it only when a kernel change is intended and reviewed.
var updateGolden = flag.Bool("update", false, "rewrite testdata/catalogue.golden")

// goldenUops is how many leading μops of each kernel the golden pins.
const goldenUops = 5000

// programDigest hashes everything a program is: name, every static
// instruction field, and the initial register and memory images in
// ascending order.
func programDigest(p *prog.Program) []byte {
	h := sha256.New()
	var buf []byte
	buf = append(buf, p.Name...)
	for _, in := range p.Insts {
		halt := byte(0)
		if in.Halt {
			halt = 1
		}
		buf = append(buf, byte(in.Op), byte(in.Fn), byte(in.Cond),
			byte(in.Dst), byte(in.Src1), byte(in.Src2), byte(in.Base), halt)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(in.Imm))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(in.Target))
	}
	regs := make([]int, 0, len(p.InitReg))
	for r := range p.InitReg {
		regs = append(regs, int(r))
	}
	sort.Ints(regs)
	for _, r := range regs {
		buf = append(buf, byte(r))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(p.InitReg[isa.Reg(r)]))
	}
	addrs := make([]uint64, 0, len(p.InitMem))
	for a := range p.InitMem {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		buf = binary.LittleEndian.AppendUint64(buf, a)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(p.InitMem[a]))
	}
	h.Write(buf)
	return h.Sum(nil)
}

// streamDigest hashes every field of every μop in ops.
func streamDigest(ops []isa.DynInst) []byte {
	h := sha256.New()
	buf := make([]byte, 0, 64)
	for i := range ops {
		d := &ops[i]
		taken := byte(0)
		if d.Taken {
			taken = 1
		}
		buf = binary.LittleEndian.AppendUint64(buf[:0], d.Seq)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(d.PC))
		buf = append(buf, byte(d.Op), byte(d.Fn), byte(d.Cond),
			byte(d.Dst), byte(d.Src1), byte(d.Src2), d.Size, taken)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(d.Imm))
		buf = binary.LittleEndian.AppendUint64(buf, d.Addr)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(d.Next))
		h.Write(buf)
	}
	return h.Sum(nil)
}

// catalogueGolden renders one block per catalogue kernel at default
// parameters, in catalogue order: its metadata, its program digest and
// the digest of its first goldenUops μops.
func catalogueGolden(t *testing.T) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, k := range Kernels() {
		w, err := ByName(k.Name, Params{})
		if err != nil {
			t.Fatal(err)
		}
		if w.Name != k.Name || w.Kind != k.Kind || w.Emulate != k.Emulate {
			t.Errorf("ByName(%q) metadata %q/%q/%q differs from its catalogue entry %+v",
				k.Name, w.Name, w.Kind, w.Emulate, k)
		}
		p := w.Program
		tr := prog.MustExecute(p, goldenUops)
		fmt.Fprintf(&b, "%s kind=%s extra=%t emulate=%q\n", k.Name, k.Kind, k.Extra, k.Emulate)
		fmt.Fprintf(&b, "  program insts=%d regs=%d mem=%d sha256=%x\n",
			len(p.Insts), len(p.InitReg), len(p.InitMem), programDigest(p))
		fmt.Fprintf(&b, "  uops n=%d sha256=%x\n", len(tr.Ops), streamDigest(tr.Ops))
		runtime.GC() // the next kernel's full-footprint image need not coexist with this one
	}
	return b.Bytes()
}

// TestCatalogueGolden pins every catalogue kernel — metadata, program and
// the head of its dynamic stream — byte for byte, so a change to how the
// catalogue is assembled cannot silently change a kernel.
func TestCatalogueGolden(t *testing.T) {
	got := catalogueGolden(t)
	path := filepath.Join("testdata", "catalogue.golden")
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
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("catalogue.golden line %d:\n got %s\nwant %s", i+1, g, w)
		}
	}
}

// TestByNameBuildsOnlyItsKernel guards the catalogue's cost: building the
// L1-resident compute kernel must not pay for any other kernel's memory
// image.
func TestByNameBuildsOnlyItsKernel(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ByName("compute", Params{}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("ByName(compute) allocated %d bytes, want under 1 MiB", got)
	}
}
