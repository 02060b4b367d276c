package tracefile

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"sort"

	"repro/internal/isa"
	"repro/internal/prog"
)

// Encode writes tr as one complete ballerino.trace/v1 file under header h:
// the program, the dynamic stream framed in chunks of OpsPerChunk, the
// final-state oracle when present, and the end chunk (total op count +
// stream digest). Zero-valued Format/Version/ISA header fields are filled
// with this package's own identity. Only the dynamic facts of each op are
// encoded — PC, effective address (as a delta against the previous memory
// op) and branch outcome; everything a μop inherits from its static
// instruction is rebuilt from the program chunk on import by isa.Inst.Dyn,
// the functional interpreter's constructor. Programs and memory images
// are written sorted, so identical traces always produce identical bytes.
func Encode(wr io.Writer, h Header, tr *prog.Trace) error {
	if h.Format == "" {
		h.Format = Format
	}
	if h.Version == 0 {
		h.Version = Version
	}
	if h.ISA == (ISAInfo{}) {
		h.ISA = ISAInfo{
			IntRegs:   isa.NumIntRegs,
			FpRegs:    isa.NumFpRegs,
			OpClasses: isa.NumOps,
			WordBytes: 8,
		}
	}
	if h.Format != Format || h.Version != Version {
		return fmt.Errorf("tracefile: writer only produces %s version %d, not %s version %d",
			Format, Version, h.Format, h.Version)
	}
	hb, err := json.Marshal(h)
	if err != nil {
		return fmt.Errorf("tracefile: header: %w", err)
	}
	p := tr.Program
	if len(p.Insts) > maxInsts {
		return fmt.Errorf("tracefile: program has %d instructions (max %d)", len(p.Insts), maxInsts)
	}
	// bufio.Writer latches its first error and returns it from Flush.
	w := bufio.NewWriterSize(wr, 1<<16)
	w.WriteString(Magic)
	frame(w, hb)
	// The image's addresses are sorted once, for the program chunk and the
	// final-state chunk both.
	image := sortedAddrs(p.InitMem)
	buf := appendProgram(nil, p, image)
	writeChunk(w, chunkProgram, buf)

	digest, prevAddr := uint64(fnvOffset), uint64(0)
	for start := 0; start < len(tr.Ops); start += OpsPerChunk {
		ops := tr.Ops[start:min(start+OpsPerChunk, len(tr.Ops))]
		buf = binary.AppendUvarint(buf[:0], uint64(len(ops)))
		for i := range ops {
			d := &ops[i]
			if d.PC < 0 || d.PC >= len(p.Insts) {
				return fmt.Errorf("tracefile: op #%d: pc %d outside program (%d insts)", d.Seq, d.PC, len(p.Insts))
			}
			buf = binary.AppendUvarint(buf, uint64(d.PC))
			switch {
			case d.Op.IsMem():
				buf = binary.AppendUvarint(buf, zigzag(int64(d.Addr-prevAddr)))
				prevAddr = d.Addr
			case d.Op == isa.OpBranch:
				t := byte(0)
				if d.Taken {
					t = 1
				}
				buf = append(buf, t)
			}
		}
		digest = fnvSum(digest, buf)
		writeChunk(w, chunkOps, buf)
	}

	if st := tr.Final; st != nil {
		buf = buf[:0]
		for _, v := range st.Regs {
			buf = binary.AppendUvarint(buf, zigzag(v))
		}
		// A final state's base is the program's image, or nil when an
		// import kept every final word in Mem (prog.ArchState).
		if len(st.Base) != len(p.InitMem) {
			image = sortedAddrs(st.Base)
		}
		writeChunk(w, chunkFinal, appendMemImage(buf, image, st.Base, st.Mem))
	}
	buf = binary.AppendUvarint(buf[:0], uint64(len(tr.Ops)))
	writeChunk(w, chunkEnd, binary.LittleEndian.AppendUint64(buf, digest))
	return w.Flush()
}

// frame writes payload as its uvarint length, the payload and its CRC-32C:
// the framing of the header and of every chunk.
func frame(w *bufio.Writer, payload []byte) {
	w.Write(binary.AppendUvarint(nil, uint64(len(payload))))
	w.Write(payload)
	w.Write(binary.LittleEndian.AppendUint32(nil, crc32.Checksum(payload, crcTable)))
}

// writeChunk writes payload as one chunk of the given type.
func writeChunk(w *bufio.Writer, typ byte, payload []byte) {
	w.WriteByte(typ)
	frame(w, payload)
}

// appendProgram encodes the static program: name, instructions, and the
// initial register and memory images; image lists the memory image's
// addresses in ascending order.
func appendProgram(buf []byte, p *prog.Program, image []uint64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(p.Name)))
	buf = append(buf, p.Name...)
	buf = binary.AppendUvarint(buf, uint64(len(p.Insts)))
	for i := range p.Insts {
		in := &p.Insts[i]
		buf = append(buf, byte(in.Op)|byte(in.Fn)<<4)
		cond := byte(in.Cond)
		if in.Halt {
			cond |= 0x80
		}
		buf = append(buf, cond, byte(in.Dst), byte(in.Src1), byte(in.Src2), byte(in.Base))
		buf = binary.AppendUvarint(buf, zigzag(in.Imm))
		if in.Op == isa.OpBranch {
			buf = binary.AppendUvarint(buf, uint64(in.Target))
		}
	}
	regs := make([]int, 0, len(p.InitReg))
	for r := range p.InitReg {
		regs = append(regs, int(r))
	}
	sort.Ints(regs)
	buf = binary.AppendUvarint(buf, uint64(len(regs)))
	for _, r := range regs {
		buf = append(buf, byte(r))
		buf = binary.AppendUvarint(buf, zigzag(p.InitReg[isa.Reg(r)]))
	}
	return appendMemImage(buf, image, p.InitMem, nil)
}

// appendMemImage encodes a sparse word memory — base, whose addresses
// addrs lists in ascending order, overlaid by written, which wins where
// both hold a word — as a count, then address-ascending (delta-uvarint
// address, zigzag-varint value) pairs. It walks addrs in step with
// written's sorted addresses, so only written's own words are looked up
// in written.
func appendMemImage(buf []byte, addrs []uint64, base, written map[uint64]int64) []byte {
	over := sortedAddrs(written)
	n := len(addrs)
	for _, a := range over {
		if _, ok := base[a]; !ok {
			n++
		}
	}
	buf = binary.AppendUvarint(buf, uint64(n))
	prev, i := uint64(0), 0
	for _, a := range over {
		for ; i < len(addrs) && addrs[i] < a; i++ {
			buf, prev = appendWord(buf, prev, addrs[i], base[addrs[i]])
		}
		if i < len(addrs) && addrs[i] == a {
			i++
		}
		buf, prev = appendWord(buf, prev, a, written[a])
	}
	for ; i < len(addrs); i++ {
		buf, prev = appendWord(buf, prev, addrs[i], base[addrs[i]])
	}
	return buf
}

// sortedAddrs returns m's addresses in ascending order.
func sortedAddrs(m map[uint64]int64) []uint64 {
	addrs := make([]uint64, 0, len(m))
	for a := range m {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	return addrs
}

// appendWord encodes one memory word at address a, after the word at
// prev, and returns a as the next word's prev.
func appendWord(buf []byte, prev, a uint64, v int64) ([]byte, uint64) {
	buf = binary.AppendUvarint(buf, a-prev)
	return binary.AppendUvarint(buf, zigzag(v)), a
}
