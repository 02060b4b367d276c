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

// Encode writes tr as one complete trace file under header h: program,
// dynamic stream, and — when present — the final-state oracle.
func Encode(wr io.Writer, h Header, tr *prog.Trace) error {
	w, err := NewWriter(wr, h)
	if err != nil {
		return err
	}
	if err := w.WriteProgram(tr.Program); err != nil {
		return err
	}
	if err := w.WriteOps(tr.Ops); err != nil {
		return err
	}
	if tr.Final != nil {
		if err := w.WriteFinal(tr.Final); err != nil {
			return err
		}
	}
	return w.Close()
}

// A Writer streams one trace to an io.Writer in ballerino.trace/v1
// format. Call the section methods in file order — WriteProgram, then
// WriteOps (any number of times), then optionally WriteFinal — and Close
// to seal the end chunk. The writer holds at most
// one chunk in memory, so exporting a multi-million-μop trace streams at
// constant memory.
type Writer struct {
	w   *bufio.Writer
	err error

	stage   byte // highest chunk type written so far
	buf     []byte
	pending int // ops encoded into buf but not yet framed

	opsWritten uint64
	prevAddr   uint64
	digest     uint64
	insts      int // program length, for PC validation on write
}

// NewWriter writes the magic and header and returns a Writer for the
// chunk sections. Zero-valued Format/Version/ISA fields are filled with
// this package's own identity.
func NewWriter(w io.Writer, h Header) (*Writer, error) {
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
		return nil, fmt.Errorf("tracefile: writer only produces %s version %d, not %s version %d",
			Format, Version, h.Format, h.Version)
	}
	hb, err := json.Marshal(h)
	if err != nil {
		return nil, fmt.Errorf("tracefile: header: %w", err)
	}
	tw := &Writer{w: bufio.NewWriterSize(w, 1<<16), digest: fnvOffset}
	tw.write([]byte(Magic))
	tw.write(binary.AppendUvarint(nil, uint64(len(hb))))
	tw.write(hb)
	tw.writeCRC(hb)
	if tw.err != nil {
		return nil, tw.err
	}
	return tw, nil
}

func (w *Writer) write(b []byte) {
	if w.err != nil {
		return
	}
	_, w.err = w.w.Write(b)
}

func (w *Writer) writeCRC(payload []byte) {
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(payload, crcTable))
	w.write(crc[:])
}

// writeChunk frames payload as one chunk of the given type.
func (w *Writer) writeChunk(typ byte, payload []byte) {
	w.write([]byte{typ})
	w.write(binary.AppendUvarint(nil, uint64(len(payload))))
	w.write(payload)
	w.writeCRC(payload)
}

// advance enforces the fixed section order.
func (w *Writer) advance(typ byte) error {
	if w.err != nil {
		return w.err
	}
	if typ < w.stage || (typ == w.stage && typ != chunkOps) {
		w.err = fmt.Errorf("tracefile: chunk type %#02x written out of order (after %#02x)", typ, w.stage)
		return w.err
	}
	if typ != chunkOps && w.pending > 0 {
		w.flushOps()
	}
	w.stage = typ
	return w.err
}

// WriteProgram encodes the static program: name, instructions, and the
// initial register and memory images (sorted, so identical programs
// always produce identical bytes).
func (w *Writer) WriteProgram(p *prog.Program) error {
	if err := w.advance(chunkProgram); err != nil {
		return err
	}
	if len(p.Insts) > maxInsts {
		w.err = fmt.Errorf("tracefile: program has %d instructions (max %d)", len(p.Insts), maxInsts)
		return w.err
	}
	buf := w.buf[:0]
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
	buf = appendMemImage(buf, p.InitMem, nil)
	w.insts = len(p.Insts)
	w.writeChunk(chunkProgram, buf)
	w.buf = buf[:0]
	return w.err
}

// appendMemImage encodes a sparse word memory — base overlaid by written,
// which wins where both hold a word — as a count, then address-ascending
// (delta-uvarint address, zigzag-varint value) pairs.
func appendMemImage(buf []byte, base, written map[uint64]int64) []byte {
	addrs := make([]uint64, 0, len(base)+len(written))
	for a := range base {
		addrs = append(addrs, a)
	}
	for a := range written {
		if _, ok := base[a]; !ok {
			addrs = append(addrs, a)
		}
	}
	slices.Sort(addrs)
	buf = binary.AppendUvarint(buf, uint64(len(addrs)))
	prev := uint64(0)
	for _, a := range addrs {
		v, ok := written[a]
		if !ok {
			v = base[a]
		}
		buf = binary.AppendUvarint(buf, a-prev)
		buf = binary.AppendUvarint(buf, zigzag(v))
		prev = a
	}
	return buf
}

// WriteOps appends a slice of the dynamic μop stream. Ops must arrive in
// stream order; the writer frames them into chunks of OpsPerChunk. Only
// the dynamic facts are encoded — PC, effective address (as a delta
// against the previous memory op) and branch outcome; everything a μop
// inherits from its static instruction is rebuilt from the program chunk
// on import by isa.Inst.Dyn, the functional interpreter's constructor.
func (w *Writer) WriteOps(ops []isa.DynInst) error {
	if err := w.advance(chunkOps); err != nil {
		return err
	}
	if w.insts == 0 {
		w.err = fmt.Errorf("tracefile: ops written before program")
		return w.err
	}
	for i := range ops {
		d := &ops[i]
		if d.PC < 0 || d.PC >= w.insts {
			w.err = fmt.Errorf("tracefile: op #%d: pc %d outside program (%d insts)", d.Seq, d.PC, w.insts)
			return w.err
		}
		w.buf = binary.AppendUvarint(w.buf, uint64(d.PC))
		switch {
		case d.Op.IsMem():
			w.buf = binary.AppendUvarint(w.buf, zigzag(int64(d.Addr-w.prevAddr)))
			w.prevAddr = d.Addr
		case d.Op == isa.OpBranch:
			t := byte(0)
			if d.Taken {
				t = 1
			}
			w.buf = append(w.buf, t)
		}
		w.pending++
		if w.pending == OpsPerChunk {
			w.flushOps()
		}
	}
	return w.err
}

// flushOps frames the pending ops into one chunk and folds its payload
// into the stream digest.
func (w *Writer) flushOps() {
	payload := binary.AppendUvarint(nil, uint64(w.pending))
	payload = append(payload, w.buf...)
	w.digest = fnvSum(w.digest, payload)
	w.writeChunk(chunkOps, payload)
	w.opsWritten += uint64(w.pending)
	w.pending = 0
	w.buf = w.buf[:0]
}

// WriteFinal encodes the final architectural state oracle — its registers
// and its whole memory image, the base with every written word laid over
// it. Optional.
func (w *Writer) WriteFinal(st *prog.ArchState) error {
	if err := w.advance(chunkFinal); err != nil {
		return err
	}
	buf := w.buf[:0]
	for _, v := range st.Regs {
		buf = binary.AppendUvarint(buf, zigzag(v))
	}
	buf = appendMemImage(buf, st.Base, st.Mem)
	w.writeChunk(chunkFinal, buf)
	w.buf = buf[:0]
	return w.err
}

// Close flushes any pending ops, seals the file with the end chunk
// (total op count + stream digest) and flushes the underlying writer. It
// does not close the underlying io.Writer.
func (w *Writer) Close() error {
	if err := w.advance(chunkEnd); err != nil {
		return err
	}
	payload := binary.AppendUvarint(nil, w.opsWritten)
	payload = binary.LittleEndian.AppendUint64(payload, w.digest)
	w.writeChunk(chunkEnd, payload)
	if w.err == nil {
		w.err = w.w.Flush()
	}
	return w.err
}
