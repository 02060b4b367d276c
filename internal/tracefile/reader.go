package tracefile

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/isa"
	"repro/internal/prog"
)

// Decoded is the result of reading one trace file: its header and the
// reconstructed in-memory trace. Trace.Final is nil when the file omitted
// the optional final-state chunk.
type Decoded struct {
	Header Header
	Trace  *prog.Trace
}

// reader tracks the byte offset of everything it reads so every decode
// failure can say where in the file it happened.
type reader struct {
	r   *bufio.Reader
	off int64
}

// ReadByte implements io.ByteReader for binary.ReadUvarint.
func (r *reader) ReadByte() (byte, error) {
	b, err := r.r.ReadByte()
	if err == nil {
		r.off++
	}
	return b, err
}

func (r *reader) fail(section string, err error) *Error {
	return &Error{Offset: r.off, Section: section, Err: err}
}

// readFull fills b or fails with ErrTruncated.
func (r *reader) readFull(b []byte, section string) error {
	n, err := io.ReadFull(r.r, b)
	r.off += int64(n)
	if err != nil {
		return r.fail(section, ErrTruncated)
	}
	return nil
}

// readUvarint reads one uvarint, mapping EOF and varint overflow to
// typed errors.
func (r *reader) readUvarint(section string) (uint64, error) {
	v, err := binary.ReadUvarint(r)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return 0, r.fail(section, ErrTruncated)
	}
	if err != nil {
		return 0, r.fail(section, fmt.Errorf("bad varint: %w", err))
	}
	return v, nil
}

// DecodeHeader reads and validates the magic and JSON header, leaving r
// positioned at the first chunk. It is the cheap way to identify a file —
// key, workload, op count — without decoding the μop stream.
func DecodeHeader(rd io.Reader) (Header, error) {
	r := &reader{r: bufio.NewReaderSize(rd, 1<<16)}
	h, err := decodeHeader(r)
	return h, err
}

func decodeHeader(r *reader) (Header, error) {
	var h Header
	magic := make([]byte, len(Magic))
	if err := r.readFull(magic, "magic"); err != nil {
		return h, err
	}
	if string(magic) != Magic {
		return h, r.fail("magic", ErrMagic)
	}
	n, err := r.readUvarint("header")
	if err != nil {
		return h, err
	}
	if n > maxHeaderLen {
		return h, r.fail("header", fmt.Errorf("header length %d exceeds cap %d", n, maxHeaderLen))
	}
	hb := make([]byte, n)
	if err := r.readFull(hb, "header"); err != nil {
		return h, err
	}
	var crc [4]byte
	if err := r.readFull(crc[:], "header"); err != nil {
		return h, err
	}
	if binary.LittleEndian.Uint32(crc[:]) != crc32.Checksum(hb, crcTable) {
		return h, r.fail("header", ErrChecksum)
	}
	if err := json.Unmarshal(hb, &h); err != nil {
		return h, r.fail("header", fmt.Errorf("bad JSON: %w", err))
	}
	if h.Format != Format || h.Version != Version {
		return h, r.fail("header", fmt.Errorf("%w: got %q version %d, want %q version %d",
			ErrVersion, h.Format, h.Version, Format, Version))
	}
	want := ISAInfo{IntRegs: isa.NumIntRegs, FpRegs: isa.NumFpRegs, OpClasses: isa.NumOps, WordBytes: 8}
	if h.ISA != want {
		return h, r.fail("header", fmt.Errorf("ISA geometry %+v does not match this machine %+v", h.ISA, want))
	}
	if h.Ops < 0 || h.FootprintBytes < 0 {
		return h, r.fail("header", fmt.Errorf("negative workload identity (ops %d, footprint %d)", h.Ops, h.FootprintBytes))
	}
	return h, nil
}

// Decode reads one complete trace file. Every failure — truncation, CRC
// mismatch, malformed varints, out-of-range opcodes or registers, chunks
// out of order, stream digest mismatch — returns a typed *Error; Decode
// never panics on malformed input. Unknown chunk types whose CRC verifies
// are skipped (the forward-compatibility path for later minor revisions).
func Decode(rd io.Reader) (*Decoded, error) {
	r := &reader{r: bufio.NewReaderSize(rd, 1<<16)}
	h, err := decodeHeader(r)
	if err != nil {
		return nil, err
	}
	d := &Decoded{Header: h, Trace: &prog.Trace{}}
	stage := byte(0)
	digest := uint64(fnvOffset)
	prevAddr := uint64(0)
	for {
		typ, err := r.ReadByte()
		if err != nil {
			return nil, r.fail("chunk", ErrTruncated)
		}
		start := r.off - 1
		n, err := r.readUvarint("chunk")
		if err != nil {
			return nil, err
		}
		if n > maxChunkLen {
			return nil, r.fail("chunk", fmt.Errorf("chunk length %d exceeds cap %d", n, maxChunkLen))
		}
		body := make([]byte, n)
		if err := r.readFull(body, "chunk"); err != nil {
			return nil, err
		}
		var crc [4]byte
		if err := r.readFull(crc[:], "chunk"); err != nil {
			return nil, err
		}
		if binary.LittleEndian.Uint32(crc[:]) != crc32.Checksum(body, crcTable) {
			return nil, &Error{Offset: start, Section: chunkSection(typ), Err: ErrChecksum}
		}
		known := typ == chunkProgram || typ == chunkOps || typ == chunkFinal || typ == chunkEnd
		if !known {
			// Forward compatibility: skip chunk types we do not know, and
			// the retired load-value chunk older writers emitted.
			continue
		}
		if typ < stage || (typ == stage && typ != chunkOps) {
			return nil, &Error{Offset: start, Section: chunkSection(typ),
				Err: fmt.Errorf("chunk type %#02x out of order (after %#02x)", typ, stage)}
		}
		stage = typ
		p := &payload{b: body, base: start, section: chunkSection(typ)}
		switch typ {
		case chunkProgram:
			if err := decodeProgram(p, d.Trace); err != nil {
				return nil, err
			}
		case chunkOps:
			if d.Trace.Program == nil {
				return nil, p.errAt(fmt.Errorf("ops chunk before program chunk"))
			}
			digest = fnvSum(digest, body)
			if err := decodeOps(p, d.Trace, &prevAddr); err != nil {
				return nil, err
			}
		case chunkFinal:
			if err := decodeFinal(p, d.Trace); err != nil {
				return nil, err
			}
		case chunkEnd:
			count, err := p.uvarint()
			if err != nil {
				return nil, err
			}
			if count != uint64(len(d.Trace.Ops)) {
				return nil, p.errAt(fmt.Errorf("end chunk claims %d ops, stream has %d", count, len(d.Trace.Ops)))
			}
			want, err := p.u64()
			if err != nil {
				return nil, err
			}
			if want != digest {
				return nil, p.errAt(fmt.Errorf("%w: stream digest %#x, end chunk says %#x", ErrChecksum, digest, want))
			}
			if err := p.done(); err != nil {
				return nil, err
			}
			if d.Trace.Program == nil {
				return nil, p.errAt(fmt.Errorf("file has no program chunk"))
			}
			return d, nil
		}
		if typ != chunkEnd {
			if err := p.done(); err != nil {
				return nil, err
			}
		}
	}
}

func chunkSection(typ byte) string {
	switch typ {
	case chunkProgram:
		return "program"
	case chunkOps:
		return "ops"
	case chunkFinal:
		return "final-state"
	case chunkEnd:
		return "end"
	}
	return fmt.Sprintf("chunk-%#02x", typ)
}

// payload parses one chunk body, reporting failures at absolute file
// offsets.
type payload struct {
	b       []byte
	pos     int
	base    int64
	section string
}

func (p *payload) errAt(err error) *Error {
	return &Error{Offset: p.base + int64(p.pos), Section: p.section, Err: err}
}

func (p *payload) uvarint() (uint64, error) {
	v, n := binary.Uvarint(p.b[p.pos:])
	if n <= 0 {
		if n == 0 {
			return 0, p.errAt(ErrTruncated)
		}
		return 0, p.errAt(fmt.Errorf("bad varint"))
	}
	p.pos += n
	return v, nil
}

func (p *payload) varint() (int64, error) {
	u, err := p.uvarint()
	return unzigzag(u), err
}

func (p *payload) byte() (byte, error) {
	if p.pos >= len(p.b) {
		return 0, p.errAt(ErrTruncated)
	}
	b := p.b[p.pos]
	p.pos++
	return b, nil
}

func (p *payload) u64() (uint64, error) {
	if p.pos+8 > len(p.b) {
		return 0, p.errAt(ErrTruncated)
	}
	v := binary.LittleEndian.Uint64(p.b[p.pos:])
	p.pos += 8
	return v, nil
}

// remaining is the unread byte count — the bound every count field is
// checked against before allocation (each encoded element is ≥1 byte, so
// a count can never legitimately exceed it).
func (p *payload) remaining() int { return len(p.b) - p.pos }

// done requires the payload to be fully consumed: trailing bytes inside a
// known chunk are a framing error, not padding.
func (p *payload) done() error {
	if p.pos != len(p.b) {
		return p.errAt(fmt.Errorf("%d trailing bytes in %s chunk", len(p.b)-p.pos, p.section))
	}
	return nil
}

// decodeReg validates a register operand byte: a real register or RegNone.
func (p *payload) decodeReg(what string) (isa.Reg, error) {
	b, err := p.byte()
	if err != nil {
		return 0, err
	}
	r := isa.Reg(b)
	if !r.Valid() && r != isa.RegNone {
		return 0, p.errAt(fmt.Errorf("%s register %d out of range", what, b))
	}
	return r, nil
}

func decodeProgram(p *payload, tr *prog.Trace) error {
	nameLen, err := p.uvarint()
	if err != nil {
		return err
	}
	if nameLen > maxNameLen || int(nameLen) > p.remaining() {
		return p.errAt(fmt.Errorf("program name length %d exceeds cap", nameLen))
	}
	name := string(p.b[p.pos : p.pos+int(nameLen)])
	p.pos += int(nameLen)
	ninsts, err := p.uvarint()
	if err != nil {
		return err
	}
	// Each instruction encodes to ≥7 bytes, so the count is bounded by the
	// payload before anything is allocated.
	if ninsts > maxInsts || int(ninsts) > p.remaining()/7 {
		return p.errAt(fmt.Errorf("instruction count %d exceeds payload", ninsts))
	}
	pr := &prog.Program{
		Name:    name,
		Insts:   make([]isa.Inst, ninsts),
		InitMem: make(map[uint64]int64),
		InitReg: make(map[isa.Reg]int64),
	}
	for i := range pr.Insts {
		in := &pr.Insts[i]
		opfn, err := p.byte()
		if err != nil {
			return err
		}
		in.Op, in.Fn = isa.Op(opfn&0x0F), isa.Fn(opfn>>4)
		if !in.Op.Valid() {
			return p.errAt(fmt.Errorf("inst %d: opcode %d out of range", i, opfn&0x0F))
		}
		if !in.Fn.Valid() {
			return p.errAt(fmt.Errorf("inst %d: fn %d out of range", i, opfn>>4))
		}
		cond, err := p.byte()
		if err != nil {
			return err
		}
		in.Halt = cond&0x80 != 0
		in.Cond = isa.BrCond(cond &^ 0x80)
		if !in.Cond.Valid() {
			return p.errAt(fmt.Errorf("inst %d: branch condition %d out of range", i, cond&^0x80))
		}
		if in.Dst, err = p.decodeReg("dst"); err != nil {
			return err
		}
		if in.Src1, err = p.decodeReg("src1"); err != nil {
			return err
		}
		if in.Src2, err = p.decodeReg("src2"); err != nil {
			return err
		}
		if in.Base, err = p.decodeReg("base"); err != nil {
			return err
		}
		if in.Imm, err = p.varint(); err != nil {
			return err
		}
		if in.Op == isa.OpBranch {
			t, err := p.uvarint()
			if err != nil {
				return err
			}
			if t >= ninsts {
				return p.errAt(fmt.Errorf("inst %d: branch target %d outside program (%d insts)", i, t, ninsts))
			}
			in.Target = int(t)
		}
	}
	nreg, err := p.uvarint()
	if err != nil {
		return err
	}
	if nreg > isa.NumArchRegs {
		return p.errAt(fmt.Errorf("initial register count %d exceeds register file", nreg))
	}
	for i := uint64(0); i < nreg; i++ {
		rb, err := p.byte()
		if err != nil {
			return err
		}
		if !isa.Reg(rb).Valid() {
			return p.errAt(fmt.Errorf("initial register %d out of range", rb))
		}
		v, err := p.varint()
		if err != nil {
			return err
		}
		pr.InitReg[isa.Reg(rb)] = v
	}
	if err := decodeMemImage(p, func(a uint64, v int64) { pr.InitMem[a] = v }); err != nil {
		return err
	}
	tr.Program = pr
	return nil
}

// decodeMemImage inverts appendMemImage, handing each word to put. The
// writer emits strictly ascending, 8-byte-aligned addresses, and nothing
// else is accepted: an unaligned word is one no load can read (loads
// align down), and a repeated address would silently overwrite the word
// before it.
func decodeMemImage(p *payload, put func(addr uint64, v int64)) error {
	n, err := p.uvarint()
	if err != nil {
		return err
	}
	if int64(n) > int64(p.remaining())/2 {
		return p.errAt(fmt.Errorf("memory image count %d exceeds payload", n))
	}
	addr := uint64(0)
	for i := uint64(0); i < n; i++ {
		d, err := p.uvarint()
		if err != nil {
			return err
		}
		if i > 0 && d == 0 || addr+d < addr {
			return p.errAt(fmt.Errorf("memory image word %d: address %#x+%#x does not ascend", i, addr, d))
		}
		addr += d
		if addr&7 != 0 {
			return p.errAt(fmt.Errorf("memory image word %d: address %#x is not 8-byte aligned", i, addr))
		}
		v, err := p.varint()
		if err != nil {
			return err
		}
		put(addr, v)
	}
	return nil
}

// decodeOps reconstructs one ops chunk. Each op stores only its dynamic
// facts (PC; address delta for memory ops; outcome for branches); the
// rest of the DynInst comes from the static instruction's isa.Inst.Dyn,
// the constructor prog.ExecuteContext uses, so a round-tripped stream is
// field-identical to the in-memory original.
func decodeOps(p *payload, tr *prog.Trace, prevAddr *uint64) error {
	count, err := p.uvarint()
	if err != nil {
		return err
	}
	if count > OpsPerChunk || int64(count) > int64(p.remaining()) {
		return p.errAt(fmt.Errorf("ops count %d exceeds chunk", count))
	}
	insts := tr.Program.Insts
	for i := uint64(0); i < count; i++ {
		pcU, err := p.uvarint()
		if err != nil {
			return err
		}
		if pcU >= uint64(len(insts)) {
			return p.errAt(fmt.Errorf("op pc %d outside program (%d insts)", pcU, len(insts)))
		}
		in := &insts[pcU]
		if in.Halt {
			return p.errAt(fmt.Errorf("op references halt pseudo-instruction at pc %d", pcU))
		}
		d := in.Dyn(uint64(len(tr.Ops)), int(pcU))
		switch {
		case in.Op.IsMem():
			delta, err := p.varint()
			if err != nil {
				return err
			}
			d.Addr = *prevAddr + uint64(delta)
			*prevAddr = d.Addr
		case in.Op == isa.OpBranch:
			t, err := p.byte()
			if err != nil {
				return err
			}
			if t > 1 {
				return p.errAt(fmt.Errorf("branch outcome byte %d is not 0/1", t))
			}
			d.Taken = t == 1
			if d.Taken {
				d.Next = in.Target
			}
		}
		tr.Ops = append(tr.Ops, d)
	}
	return nil
}

// decodeFinal rebuilds the final state as an overlay on the program's
// image, keeping only the words the image lacks or holds with another
// value. A final image that omits some word of the program's (no writer
// does) cannot be expressed that way; it is kept whole, over no base.
func decodeFinal(p *payload, tr *prog.Trace) error {
	st := prog.NewArchState()
	for i := range st.Regs {
		v, err := p.varint()
		if err != nil {
			return err
		}
		st.Regs[i] = v
	}
	if tr.Program != nil {
		st.Base = tr.Program.InitMem
	}
	start, inBase := p.pos, 0
	err := decodeMemImage(p, func(a uint64, v int64) {
		bv, ok := st.Base[a]
		if ok {
			inBase++
		}
		if !ok || bv != v {
			st.Mem[a] = v
		}
	})
	if err != nil {
		return err
	}
	if inBase < len(st.Base) {
		st.Base, st.Mem, p.pos = nil, make(map[uint64]int64), start
		if err := decodeMemImage(p, func(a uint64, v int64) { st.Mem[a] = v }); err != nil {
			return err
		}
	}
	tr.Final = st
	return nil
}
