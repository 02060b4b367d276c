package tracefile

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"maps"
	"reflect"
	"testing"

	"repro/internal/prog"
	"repro/internal/workload"
)

// testTrace materialises a short trace of a real kernel.
func testTrace(t *testing.T, name string, ops int) *prog.Trace {
	t.Helper()
	wl, err := workload.ByName(name, workload.Params{Footprint: 1 << 16})
	if err != nil {
		t.Fatalf("workload %q: %v", name, err)
	}
	return prog.MustExecute(wl.Program, ops)
}

func encode(t *testing.T, tr *prog.Trace, h Header) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, h, tr); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	for _, name := range []string{"stream", "pointer-chase", "store-load", "branchy"} {
		t.Run(name, func(t *testing.T) {
			tr := testTrace(t, name, 5000)
			h := Header{Workload: name, FootprintBytes: 1 << 16, Ops: 5000, TraceKey: "wl:" + name}
			raw := encode(t, tr, h)

			d, err := Decode(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if d.Header.Workload != name || d.Header.TraceKey != "wl:"+name || d.Header.Ops != 5000 {
				t.Fatalf("header identity mangled: %+v", d.Header)
			}
			got := d.Trace
			if !reflect.DeepEqual(got.Program, tr.Program) {
				t.Fatalf("program not identical after round trip")
			}
			if len(got.Ops) != len(tr.Ops) {
				t.Fatalf("op count: got %d want %d", len(got.Ops), len(tr.Ops))
			}
			for i := range tr.Ops {
				if got.Ops[i] != tr.Ops[i] {
					t.Fatalf("op %d differs:\n got %+v\nwant %+v", i, got.Ops[i], tr.Ops[i])
				}
			}
			if got.Final == nil || got.Final.Regs != tr.Final.Regs ||
				!reflect.DeepEqual(image(got.Final), image(tr.Final)) {
				t.Fatalf("final state not identical after round trip")
			}
		})
	}
}

// image is st's whole memory: its base with every written word laid over
// it.
func image(st *prog.ArchState) map[uint64]int64 {
	m := make(map[uint64]int64, len(st.Base)+len(st.Mem))
	maps.Copy(m, st.Base)
	maps.Copy(m, st.Mem)
	return m
}

// TestMemImageRejectsMalformed: the decoder accepts only what the writer
// emits — strictly ascending, 8-byte-aligned addresses. An unaligned word
// (no load can read it: loads align down) and a repeated address (which
// would overwrite the word before it) are typed *Errors.
func TestMemImageRejectsMalformed(t *testing.T) {
	image := func(pairs ...uint64) []byte {
		b := binary.AppendUvarint(nil, uint64(len(pairs)/2))
		for _, x := range pairs {
			b = binary.AppendUvarint(b, x)
		}
		return b
	}
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"unaligned", image(0x1003, 2)},
		{"repeated", image(0x1000, 2, 0, 4)},
		{"wrapped", image(0x1000, 2, ^uint64(0)-0xff7, 4)},
	} {
		p := &payload{b: tc.body, section: "program"}
		err := decodeMemImage(p, func(uint64, int64) {})
		var te *Error
		if !errors.As(err, &te) {
			t.Errorf("%s: err = %v, want a *tracefile.Error", tc.name, err)
		}
	}
	// The writer's own output still decodes, the first word at address 0
	// included.
	p := &payload{b: image(0, 2, 8, 4)}
	if err := decodeMemImage(p, func(uint64, int64) {}); err != nil {
		t.Errorf("well-formed image rejected: %v", err)
	}
}

// TestMalformedImageFilesRejected: whole files whose program image holds
// an unaligned or a repeated address — every CRC valid — fail to decode
// with a typed *Error.
func TestMalformedImageFilesRejected(t *testing.T) {
	tr := testTrace(t, "stream", 200)
	h := Header{Workload: "stream", Ops: 200, TraceKey: "k"}
	for name, img := range map[string][]byte{
		"unaligned": {1, 0x83, 0x20, 2},       // one word at 0x1003
		"repeated":  {2, 0x80, 0x20, 2, 0, 4}, // 0x1000 twice
	} {
		raw := withProgramImage(t, encode(t, &prog.Trace{Program: &prog.Program{
			Name: tr.Program.Name, Insts: tr.Program.Insts, InitReg: tr.Program.InitReg,
		}, Ops: tr.Ops}, h), img)
		_, err := Decode(bytes.NewReader(raw))
		var te *Error
		if !errors.As(err, &te) || te.Section != "program" {
			t.Errorf("%s: err = %v, want a program-section *tracefile.Error", name, err)
		}
	}
}

// withProgramImage rewrites the program chunk of raw — encoded from a
// program with an empty memory image, so its body ends in the image's
// zero count — to carry img as its image, with a valid CRC.
func withProgramImage(t *testing.T, raw, img []byte) []byte {
	t.Helper()
	off := len(Magic)
	hl, n := binary.Uvarint(raw[off:])
	off += n + int(hl) + 4
	if raw[off] != chunkProgram {
		t.Fatalf("first chunk is %#x, not the program", raw[off])
	}
	bl, n := binary.Uvarint(raw[off+1:])
	body := raw[off+1+n : off+1+n+int(bl)]
	if body[len(body)-1] != 0 {
		t.Fatal("program image is not empty")
	}
	rest := raw[off+1+n+int(bl)+4:]
	nb := append(bytes.Clone(body[:len(body)-1]), img...)
	out := append(bytes.Clone(raw[:off]), chunkProgram)
	out = binary.AppendUvarint(out, uint64(len(nb)))
	out = append(out, nb...)
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(nb, crcTable))
	return append(out, rest...)
}

// TestEncodeByteStable: encoding the same trace twice must produce
// identical bytes (map-backed sections are sorted), so files dedup by
// content.
func TestEncodeByteStable(t *testing.T) {
	tr := testTrace(t, "hash-join", 3000)
	h := Header{Workload: "hash-join", Ops: 3000, TraceKey: "k"}
	a, b := encode(t, tr, h), encode(t, tr, h)
	if !bytes.Equal(a, b) {
		t.Fatalf("two encodings of the same trace differ (%d vs %d bytes)", len(a), len(b))
	}
}

// TestChunking: a trace longer than OpsPerChunk crosses chunk boundaries
// (including the address-delta state) without loss.
func TestChunking(t *testing.T) {
	tr := testTrace(t, "stream", 3*OpsPerChunk+17)
	raw := encode(t, tr, Header{Workload: "stream"})
	d, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(d.Trace.Ops) != len(tr.Ops) {
		t.Fatalf("op count: got %d want %d", len(d.Trace.Ops), len(tr.Ops))
	}
	for i := range tr.Ops {
		if d.Trace.Ops[i] != tr.Ops[i] {
			t.Fatalf("op %d differs across chunk boundary", i)
		}
	}
}

func TestDecodeHeaderOnly(t *testing.T) {
	tr := testTrace(t, "stream", 1000)
	raw := encode(t, tr, Header{Workload: "stream", FootprintBytes: 1 << 16, Ops: 1000, TraceKey: "wl:stream|fp:65536|ops:1000"})
	h, err := DecodeHeader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("DecodeHeader: %v", err)
	}
	if h.Format != Format || h.Version != Version || h.TraceKey != "wl:stream|fp:65536|ops:1000" {
		t.Fatalf("header: %+v", h)
	}
}

func TestBadMagic(t *testing.T) {
	tr := testTrace(t, "stream", 100)
	raw := encode(t, tr, Header{})
	raw[0] ^= 0xFF
	_, err := Decode(bytes.NewReader(raw))
	if !errors.Is(err, ErrMagic) {
		t.Fatalf("want ErrMagic, got %v", err)
	}
}

func TestTruncation(t *testing.T) {
	tr := testTrace(t, "store-load", 2000)
	raw := encode(t, tr, Header{Workload: "store-load"})
	// Every proper prefix must fail loudly — never parse as a valid file.
	for _, n := range []int{0, 1, 8, 15, 16, 17, len(raw) / 4, len(raw) / 2, len(raw) - 5, len(raw) - 1} {
		_, err := Decode(bytes.NewReader(raw[:n]))
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", n, len(raw))
		}
		var te *Error
		if !errors.As(err, &te) {
			t.Fatalf("prefix %d: want *tracefile.Error, got %T: %v", n, err, err)
		}
	}
}

// TestFlippedBytes: corrupting any single payload byte after the magic
// must be caught (CRC, digest, or structural validation) — never decode
// to a silently different trace.
func TestFlippedBytes(t *testing.T) {
	tr := testTrace(t, "branchy", 1500)
	raw := encode(t, tr, Header{Workload: "branchy"})
	orig, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("baseline decode: %v", err)
	}
	stride := len(raw)/97 + 1
	for off := len(Magic); off < len(raw); off += stride {
		mut := bytes.Clone(raw)
		mut[off] ^= 0x41
		d, err := Decode(bytes.NewReader(mut))
		if err != nil {
			var te *Error
			if !errors.As(err, &te) {
				t.Fatalf("offset %d: want *tracefile.Error, got %T: %v", off, err, err)
			}
			continue
		}
		// A flip in a skipped-unknown-chunk region could legitimately
		// still decode; the trace must then be identical to the original.
		if !reflect.DeepEqual(d.Trace, orig.Trace) {
			t.Fatalf("offset %d: corrupted file decoded to a different trace", off)
		}
	}
}

func TestVersionSkew(t *testing.T) {
	h := Header{Format: Format, Version: 99}
	hb, _ := json.Marshal(h)
	var buf bytes.Buffer
	buf.WriteString(Magic)
	buf.Write(binary.AppendUvarint(nil, uint64(len(hb))))
	buf.Write(hb)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(hb, crcTable))
	buf.Write(crc[:])
	_, err := Decode(bytes.NewReader(buf.Bytes()))
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("want ErrVersion, got %v", err)
	}
	if err := Encode(&bytes.Buffer{}, Header{Version: 2}, testTrace(t, "stream", 100)); err == nil {
		t.Fatalf("writer accepted a future version")
	}
}

func TestFlippedCRC(t *testing.T) {
	tr := testTrace(t, "stream", 500)
	raw := encode(t, tr, Header{})
	// The file ends with the end chunk: ...payload crc32. Flip the last byte.
	raw[len(raw)-1] ^= 0x01
	_, err := Decode(bytes.NewReader(raw))
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("want ErrChecksum, got %v", err)
	}
}

// TestUnknownChunkSkipped: a chunk of an unknown type with a valid CRC is
// skipped — the forward-compatibility path for later revisions.
func TestUnknownChunkSkipped(t *testing.T) {
	tr := testTrace(t, "stream", 500)
	raw := encode(t, tr, Header{})

	// Find the end of the header: magic + uvarint(len) + json + crc.
	pos := len(Magic)
	hlen, n := binary.Uvarint(raw[pos:])
	pos += n + int(hlen) + 4

	ext := []byte("experimental extension payload")
	var chunk bytes.Buffer
	chunk.WriteByte(0x60)
	chunk.Write(binary.AppendUvarint(nil, uint64(len(ext))))
	chunk.Write(ext)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(ext, crcTable))
	chunk.Write(crc[:])

	spliced := append(bytes.Clone(raw[:pos]), append(chunk.Bytes(), raw[pos:]...)...)
	d, err := Decode(bytes.NewReader(spliced))
	if err != nil {
		t.Fatalf("decode with unknown chunk: %v", err)
	}
	if len(d.Trace.Ops) != len(tr.Ops) {
		t.Fatalf("unknown chunk disturbed the stream: %d vs %d ops", len(d.Trace.Ops), len(tr.Ops))
	}

	// The same unknown chunk with a corrupted CRC must still fail.
	spliced[pos+1+1+2] ^= 0xFF
	if _, err := Decode(bytes.NewReader(spliced)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupt unknown chunk: want ErrChecksum, got %v", err)
	}
}
