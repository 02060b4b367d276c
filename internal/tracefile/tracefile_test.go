package tracefile

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
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
				!reflect.DeepEqual(got.Final.Mem, tr.Final.Mem) {
				t.Fatalf("final state not identical after round trip")
			}
		})
	}
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
	if _, err := NewWriter(&bytes.Buffer{}, Header{Version: 2}); err == nil {
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

// TestWriterOrderEnforced: sections written out of order are rejected.
func TestWriterOrderEnforced(t *testing.T) {
	tr := testTrace(t, "stream", 100)
	w, err := NewWriter(&bytes.Buffer{}, Header{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteOps(tr.Ops); err == nil {
		t.Fatalf("ops before program accepted")
	}
	w2, _ := NewWriter(&bytes.Buffer{}, Header{})
	if err := w2.WriteProgram(tr.Program); err != nil {
		t.Fatal(err)
	}
	if err := w2.WriteFinal(tr.Final); err != nil {
		t.Fatal(err)
	}
	if err := w2.WriteOps(tr.Ops); err == nil {
		t.Fatalf("ops after final accepted")
	}
}
