package ballerino_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"testing"

	ballerino "repro"
	"repro/uprog"
)

// fuzzSeedTrace encodes one small valid trace to seed the corpus.
func fuzzSeedTrace(f *testing.F) []byte {
	f.Helper()
	tr, err := ballerino.PrepareTrace(context.Background(),
		ballerino.Config{Workload: "stream", MaxOps: 2_000, FootprintBytes: 1 << 16})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ballerino.WriteTrace(&buf, tr); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// fuzzVersionSkew hand-builds a stream whose header claims an unknown
// format version (with a valid CRC, so it reaches the version check).
func fuzzVersionSkew(f *testing.F) []byte {
	f.Helper()
	hdr, err := json.Marshal(map[string]any{
		"format": "ballerino.trace/v1", "version": 99,
		"isa":      map[string]int{"int_regs": 64, "fp_regs": 64, "op_classes": 10, "word_bytes": 8},
		"workload": "stream", "ops": 1, "trace_key": "wl:stream|fp:65536|ops:1",
	})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	buf.WriteString("ballerino.trace\x00")
	buf.Write(binary.AppendUvarint(nil, uint64(len(hdr))))
	buf.Write(hdr)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(hdr, crc32.MakeTable(crc32.Castagnoli)))
	buf.Write(crc[:])
	return buf.Bytes()
}

// fuzzImageSeed builds a stream whose program image is img, every CRC
// valid: it encodes a trace of a program with an empty image, whose
// program chunk then ends in the image's zero count, and splices img in
// its place.
func fuzzImageSeed(f *testing.F, img []byte) []byte {
	f.Helper()
	b := uprog.NewBuilder("image-seed")
	top := b.NewLabel()
	b.Bind(top)
	b.AddImm(uprog.R(1), uprog.R(1), 1)
	b.Jmp(top)
	tr, err := ballerino.PrepareTrace(context.Background(), ballerino.Config{Custom: b.Build(), MaxOps: 100})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ballerino.WriteTrace(&buf, tr); err != nil {
		f.Fatal(err)
	}
	raw := buf.Bytes()
	off := len("ballerino.trace\x00")
	hl, n := binary.Uvarint(raw[off:])
	off += n + int(hl) + 4 // header and its CRC; the program chunk follows
	bl, n := binary.Uvarint(raw[off+1:])
	body := raw[off+1+n : off+1+n+int(bl)]
	if body[len(body)-1] != 0 {
		f.Fatal("program image is not empty")
	}
	rest := raw[off+1+n+int(bl)+4:]
	nb := append(bytes.Clone(body[:len(body)-1]), img...)
	out := append(bytes.Clone(raw[:off+1]), binary.AppendUvarint(nil, uint64(len(nb)))...)
	out = append(out, nb...)
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(nb, crc32.MakeTable(crc32.Castagnoli)))
	return append(out, rest...)
}

// FuzzTraceFile drives the trace importer with arbitrary bytes: malformed
// input must never panic, and every rejection must be a typed *SimError
// with Stage "tracefile" (the contract ballserved relies on to turn a bad
// uploaded trace into a clean job failure). The seed corpus covers the
// interesting classes — a valid stream, truncations at several depths,
// single-byte corruption, a flipped trailing CRC, version skew, bare magic
// and memory images holding an unaligned or a repeated address.
func FuzzTraceFile(f *testing.F) {
	valid := fuzzSeedTrace(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-1]) // clipped end-chunk CRC
	f.Add(valid[:17])
	f.Add([]byte("ballerino.trace\x00"))
	f.Add([]byte("not a trace"))
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/3] ^= 0x41
	f.Add(flipped)
	badCRC := bytes.Clone(valid)
	badCRC[len(badCRC)-1] ^= 0xFF
	f.Add(badCRC)
	f.Add(fuzzVersionSkew(f))
	f.Add(fuzzImageSeed(f, []byte{1, 0x83, 0x20, 2}))       // one word at 0x1003
	f.Add(fuzzImageSeed(f, []byte{2, 0x80, 0x20, 2, 0, 4})) // 0x1000 twice

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ballerino.ReadTrace(bytes.NewReader(data))
		if err != nil {
			var se *ballerino.SimError
			if !errors.As(err, &se) {
				t.Fatalf("importer error is not a *SimError: %v", err)
			}
			if se.Stage != "tracefile" {
				t.Fatalf("importer error stage = %q, want \"tracefile\": %v", se.Stage, err)
			}
			return
		}
		// Accepted input must be a coherent trace: the CRCs, digest and
		// identity checks passed, so the basic invariants hold.
		if tr.Key() == "" || tr.Workload() == "" || tr.Ops() <= 0 {
			t.Fatalf("accepted trace with incoherent identity: key=%q wl=%q ops=%d",
				tr.Key(), tr.Workload(), tr.Ops())
		}
	})
}
