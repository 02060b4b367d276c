// Package tracefile implements ballerino.trace/v1, the versioned,
// self-describing on-disk μop trace format.
//
// A trace file is the portable form of one prog.Trace: the static program
// (instructions plus initial register/memory image), the dynamic μop
// stream, and the final architectural state that the audit golden model's
// end-of-run check compares against. Any
// trace the simulator can run can be exported, and any well-formed file
// can be imported and fed back through ballerino.PrepareTrace /
// Config.Trace, the batch API, the content-addressed TraceCache and
// ballserved job specs — with run manifests byte-identical to the
// in-memory original.
//
// Wire layout (all multi-byte integers are varints unless noted):
//
//	magic   16 bytes "ballerino.trace\x00"
//	header  uvarint JSON length, the JSON header, uint32 LE CRC-32C
//	chunks  a sequence of framed chunks, each:
//	          type    1 byte
//	          length  uvarint payload byte count
//	          payload
//	          crc     uint32 LE CRC-32C of the payload
//	        in fixed order: program, ops (repeated), final-state
//	        (optional), end
//
// The header is JSON so the file identifies itself to tools that know
// nothing of the chunk encoding: format name, format version, the ISA
// geometry the μops assume (register file sizes, opcode-class count, word
// size), the workload identity (name, footprint, dynamic μop budget), and
// the trace content key — the same string ballerino keys its TraceCache
// and durable job store by, so an imported trace dedups byte-stably
// against an in-memory generation of the same kernel.
//
// The dynamic stream is varint-delta encoded and stores only the dynamic
// facts: sequence numbers are implicit (stream position), each op is its
// static PC as a uvarint, memory ops add their effective address as a
// zigzag delta against the previous memory op, and branches add a one-byte
// outcome. Everything else — opcode, function, condition, operand
// registers, immediate, next-PC — is reconstructed from the program chunk
// on import by the constructor the functional interpreter uses. Ops are
// framed in chunks of OpsPerChunk, so Encode holds one chunk's encoding
// at a time and the reader streams at constant memory, and every chunk
// carries its own CRC so corruption is localised to a byte offset. The end chunk seals the file with the total
// op count and an FNV-1a digest of every ops-chunk payload.
//
// Versioning policy: the magic never changes; Header.Version is bumped on
// any incompatible change to the chunk encoding, and readers reject
// versions they do not know with ErrVersion (wrapped in a typed *Error).
// Adding new optional chunk types is a compatible change; readers skip
// unknown chunk types whose CRC verifies.
package tracefile

import (
	"errors"
	"fmt"
	"hash/crc32"
)

// Format is the self-describing format name carried in every header.
const Format = "ballerino.trace/v1"

// Version is the chunk-encoding version this package reads and writes.
const Version = 1

// Magic is the 16-byte file signature.
const Magic = "ballerino.trace\x00"

// OpsPerChunk is how many dynamic μops the writer frames per ops chunk —
// the unit of streaming and of corruption localisation.
const OpsPerChunk = 8192

// Chunk types, in their required file order. Type 0x03 stays reserved:
// older writers emitted a per-load value chunk there, which readers skip
// like any unknown type so those files still import.
const (
	chunkProgram = 0x01 // static program: insts + initial reg/mem image
	chunkOps     = 0x02 // dynamic μop stream slice (repeated)
	chunkFinal   = 0x04 // final architectural state oracle (optional)
	chunkEnd     = 0x7F // total op count + stream digest; must be last
)

// Decode-size sanity caps. They bound allocation before a length or count
// read from an untrusted file is trusted; every cap is far above anything
// the simulator produces.
const (
	maxHeaderLen = 1 << 20 // 1 MiB of JSON header
	maxChunkLen  = 1 << 28 // 256 MiB per chunk payload
	maxInsts     = 1 << 22 // static program length
	maxNameLen   = 1 << 12 // program name
)

// crcTable is the Castagnoli polynomial table shared by writer and reader.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// fnvOffset and fnvPrime are the FNV-1a 64-bit parameters for the stream
// digest sealed into the end chunk.
const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

// fnvSum folds b into an FNV-1a 64-bit running digest.
func fnvSum(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

// ISAInfo is the ISA geometry recorded in the header: a reader refuses a
// trace recorded for a machine shape other than its own rather than
// letting out-of-range registers or opcodes near the pipeline.
type ISAInfo struct {
	IntRegs   int `json:"int_regs"`
	FpRegs    int `json:"fp_regs"`
	OpClasses int `json:"op_classes"`
	WordBytes int `json:"word_bytes"`
}

// Header is the self-describing JSON header at the top of every file.
type Header struct {
	Format  string  `json:"format"`
	Version int     `json:"version"`
	ISA     ISAInfo `json:"isa"`

	// Workload, FootprintBytes and Ops are the trace's content identity:
	// the program name, the data-footprint parameter it was generated
	// with, and the dynamic μop budget requested (the stream may be
	// shorter if the program halted early).
	Workload       string `json:"workload"`
	FootprintBytes int64  `json:"footprint_bytes"`
	Ops            int    `json:"ops"`

	// TraceKey is the ballerino trace content key ("wl:…|fp:…|ops:…")
	// the TraceCache and durable job store address this trace by.
	TraceKey string `json:"trace_key"`

	// Generator optionally names the producing tool.
	Generator string `json:"generator,omitempty"`
}

// Sentinel errors a typed *Error may wrap.
var (
	// ErrMagic reports a file that does not start with the format magic.
	ErrMagic = errors.New("tracefile: bad magic (not a ballerino.trace file)")
	// ErrVersion reports a well-formed header whose format/version this
	// reader does not support.
	ErrVersion = errors.New("tracefile: unsupported format version")
	// ErrChecksum reports a header or chunk whose CRC-32C does not match
	// its payload.
	ErrChecksum = errors.New("tracefile: checksum mismatch")
	// ErrTruncated reports a file that ends mid-structure.
	ErrTruncated = errors.New("tracefile: truncated file")
)

// Error is the typed failure every Decode path returns: the byte offset
// where decoding stopped, the section being decoded, and the cause
// (possibly one of the sentinel errors above).
type Error struct {
	Offset  int64
	Section string
	Err     error
}

func (e *Error) Error() string {
	return fmt.Sprintf("tracefile: %s at byte %d: %v", e.Section, e.Offset, e.Err)
}

func (e *Error) Unwrap() error { return e.Err }

// zigzag maps a signed value to an unsigned one with small absolute
// values staying small (the varint-friendly encoding).
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
