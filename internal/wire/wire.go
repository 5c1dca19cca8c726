// Package wire is the hot-path codec of the multicomputer: a
// length-delimited raw binary layout for the payload types that dominate
// superstep traffic (coordinate rows, element copies, query boxes, result
// blocks), with append-style encoders into pooled buffers and a decode
// side that slices a received block into views instead of unmarshalling
// it field-by-field through reflection.
//
// The package has two halves. This file holds the primitives — an
// append-only writer vocabulary (fixed-width little-endian scalars,
// varint-framed sections) and a bounds-checked sticky-error Reader — plus
// the buffer pool and the encode/decode counters the benchmarks read.
// registry.go holds the Codec registry and the gob fallback: a payload
// type without a registered codec still crosses the wire, exactly as
// before, so third-party aggregate types keep working unchanged.
//
// Layout discipline (mirrored from the FlatBuffers-index + packed-data
// design of content-addressed blob stores): small indexes — counts,
// lengths, tags — are unsigned varints; bulk payload — coordinates, IDs,
// values — is fixed-width little-endian so a decoder can size every
// allocation up front and bulk-convert, and so the encoded size of a
// record is independent of its value distribution.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// ------------------------------------------------------------- appenders

// AppendUvarint appends v in unsigned varint encoding.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendVarint appends v in zig-zag varint encoding.
func AppendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendI32 appends v as 4 little-endian bytes.
func AppendI32(b []byte, v int32) []byte {
	return binary.LittleEndian.AppendUint32(b, uint32(v))
}

// AppendI64 appends v as 8 little-endian bytes.
func AppendI64(b []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

// AppendU64 appends v as 8 little-endian bytes.
func AppendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// AppendF64 appends v's IEEE-754 bits as 8 little-endian bytes.
func AppendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendI32s appends a fixed-width little-endian run of 32-bit values
// (the bulk-coordinate section shape).
func AppendI32s(b []byte, vs []int32) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	return b
}

// AppendBytes appends a varint-framed byte section: uvarint length, then
// the bytes.
func AppendBytes(b []byte, s []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendString appends a varint-framed string section.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// --------------------------------------------------------------- reader

// Reader decodes one raw block with sticky-error discipline: every read
// is bounds-checked, the first failure latches, and subsequent reads
// return zero values — so a decoder is a straight-line sequence of reads
// with a single error check at the end (Finish), and a truncated or
// corrupt block can never panic or over-allocate.
type Reader struct {
	b    []byte
	off  int
	fail bool
}

// NewReader wraps one encoded block.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Remaining reports the bytes not yet consumed.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// bad latches the sticky error.
func (r *Reader) bad() { r.fail = true }

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.fail {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.bad()
		return 0
	}
	r.off += n
	return v
}

// Varint reads a zig-zag varint.
func (r *Reader) Varint() int64 {
	if r.fail {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.bad()
		return 0
	}
	r.off += n
	return v
}

// Count reads an element count and validates it against the remaining
// bytes: every element of the section must occupy at least perElem bytes
// (perElem ≥ 1), so a corrupt count can never drive an absurd allocation.
func (r *Reader) Count(perElem int) int {
	v := r.Uvarint()
	if r.fail {
		return 0
	}
	if v > uint64(r.Remaining()/perElem) {
		r.bad()
		return 0
	}
	return int(v)
}

// I32 reads 4 little-endian bytes.
func (r *Reader) I32() int32 {
	if r.fail || r.off+4 > len(r.b) {
		r.bad()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return int32(v)
}

// I64 reads 8 little-endian bytes.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// U64 reads 8 little-endian bytes.
func (r *Reader) U64() uint64 {
	if r.fail || r.off+8 > len(r.b) {
		r.bad()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// F64 reads an IEEE-754 value.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// I32s fills dst from the fixed-width little-endian run at the cursor —
// the bulk-coordinate read. The caller sized dst from a validated Count,
// so a short block fails the reader rather than the slice bounds.
func (r *Reader) I32s(dst []int32) {
	if r.fail || r.off+4*len(dst) > len(r.b) {
		r.bad()
		return
	}
	b := r.b[r.off:]
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	r.off += 4 * len(dst)
}

// Bytes returns an n-byte view of the block (no copy). The view aliases
// the encoded block; copy it if it must outlive the block's buffer. n is
// checked against the bytes left, not r.off+n against the length: a
// decoded n near MaxInt would overflow the sum.
func (r *Reader) Bytes(n int) []byte {
	if r.fail || n < 0 || n > len(r.b)-r.off {
		r.bad()
		return nil
	}
	v := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return v
}

// Section reads a varint-framed byte section as a view.
func (r *Reader) Section() []byte {
	n := r.Uvarint()
	if r.fail || n > uint64(r.Remaining()) {
		r.bad()
		return nil
	}
	return r.Bytes(int(n))
}

// Str reads a varint-framed string section (one allocation). Not named
// String so Reader does not accidentally satisfy fmt.Stringer.
func (r *Reader) Str() string { return string(r.Section()) }

// Finish reports the block's decode verdict: an error if any read failed
// or if trailing bytes remain (a well-formed block is consumed exactly).
func (r *Reader) Finish() error {
	if r.fail {
		return fmt.Errorf("wire: truncated or corrupt block (offset %d of %d)", r.off, len(r.b))
	}
	if r.off != len(r.b) {
		return fmt.Errorf("wire: %d trailing bytes after block payload", len(r.b)-r.off)
	}
	return nil
}

// ---------------------------------------------------------- buffer pool

// maxPooledBuf bounds the capacity a returned buffer may keep: one huge
// construct-phase block must not pin its peak size in the pool for the
// process lifetime.
const maxPooledBuf = 1 << 20

var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// GetBuf returns an empty append-target buffer from the pool.
func GetBuf() []byte {
	return (*(bufPool.Get().(*[]byte)))[:0]
}

// PutBuf returns a buffer to the pool. The caller must not touch b (or
// any encoded block aliasing it) afterwards.
func PutBuf(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledBuf {
		return
	}
	b = b[:0]
	bufPool.Put(&b)
}

// ------------------------------------------------------------- counters

// Counters observe the exchange path's codec traffic: how many blocks
// (and payload bytes) moved through the raw codec versus the gob
// fallback. The bench/ harness, the ingest tests and the /metrics series
// (EmitStats) read them to prove the raw codec actually carries the hot
// path rather than asserting it.
type Counters struct {
	RawEncBlocks, RawEncBytes  int64
	GobEncBlocks, GobEncBytes  int64
	RawDecBlocks, GobDecBlocks int64
}

var counters struct {
	rawEncBlocks, rawEncBytes  atomic.Int64
	gobEncBlocks, gobEncBytes  atomic.Int64
	rawDecBlocks, gobDecBlocks atomic.Int64
}

// Stats snapshots the process-wide codec counters.
func Stats() Counters {
	return Counters{
		RawEncBlocks: counters.rawEncBlocks.Load(),
		RawEncBytes:  counters.rawEncBytes.Load(),
		GobEncBlocks: counters.gobEncBlocks.Load(),
		GobEncBytes:  counters.gobEncBytes.Load(),
		RawDecBlocks: counters.rawDecBlocks.Load(),
		GobDecBlocks: counters.gobDecBlocks.Load(),
	}
}

// EmitStats writes the codec counters through emit as labeled series.
// Its signature matches the obs registry's collector callback, so
// wiring the codec into a metrics endpoint is one line —
// reg.Collect(wire.EmitStats) — without this package importing obs.
func EmitStats(emit func(name string, v float64)) {
	c := Stats()
	emit(`wire_codec_blocks_total{codec="raw",dir="enc"}`, float64(c.RawEncBlocks))
	emit(`wire_codec_blocks_total{codec="gob",dir="enc"}`, float64(c.GobEncBlocks))
	emit(`wire_codec_blocks_total{codec="raw",dir="dec"}`, float64(c.RawDecBlocks))
	emit(`wire_codec_blocks_total{codec="gob",dir="dec"}`, float64(c.GobDecBlocks))
	emit(`wire_codec_bytes_total{codec="raw"}`, float64(c.RawEncBytes))
	emit(`wire_codec_bytes_total{codec="gob"}`, float64(c.GobEncBytes))
}
