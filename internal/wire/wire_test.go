package wire

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/geom"
)

func TestScalarRoundTrip(t *testing.T) {
	var b []byte
	b = AppendUvarint(b, 300)
	b = AppendVarint(b, -7)
	b = AppendI32(b, -123456)
	b = AppendI64(b, math.MinInt64)
	b = AppendU64(b, math.MaxUint64)
	b = AppendF64(b, -2.5)
	b = AppendI32s(b, []int32{1, -2, 3})
	b = AppendBytes(b, []byte("sect"))
	b = AppendString(b, "key")

	r := NewReader(b)
	if v := r.Uvarint(); v != 300 {
		t.Fatalf("uvarint %d", v)
	}
	if v := r.Varint(); v != -7 {
		t.Fatalf("varint %d", v)
	}
	if v := r.I32(); v != -123456 {
		t.Fatalf("i32 %d", v)
	}
	if v := r.I64(); v != math.MinInt64 {
		t.Fatalf("i64 %d", v)
	}
	if v := r.U64(); v != uint64(math.MaxUint64) {
		t.Fatalf("u64 %d", v)
	}
	if v := r.F64(); v != -2.5 {
		t.Fatalf("f64 %v", v)
	}
	got := make([]int32, 3)
	r.I32s(got)
	if !reflect.DeepEqual(got, []int32{1, -2, 3}) {
		t.Fatalf("i32s %v", got)
	}
	if s := r.Section(); !bytes.Equal(s, []byte("sect")) {
		t.Fatalf("section %q", s)
	}
	if s := r.Str(); s != "key" {
		t.Fatalf("string %q", s)
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

// Every truncation point of a block must yield a Finish error, not a
// panic or a silent zero decode.
func TestReaderTruncation(t *testing.T) {
	var b []byte
	b = AppendI32(b, 7)
	b = AppendString(b, "hello")
	b = AppendI32s(b, []int32{1, 2, 3})
	for cut := 0; cut < len(b); cut++ {
		r := NewReader(b[:cut])
		r.I32()
		r.Str()
		r.I32s(make([]int32, 3))
		if err := r.Finish(); err == nil {
			t.Fatalf("cut at %d accepted", cut)
		}
	}
}

func TestFinishRejectsTrailingBytes(t *testing.T) {
	b := AppendI32(nil, 1)
	b = append(b, 0xEE)
	r := NewReader(b)
	r.I32()
	if err := r.Finish(); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing byte accepted: %v", err)
	}
}

// A length near MaxInt read past the block's start fails the reader
// instead of overflowing the bounds check into a slice panic.
func TestBytesRefusesOverflowingLength(t *testing.T) {
	for _, n := range []int{math.MaxInt, math.MaxInt - 5, len("abcd") + 1} {
		r := NewReader([]byte("abcdefgh"))
		r.Bytes(4)
		if v := r.Bytes(n); v != nil {
			t.Fatalf("Bytes(%d) at offset 4 returned %d bytes", n, len(v))
		}
		if err := r.Finish(); err == nil {
			t.Fatalf("Bytes(%d) at offset 4 did not fail the reader", n)
		}
	}
}

// A corrupt count cannot drive an allocation larger than the block
// itself admits.
func TestCountGuardsAllocation(t *testing.T) {
	b := AppendUvarint(nil, 1<<40) // claims a trillion elements
	r := NewReader(b)
	if n := r.Count(4); n != 0 {
		t.Fatalf("absurd count accepted: %d", n)
	}
	if err := r.Finish(); err == nil {
		t.Fatal("absurd count did not fail the reader")
	}
}

type unregisteredPayload struct {
	A int
	B string
}

// A type without a registered codec cannot cross the wire: Encode
// refuses it with an error that names the type and leaves buf as it was.
func TestEncodeRefusesUnregistered(t *testing.T) {
	if Registered[[]unregisteredPayload]() {
		t.Fatal("test type unexpectedly registered")
	}
	buf := []byte{7}
	b, err := Encode(buf, []unregisteredPayload{{1, "x"}})
	if err == nil || !strings.Contains(err.Error(), "[]wire.unregisteredPayload") {
		t.Fatalf("unregistered type encoded: err %v", err)
	}
	if !bytes.Equal(b, buf) {
		t.Fatalf("refused encode left %v, want %v", b, buf)
	}
}

func TestRegisteredRoundTrip(t *testing.T) {
	in := []geom.Point{{ID: 1, X: []geom.Coord{3, 4}}, {ID: 2, X: []geom.Coord{5, 6}}}
	b, err := Encode(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != tagRaw {
		t.Fatalf("registered block tagged %q", b[0])
	}
	out, err := Decode[[]geom.Point](b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("raw round trip: %v vs %v", in, out)
	}
}

func TestDecodeRejectsJunk(t *testing.T) {
	if _, err := Decode[[]geom.Point](nil); err == nil {
		t.Fatal("empty block accepted")
	}
	// 'G' tagged the retired gob encoding; it is as unknown as any other.
	for _, tag := range []byte{0x00, 'G'} {
		if _, err := Decode[[]geom.Point]([]byte{tag, 1, 2}); err == nil {
			t.Fatalf("unknown tag 0x%02x accepted", tag)
		}
	}
	// A raw block for a type with no codec must be refused, not misread.
	if _, err := Decode[[]unregisteredPayload]([]byte{tagRaw, 1, 2, 3}); err == nil {
		t.Fatal("raw block for unregistered type accepted")
	}
	// Truncated raw point block.
	b, err := Encode(nil, []geom.Point{{ID: 9, X: []geom.Coord{1, 2, 3}}})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(b); cut++ {
		if _, err := Decode[[]geom.Point](b[:cut]); err == nil {
			t.Fatalf("truncated raw block (cut %d) accepted", cut)
		}
	}
}

func TestByteRowsDecodeAsViews(t *testing.T) {
	in := []byte{9, 8, 7}
	b, err := Encode(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Decode[[]byte](b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(in, out) {
		t.Fatalf("byte row round trip: %v vs %v", in, out)
	}
	if &out[0] != &b[1] {
		t.Fatal("byte row decode copied instead of viewing the block")
	}
}

func TestBoxRoundTripSharesArena(t *testing.T) {
	var b []byte
	b = AppendBox(b, geom.Box{Lo: []geom.Coord{1, 2}, Hi: []geom.Coord{3, 4}})
	b = AppendBox(b, geom.Box{Lo: []geom.Coord{5, 6}, Hi: []geom.Coord{7, 8}})
	r := NewReader(b)
	arena := NewArena(&r)
	b1 := ReadBox(&r, &arena)
	b2 := ReadBox(&r, &arena)
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b1, geom.Box{Lo: []geom.Coord{1, 2}, Hi: []geom.Coord{3, 4}}) ||
		!reflect.DeepEqual(b2, geom.Box{Lo: []geom.Coord{5, 6}, Hi: []geom.Coord{7, 8}}) {
		t.Fatalf("boxes: %v %v", b1, b2)
	}
	// Both boxes' coordinates live in the one arena: writes through the
	// arena show through the views.
	if cap(arena) < 8 || len(arena) != 8 {
		t.Fatalf("arena holds %d of %d coords", len(arena), cap(arena))
	}
}

func TestPutBufDropsOversized(t *testing.T) {
	huge := make([]byte, 0, maxPooledBuf+1)
	PutBuf(huge) // must not be retained
	small := GetBuf()
	if cap(small) > maxPooledBuf {
		t.Fatal("oversized buffer came back from the pool")
	}
	PutBuf(small)
}
