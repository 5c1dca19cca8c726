package psort

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// radixShapes draws the sorted 32-bit fields the kernel's callers pack:
// narrow (the high bytes equal, so their passes are skipped), full-range
// random, bytes that differ only in their top bit, and int32 values clustered at both extremes, sign-flipped the
// way the callers flip coordinates and IDs.
var radixShapes = []struct {
	name string
	draw func(rng *rand.Rand) uint32
}{
	{"narrow", func(rng *rand.Rand) uint32 { return 0x5a5a5a00 | uint32(rng.Intn(40)) }},
	{"full", func(rng *rand.Rand) uint32 { return rng.Uint32() }},
	{"top-bits", func(rng *rand.Rand) uint32 { return rng.Uint32() & 0x80808080 }},
	{"extremes", func(rng *rand.Rand) uint32 {
		v := int32(math.MinInt32 + rng.Intn(3))
		if rng.Intn(2) == 0 {
			v = int32(math.MaxInt32 - rng.Intn(3))
		}
		return uint32(v) ^ 1<<31
	}},
}

// radixLengths straddle the small-input cutoff and reach a size where
// every varying digit takes a real pass.
var radixLengths = []int{0, 1, radixCutoff - 1, radixCutoff, radixCutoff + 1, 1 << 16}

// checkWords runs RadixWords on words (not modified) from bit from and
// compares it with slices.Sort over the whole key.
func checkWords(t *testing.T, words []uint64, from int) {
	t.Helper()
	want := slices.Clone(words)
	slices.Sort(want)
	in, buf := slices.Clone(words), make([]uint64, len(words))
	got := RadixWords(in, buf, from)
	if !slices.Equal(got, want) {
		t.Fatalf("n=%d from=%d: RadixWords differs from slices.Sort", len(words), from)
	}
	if len(got) > 0 && &got[0] != &in[0] && &got[0] != &buf[0] {
		t.Fatalf("n=%d from=%d: result is in neither the input nor the scratch", len(words), from)
	}
}

// checkKey2 is checkWords for RadixKey2.
func checkKey2(t *testing.T, keys []Key2, from int) {
	t.Helper()
	want := slices.Clone(keys)
	slices.SortFunc(want, cmpKey2)
	in, buf := slices.Clone(keys), make([]Key2, len(keys))
	got := RadixKey2(in, buf, from)
	if !slices.Equal(got, want) {
		t.Fatalf("n=%d from=%d: RadixKey2 differs from slices.Sort", len(keys), from)
	}
	if len(got) > 0 && &got[0] != &in[0] && &got[0] != &buf[0] {
		t.Fatalf("n=%d from=%d: result is in neither the input nor the scratch", len(keys), from)
	}
}

// TestRadixMatchesSort: with an input index in the bits the kernel does
// not sort on, both entry points return exactly slices.Sort over the whole
// key, on both sides of the cutoff. A word sorted on all 64 bits needs no
// index: equal words are indistinguishable.
func TestRadixMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, shape := range radixShapes {
		for _, n := range radixLengths {
			words, whole := make([]uint64, n), make([]uint64, n)
			keys, hiOnly := make([]Key2, n), make([]Key2, n)
			for i := range words {
				a, b, c := shape.draw(rng), shape.draw(rng), shape.draw(rng)
				words[i] = uint64(a)<<32 | uint64(i)
				whole[i] = uint64(a)<<32 | uint64(b)
				keys[i] = Key2{Hi: uint64(a)<<32 | uint64(b), Lo: uint64(c)<<32 | uint64(i)}
				hiOnly[i] = Key2{Hi: uint64(a)<<32 | uint64(b), Lo: uint64(i)}
			}
			t.Run(fmt.Sprintf("%s/n=%d", shape.name, n), func(t *testing.T) {
				checkWords(t, words, 32)
				checkWords(t, whole, 0)
				checkKey2(t, keys, 32)
				checkKey2(t, hiOnly, 64)
			})
		}
	}
}

// FuzzRadixMatchesSort: the same property on fuzzed key bits. The input's
// 8-byte chunks are tiled to a length reps picks, so most cases take the
// radix path; each key carries its index in its low half.
func FuzzRadixMatchesSort(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 0xff, 0, 0, 0x80, 0, 0, 0, 0}, uint16(300))
	f.Add([]byte{0x80, 0, 0, 0, 0x7f, 0xff, 0xff, 0xff}, uint16(5000))
	f.Add([]byte{9}, uint16(3))
	f.Fuzz(func(t *testing.T, data []byte, reps uint16) {
		var chunks []uint64
		for len(data) >= 8 {
			chunks = append(chunks, binary.LittleEndian.Uint64(data))
			data = data[8:]
		}
		if len(chunks) == 0 {
			return
		}
		n := max(len(chunks), int(reps)%4096)
		words, keys := make([]uint64, n), make([]Key2, n)
		for i := range words {
			c := chunks[i%len(chunks)]
			words[i] = c&^(1<<32-1) | uint64(i)
			keys[i] = Key2{Hi: c, Lo: c<<32 | uint64(i)}
		}
		checkWords(t, words, 32)
		checkKey2(t, keys, 32)
	})
}
