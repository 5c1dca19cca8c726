package psort

import (
	"cmp"
	"slices"
)

// Key2 is a two-word packed sort key; Hi is the more significant word.
type Key2 struct{ Hi, Lo uint64 }

// radixCutoff is the length below which the radix kernel hands its input
// to pdqsort over the whole key. A radix pays for its histograms and one
// pass per varying digit whatever n is, while pdqsort pays log n
// compares a key: on a 2-vCPU VM pdqsort was about 9× faster on 16
// two-word keys and 4× slower on 4 096, and the two crossed between 256
// and 512 keys at both widths (E36).
const radixCutoff = 384

// RadixWords sorts words by their bits from..63, stably, with an LSD radix
// of 8-bit digits, and returns the sorted slice: words or buf, whichever
// the last pass wrote (buf must hold len(words) words). Bits below from
// are payload the order does not read, and from is a multiple of 8. A
// digit on which every word agrees (a zero byte of OR ^ AND over the
// input) costs no pass.
//
// The kernel's contract is its callers' key layout: each puts an index
// that increases with input position (or another tie-breaker that makes
// every key distinct, in input order) in the bits below from. A stable
// sort on the upper bits then returns exactly what slices.Sort over the
// whole key returns, so below radixCutoff the kernel runs that instead,
// in place, and no caller can tell the two paths apart: a sorted sequence
// of distinct keys is unique.
func RadixWords(words, buf []uint64, from int) []uint64 {
	if len(words) < radixCutoff {
		slices.Sort(words)
		return words
	}
	and, or := ^uint64(0), uint64(0)
	for _, w := range words {
		and, or = and&w, or|w
	}
	src, dst := words, buf[:len(words)]
	for s := uint(from); s < 64; s += 8 {
		if (and^or)>>s&0xff == 0 {
			continue
		}
		var at [256]int
		for _, w := range src {
			at[w>>s&0xff]++
		}
		offsets(&at)
		for _, w := range src {
			b := w >> s & 0xff
			dst[at[b]] = w
			at[b]++
		}
		src, dst = dst, src
	}
	return src
}

// RadixKey2 is RadixWords over two-word keys: it sorts keys by Hi and by
// Lo's bits from..63, under the same contract (from is a multiple of 8,
// buf holds len(keys) keys, the returned slice is keys or buf).
func RadixKey2(keys, buf []Key2, from int) []Key2 {
	if len(keys) < radixCutoff {
		slices.SortFunc(keys, cmpKey2)
		return keys
	}
	andHi, orHi, andLo, orLo := ^uint64(0), uint64(0), ^uint64(0), uint64(0)
	for _, k := range keys {
		andHi, orHi = andHi&k.Hi, orHi|k.Hi
		andLo, orLo = andLo&k.Lo, orLo|k.Lo
	}
	src, dst := keys, buf[:len(keys)]
	for s := uint(from); s < 64; s += 8 {
		if (andLo^orLo)>>s&0xff == 0 {
			continue
		}
		var at [256]int
		for _, k := range src {
			at[k.Lo>>s&0xff]++
		}
		offsets(&at)
		for _, k := range src {
			b := k.Lo >> s & 0xff
			dst[at[b]] = k
			at[b]++
		}
		src, dst = dst, src
	}
	for s := uint(0); s < 64; s += 8 {
		if (andHi^orHi)>>s&0xff == 0 {
			continue
		}
		var at [256]int
		for _, k := range src {
			at[k.Hi>>s&0xff]++
		}
		offsets(&at)
		for _, k := range src {
			b := k.Hi >> s & 0xff
			dst[at[b]] = k
			at[b]++
		}
		src, dst = dst, src
	}
	return src
}

// offsets turns one digit's histogram into the first output position of
// each digit value.
func offsets(h *[256]int) {
	sum := 0
	for b, n := range h {
		h[b], sum = sum, sum+n
	}
}

// cmpKey2 is the whole-key order of the small-input path.
func cmpKey2(a, b Key2) int {
	if a.Hi != b.Hi {
		return cmp.Compare(a.Hi, b.Hi)
	}
	return cmp.Compare(a.Lo, b.Lo)
}
