package psort

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cgm"
)

// benchSort measures one full distributed sort per iteration. The
// inplace variant cedes ownership of the local block (no defensive
// copy); the local phase is the generic pdqsort of slices.SortFunc (no
// reflect.Swapper closures, O(n log n) element moves).
func benchSort(b *testing.B, p int, inplace bool) {
	rng := rand.New(rand.NewSource(1))
	n := 1 << 14
	all := make([]rec, n)
	for i := range all {
		all[i] = rec{Key: rng.Intn(1 << 20), ID: i}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := cgm.New(cgm.Config{P: p})
		m.Run(func(pr *cgm.Proc) {
			var local []rec
			for j := pr.Rank(); j < n; j += p {
				local = append(local, all[j])
			}
			if inplace {
				SortInPlace(pr, "bench", local, lessRec)
			} else {
				Sort(pr, "bench", local, lessRec)
			}
		})
	}
}

func BenchmarkSort(b *testing.B) {
	for _, p := range []int{2, 8} {
		for _, inplace := range []bool{false, true} {
			name := fmt.Sprintf("p=%d", p)
			if inplace {
				name += "/inplace"
			}
			b.Run(name, func(b *testing.B) { benchSort(b, p, inplace) })
		}
	}
}

// BenchmarkRadix times the radix kernel in ns per key on uniform random
// keys of both widths, packed as the callers pack them: a word is a
// 32-bit key over its index, a Key2 a tree ordinal below 64 and a 32-bit
// coordinate over a 32-bit ID and its index. At 256 keys, below
// radixCutoff, the kernel runs pdqsort; the pdqsort rows time
// slices.Sort over the whole key at every size. The input is re-packed
// every iteration (outside the timer), so each sort starts unsorted.
func BenchmarkRadix(b *testing.B) {
	for _, n := range []int{256, 1 << 12, 1 << 16} {
		rng := rand.New(rand.NewSource(int64(n)))
		words, keys := make([]uint64, n), make([]Key2, n)
		for i := range words {
			words[i] = uint64(rng.Uint32())<<32 | uint64(i)
			keys[i] = Key2{Hi: uint64(rng.Intn(64))<<32 | uint64(rng.Uint32()), Lo: uint64(rng.Uint32())<<32 | uint64(i)}
		}
		in, wbuf := make([]uint64, n), make([]uint64, n)
		kin, kbuf := make([]Key2, n), make([]Key2, n)
		perKey := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/key")
		}
		run := func(name string, sort func()) {
			b.Run(fmt.Sprintf("%s/n=%d", name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					copy(in, words)
					copy(kin, keys)
					b.StartTimer()
					sort()
				}
				perKey(b)
			})
		}
		run("words", func() { RadixWords(in, wbuf, 32) })
		run("key2", func() { RadixKey2(kin, kbuf, 32) })
		run("words-pdqsort", func() { slices.Sort(in) })
		run("key2-pdqsort", func() { slices.SortFunc(kin, cmpKey2) })
	}
}
