package psort

import (
	"fmt"
	"math/rand"
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
