package dominance

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/semigroup"
)

func BenchmarkDominated(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := randomPoints(rng, 1<<13, 2)
	t := mustNew(b, pts, semigroup.IntSum(), func(geom.Point) int64 { return 1 })
	c := []geom.Coord{1 << 12, 1 << 12}
	b.ResetTimer()
	var total int64
	for i := 0; i < b.N; i++ {
		total += t.dominated(c)
	}
	_ = total
}

func BenchmarkBox(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := randomPoints(rng, 1<<13, 2)
	t := mustNew(b, pts, semigroup.IntSum(), func(geom.Point) int64 { return 1 })
	box := geom.NewBox([]geom.Coord{100, 100}, []geom.Coord{5000, 5000})
	b.ResetTimer()
	var total int64
	for i := 0; i < b.N; i++ {
		total += t.Box(box)
	}
	_ = total
}
