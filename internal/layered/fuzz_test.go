package layered

import (
	"math"
	"slices"
	"testing"

	"repro/internal/brute"
	"repro/internal/geom"
	"repro/internal/semigroup"
)

// fuzzCoord maps one fuzz byte to a coordinate from a small alphabet, so
// point sets are full of repeated coordinates (the (X[dim], ID) tie-break
// decides every order), with the int32 extremes mixed in.
func fuzzCoord(b byte) geom.Coord {
	switch {
	case b >= 250:
		return math.MaxInt32
	case b >= 244:
		return math.MinInt32
	}
	return geom.Coord(b%16) - 4
}

// FuzzLayeredVsBrute builds the tree at every startDim over fuzz-derived
// points and requires Count, the reported ID set, a float-sum Agg (a
// group: prefix tables) and a float-max Agg (not a group: segment trees) to
// equal brute force on fuzz-derived boxes.
func FuzzLayeredVsBrute(f *testing.F) {
	f.Add([]byte{1, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5})
	f.Add([]byte{2, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 250, 244, 3, 3})
	f.Add([]byte{3, 9, 9, 9, 1, 2, 3, 9, 9, 9, 4, 5, 6, 9, 9, 9, 7, 8, 9, 255, 0, 244})
	for k := byte(0); k < 4; k++ { // d = 1..4 over a few hundred heavily repeated coordinates
		f.Add(append([]byte{k}, slices.Repeat([]byte{0, 7, 3, 11, 250, 9, 1, 12, 2, 245, 5}, 60+20*int(k))...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		d := 1 + int(data[0])%4
		data = data[1:]
		n := min(len(data)/d, 300)
		if n == 0 {
			return
		}
		pts := make([]geom.Point, n)
		for i := range pts {
			x := make([]geom.Coord, d)
			for k := range x {
				x[k] = fuzzCoord(data[i*d+k])
			}
			pts[i] = geom.Point{ID: int32(i), X: x}
		}
		// Boxes reuse the same bytes from the far end: corners are drawn
		// from the coordinate alphabet, so bounds coincide with point
		// coordinates, and inverted (empty) boxes stay in.
		boxes := make([]geom.Box, 0, 8)
		for q := 0; q < 8 && (q+1)*2*d <= len(data); q++ {
			b := geom.Box{Lo: make([]geom.Coord, d), Hi: make([]geom.Coord, d)}
			for k := 0; k < d; k++ {
				b.Lo[k] = fuzzCoord(data[len(data)-1-(q*2*d+k)])
				b.Hi[k] = fuzzCoord(data[len(data)-1-(q*2*d+d+k)])
				if b.Lo[k] > b.Hi[k] && q%4 != 3 {
					b.Lo[k], b.Hi[k] = b.Hi[k], b.Lo[k]
				}
			}
			boxes = append(boxes, b)
		}
		weight := func(p geom.Point) float64 { return float64(p.ID%13) + 0.5 } // sums exactly
		bf := brute.New(pts)
		for startDim := 0; startDim < d; startDim++ {
			lt := BuildFrom(geom.BlockOf(pts, d), startDim)
			if lt.N() != n {
				t.Fatalf("d=%d start=%d: N() = %d, want %d", d, startDim, lt.N(), n)
			}
			agg := NewAgg(lt, semigroup.FloatSum(), weight) // a group: the prefix-table layout
			mx := NewAgg(lt, semigroup.MaxFloat(), weight)  // not a group: the segment tree
			for _, box := range boxes {
				// The tree ignores dimensions below startDim; open them so
				// brute force answers the same question.
				b := box.Clone()
				for k := 0; k < startDim; k++ {
					b.Lo[k], b.Hi[k] = math.MinInt32, math.MaxInt32
				}
				want := bf.Report(b)
				if got := lt.Count(b); got != len(want) {
					t.Fatalf("d=%d start=%d box %v: count %d, want %d", d, startDim, b, got, len(want))
				}
				if got := brute.IDs(lt.Report(b)); !slices.Equal(got, brute.IDs(want)) {
					t.Fatalf("d=%d start=%d box %v: report %v, want %v", d, startDim, b, got, brute.IDs(want))
				}
				if got, sum := agg.Query(b), brute.Aggregate(bf, semigroup.FloatSum(), weight, b); got != sum {
					t.Fatalf("d=%d start=%d box %v: sum %v, want %v", d, startDim, b, got, sum)
				}
				if got, want := mx.Query(b), brute.Aggregate(bf, semigroup.MaxFloat(), weight, b); got != want {
					t.Fatalf("d=%d start=%d box %v: max %v, want %v", d, startDim, b, got, want)
				}
			}
		}
	})
}
