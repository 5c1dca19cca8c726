package wire

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// Point blocks are the densest payloads the machine exchanges —
// construction routes every input point, phase B ships element copies,
// report mode returns result points — so their layout and its helpers
// live here, shared by every package that embeds points in a record
// (core's routed/shipped/report records, persist's snapshots).
//
// One point: ID (4B LE) · dims (uvarint) · dims×4B LE coordinates.
// A run of points: count (uvarint) · the points.
//
// Decoding slices, it does not unmarshal: all coordinates of a block
// land in one arena allocated up front from the block's byte budget, and
// every point's X is a view into it — two allocations per block (points
// header slice + arena) where gob performs two per point. A geom.Block
// needs no arena: its ID and coordinate sections are two bulk reads.

// AppendPoint appends one point.
func AppendPoint(b []byte, pt geom.Point) []byte {
	b = AppendI32(b, pt.ID)
	b = AppendUvarint(b, uint64(len(pt.X)))
	return AppendI32s(b, pt.X)
}

// ReadPoint decodes one point, placing its coordinates in the arena.
// Arena growth keeps earlier views valid (they retain the old backing
// array), so callers may share one arena across a whole block.
func ReadPoint(r *Reader, arena *[]geom.Coord) geom.Point {
	id := r.I32()
	d := r.Count(4)
	if d == 0 {
		return geom.Point{ID: id}
	}
	x := arenaTake(arena, d)
	r.I32s(x)
	return geom.Point{ID: id, X: x}
}

// NewArena sizes a coordinate arena for a block of b's size: the block
// cannot hold more 32-bit values than its byte length admits, so the
// arena never reallocates while the block decodes.
func NewArena(r *Reader) []geom.Coord {
	return make([]geom.Coord, 0, r.Remaining()/4)
}

// arenaTake extends the arena by d coordinates and returns the fresh,
// capacity-clipped view. An arena sized by NewArena never actually grows
// (the block's byte budget bounds its coordinate total); the growth path
// exists so a caller-supplied arena is merely slower, never wrong.
func arenaTake(arena *[]geom.Coord, d int) []geom.Coord {
	start := len(*arena)
	need := start + d
	if need > cap(*arena) {
		na := make([]geom.Coord, start, max(need, 2*cap(*arena)))
		copy(na, *arena)
		*arena = na
	}
	*arena = (*arena)[:need]
	return (*arena)[start:need:need]
}

// AppendPoints appends a counted run of points.
func AppendPoints(b []byte, pts []geom.Point) []byte {
	b = AppendUvarint(b, uint64(len(pts)))
	for _, pt := range pts {
		b = AppendPoint(b, pt)
	}
	return b
}

// ReadPoints decodes a counted run of points into the shared arena.
func ReadPoints(r *Reader, arena *[]geom.Coord) []geom.Point {
	n := r.Count(5) // ≥ 4B ID + 1B dims each
	if n == 0 {
		return nil
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = ReadPoint(r, arena)
	}
	return pts
}

// AppendBlock appends a point block: dims (uvarint) · the ID section
// (count, then 4B IDs) · the coordinate section (count, then 4B
// coordinates). Both sections are single bulk runs.
func AppendBlock(b []byte, blk geom.Block) []byte {
	b = AppendUvarint(b, uint64(blk.Dims))
	b = AppendUvarint(b, uint64(len(blk.IDs)))
	b = AppendI32s(b, blk.IDs)
	b = AppendUvarint(b, uint64(len(blk.Coords)))
	return AppendI32s(b, blk.Coords)
}

// ReadBlock decodes a point block with two bulk reads into two fresh
// slices, which the caller owns (no view of the frame survives). A block
// whose coordinates are not IDs × dims, or whose dims is 0 beside IDs, is
// an error; a cut inside either section fails the reader.
func ReadBlock(r *Reader) (geom.Block, error) {
	var blk geom.Block
	dims := r.Uvarint()
	if n := r.Count(4); n > 0 {
		blk.IDs = make([]int32, n)
		r.I32s(blk.IDs)
	}
	if n := r.Count(4); n > 0 {
		blk.Coords = make([]geom.Coord, n)
		r.I32s(blk.Coords)
	}
	ids, xs := uint64(len(blk.IDs)), uint64(len(blk.Coords))
	if dims > math.MaxInt32 || (ids == 0 && xs != 0) || (ids > 0 && (dims == 0 || xs%ids != 0 || xs/ids != dims)) {
		return geom.Block{}, fmt.Errorf("wire: point block has %d coordinates for %d IDs of dims %d", xs, ids, dims)
	}
	blk.Dims = int(dims)
	return blk, nil
}

// AppendBox appends a query box: dims (uvarint) · Lo run · Hi run.
func AppendBox(b []byte, box geom.Box) []byte {
	b = AppendUvarint(b, uint64(len(box.Lo)))
	b = AppendI32s(b, box.Lo)
	return AppendI32s(b, box.Hi)
}

// ReadBox decodes a query box into the shared arena.
func ReadBox(r *Reader, arena *[]geom.Coord) geom.Box {
	d := r.Count(8) // 2 runs of d coordinates
	if d == 0 {
		return geom.Box{}
	}
	lohi := arenaTake(arena, 2*d)
	lo := lohi[:d:d]
	hi := lohi[d : 2*d : 2*d]
	r.I32s(lo)
	r.I32s(hi)
	return geom.Box{Lo: lo, Hi: hi}
}

func init() {
	Register(Codec[[]geom.Point]{
		Append: AppendPoints,
		Decode: func(b []byte) ([]geom.Point, error) {
			r := NewReader(b)
			arena := NewArena(&r)
			pts := ReadPoints(&r, &arena)
			if err := r.Finish(); err != nil {
				return nil, err
			}
			return pts, nil
		},
	})
}
