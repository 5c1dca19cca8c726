package core

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/segtree"
	"repro/internal/wire"
)

// byteGen derives structured payload values deterministically from fuzz
// input, so the fuzzer explores the value space (dims, counts, key
// shapes, extreme coordinates) rather than only the byte space.
type byteGen struct {
	b []byte
	i int
}

func (g *byteGen) u8() byte {
	if g.i >= len(g.b) {
		return 0
	}
	v := g.b[g.i]
	g.i++
	return v
}

func (g *byteGen) i32() int32 {
	return int32(g.u8()) | int32(g.u8())<<8 | int32(g.u8())<<16 | int32(g.u8())<<24
}

func (g *byteGen) n(max int) int { return int(g.u8()) % (max + 1) }

func (g *byteGen) key(max int) segtree.PathKey {
	n := g.n(max)
	s := make([]byte, n)
	for i := range s {
		s[i] = g.u8()
	}
	return segtree.PathKey(s)
}

func (g *byteGen) point(dims int) geom.Point {
	x := make([]geom.Coord, dims)
	for i := range x {
		x[i] = geom.Coord(g.i32())
	}
	return geom.Point{ID: g.i32(), X: x}
}

// block derives a point block of n points, nil sections when n is 0.
func (g *byteGen) block(n, dims int) geom.Block {
	blk := geom.Block{Dims: dims}
	for range n {
		pt := g.point(dims)
		blk.IDs = append(blk.IDs, pt.ID)
		blk.Coords = append(blk.Coords, pt.X...)
	}
	return blk
}

func (g *byteGen) points(n, dims int) []geom.Point {
	if n == 0 {
		return nil
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = g.point(dims)
	}
	return pts
}

// hits derives a well-formed hit block of dims: no runs, one run or
// several, each of one to eight hits.
func (g *byteGen) hits(dims int) hitBlock {
	var h hitBlock
	for range g.n(5) {
		run := hitRun{Query: g.i32(), N: int32(1 + g.n(7))}
		h.Runs = append(h.Runs, run)
		for range run.N {
			pt := g.point(dims)
			h.IDs = append(h.IDs, pt.ID)
			h.Coords = append(h.Coords, pt.X...)
		}
	}
	if len(h.Runs) > 0 {
		h.Dims = dims
	}
	return h
}

// fuzzRT requires the raw codec to reproduce v exactly and to agree with
// the gob oracle; any divergence is a layout bug.
func fuzzRT[T any](t *testing.T, v T) {
	b, err := wire.Encode(nil, v)
	if err != nil {
		t.Fatalf("encode %T: %v", v, err)
	}
	got, err := wire.Decode[T](b)
	if err != nil {
		t.Fatalf("decode %T: %v", v, err)
	}
	var gbuf bytes.Buffer
	if err := gob.NewEncoder(&gbuf).Encode(&v); err != nil {
		t.Fatalf("gob oracle encode %T: %v", v, err)
	}
	var oracle T
	if err := gob.NewDecoder(&gbuf).Decode(&oracle); err != nil {
		t.Fatalf("gob oracle decode %T: %v", v, err)
	}
	if !reflect.DeepEqual(got, oracle) {
		t.Fatalf("wire and gob disagree for %T:\nwire %+v\n gob %+v", v, got, oracle)
	}
}

// mustNotPanic feeds arbitrary bytes to a registered decoder: errors are
// expected, panics (or runaway allocations, which the Count guard turns
// into errors) are bugs.
func mustNotPanic[T any](t *testing.T, raw []byte) {
	_, _ = wire.Decode[T](raw)
}

// FuzzWireRoundTrip drives every registered hot-path codec from one fuzz
// input: the first byte splits the budget, the rest derives values (for
// the encode→decode oracle check) and doubles as a hostile block (for the
// corrupt-input check, tagged raw and tagged gob).
func FuzzWireRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte("R\x05points and boxes and keys"))
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	seed, _ := wire.Encode(nil, []geom.Point{{ID: 1, X: []geom.Coord{2, 3}}})
	f.Add(seed)
	// Phase-C copies: a reference row beside a by-value row, and the same
	// block with the reference's flag byte corrupted (neither layout).
	refs, _ := wire.Encode(nil, []routeRow{
		{Copy: &shippedElem{Info: ElemInfo{ID: 7}, Ref: true}},
		{Copy: &shippedElem{Info: ElemInfo{ID: 9, Owner: 1, Count: 3, Key: "k"},
			Pts: &geom.Block{Dims: 2, IDs: []int32{4, 7, 8}, Coords: []geom.Coord{5, 6, -1, 0, 9, 9}}}},
	})
	f.Add(refs)
	badFlag := bytes.Clone(refs)
	badFlag[4] = 2 // tag, row count, copy count, the first row's subquery flag, then its Ref flag
	f.Add(badFlag)
	// Phase C with a subquery row, and phase D with a row of each kind.
	route, _ := wire.Encode(nil, []routeRow{{Sub: subquery{Query: 1, Elem: 2,
		Box: geom.Box{Lo: []geom.Coord{0, 0}, Hi: []geom.Coord{9, 9}}}}})
	f.Add(route)
	results, _ := wire.Encode(nil, []resultRow[int64]{{Kind: rowCount, Query: 1, N: 5}, {Kind: rowAgg, Query: 2, Val: -3},
		{Kind: rowWeight, N: 40}, {Kind: rowOrder, Query: 3, Elem: 4, N: 17}})
	f.Add(results)
	// Phase C's reply with a hit block of two runs.
	reply, _ := wire.Encode(nil, installServeReply{Serve: mixedServeReply{Served: 2, Hits: hitBlock{
		Runs:  []hitRun{{Query: 1, N: 2}, {Query: 3, N: 1}},
		Block: geom.Block{Dims: 2, IDs: []int32{4, 5, 6}, Coords: []geom.Coord{7, 8, 9, 10, 11, 12}}}}})
	f.Add(reply)
	// A whole-element fetch reply: two blocks, one of them empty.
	fetched, _ := wire.Encode(nil, []geom.Block{{Dims: 3, IDs: []int32{1, 2}, Coords: []geom.Coord{1, 2, 3, 4, 5, 6}}, {Dims: 3}})
	f.Add(fetched)

	f.Fuzz(func(t *testing.T, data []byte) {
		g := &byteGen{b: data}
		dims := 1 + g.n(4)
		n := g.n(12)

		fuzzRT(t, g.points(n, dims))
		fuzzRT(t, []geom.Block{g.block(n, dims), g.block(g.n(3), dims)})

		eps := make([]epoint, n)
		for i := range eps {
			eps[i] = epoint{Elem: ElemID(g.i32()), Pt: g.point(dims)}
		}
		if n == 0 {
			eps = nil
		}
		fuzzRT(t, eps)

		recs := make([]srec, n)
		for i := range recs {
			recs[i] = srec{Ord: uint32(g.i32()), Pt: g.point(dims)}
		}
		if n == 0 {
			recs = nil
		}
		fuzzRT(t, recs)

		subs := make([]subquery, n)
		for i := range subs {
			lo := make([]geom.Coord, dims)
			hi := make([]geom.Coord, dims)
			for d := range lo {
				lo[d], hi[d] = geom.Coord(g.i32()), geom.Coord(g.i32())
			}
			subs[i] = subquery{Query: g.i32(), Elem: ElemID(g.i32()), Box: geom.Box{Lo: lo, Hi: hi}}
		}
		if n == 0 {
			subs = nil
		}
		fuzzRT(t, serveArgs{Subs: subs})

		// Phase C: copies and subqueries in one block, its emit's
		// arguments, its collect's arguments and reply.
		rows := make([]routeRow, g.n(4))
		for i := range rows {
			switch g.u8() % 3 {
			case 0:
				// A reference row carries the element ID and nothing else.
				rows[i].Copy = &shippedElem{Info: ElemInfo{ID: ElemID(g.i32())}, Ref: true}
			case 1:
				rows[i].Copy = &shippedElem{
					Info: ElemInfo{ID: ElemID(g.i32()), Owner: g.i32(), Count: g.i32(),
						Dim: int8(g.u8()), Key: g.key(9), Min: geom.Coord(g.i32()), Max: geom.Coord(g.i32())},
					Pts: blockPtr(g.block(g.n(6), dims)),
				}
			default:
				if len(subs) > 0 {
					rows[i] = routeRow{Sub: subs[i%len(subs)]}
				}
			}
		}
		if len(rows) == 0 {
			rows = nil
		}
		fuzzRT(t, rows)

		ships := make([]hostShip, g.n(3))
		for i := range ships {
			ships[i].Host = g.i32()
			if k := g.n(4); k > 0 {
				ships[i].Elems = make([]ElemID, k)
				ships[i].Refs = make([]bool, k)
				for j := range ships[i].Elems {
					ships[i].Elems[j], ships[i].Refs[j] = ElemID(g.i32()), g.u8()&1 == 1
				}
			}
		}
		if len(ships) == 0 {
			ships = nil
		}
		routed := make([][]subquery, g.n(4))
		for i := range routed {
			if k := g.n(len(subs)); k > 0 {
				routed[i] = subs[:k]
			}
		}
		if len(routed) == 0 {
			routed = nil
		}
		fuzzRT(t, shipRouteArgs{Ships: ships, Routed: routed})
		mops := make([]MixedOp, g.n(6))
		for i := range mops {
			mops[i] = MixedOp(g.u8() % 3)
		}
		if len(mops) == 0 {
			mops = nil
		}
		fuzzRT(t, installServeArgs{Cap: int(g.i32()), Agg: string(g.key(5)), Ops: mops})
		ops := make([]cacheOp, g.n(4))
		for i := range ops {
			ops[i] = cacheOp{ID: ElemID(g.i32()), Evict: g.u8()&1 == 1}
		}
		if len(ops) == 0 {
			ops = nil
		}
		served := make([]qcount, g.n(3))
		for i := range served {
			served[i] = qcount{Query: g.i32(), Val: int64(g.i32())}
		}
		if len(served) == 0 {
			served = nil
		}
		var aggs []byte
		if k := g.n(5); k > 0 {
			aggs = []byte(g.key(k))
		}
		fuzzRT(t, installServeReply{
			Note: copyNote{CopiedPts: int(g.i32()), RefPts: int(g.i32())},
			Install: installCopiesReply{Held: int(g.i32()), CacheHits: int(g.i32()), ByRef: int(g.i32()),
				InstallNanos: int64(g.i32()), Ops: ops},
			Serve: mixedServeReply{Served: int(g.i32()), Counts: served, Aggs: aggs, Hits: g.hits(dims)},
		})

		// Phase D: partials, weights and orders, each row in its kind's
		// canonical form.
		dRows := make([]resultRow[float64], g.n(8))
		for i := range dRows {
			switch k := rowKind(g.u8() % 4); k {
			case rowCount:
				dRows[i] = resultRow[float64]{Kind: k, Query: g.i32(), N: int64(g.i32())}
			case rowAgg:
				dRows[i] = resultRow[float64]{Kind: k, Query: g.i32(), Val: float64(g.i32())}
			case rowWeight:
				dRows[i] = resultRow[float64]{Kind: k, N: int64(g.i32())}
			case rowOrder:
				dRows[i] = resultRow[float64]{Kind: k, Query: g.i32(), Elem: ElemID(g.i32()), N: int64(g.i32())}
			}
		}
		if len(dRows) == 0 {
			dRows = nil
		}
		fuzzRT(t, dRows)
		var iRows []resultRow[int64]
		var eRows []resultRow[struct{}]
		for _, row := range dRows {
			iRows = append(iRows, resultRow[int64]{Kind: row.Kind, Query: row.Query, Elem: row.Elem, N: row.N, Val: int64(row.Val)})
			if row.Kind != rowAgg {
				eRows = append(eRows, resultRow[struct{}]{Kind: row.Kind, Query: row.Query, Elem: row.Elem, N: row.N})
			}
		}
		fuzzRT(t, iRows)
		fuzzRT(t, eRows)

		qcs := make([]qcount, n)
		qis := make([]qvalT[int64], n)
		qfs := make([]qvalT[float64], n)
		for i := range qcs {
			qcs[i] = qcount{Query: g.i32(), Val: int64(g.i32())<<32 | int64(uint32(g.i32()))}
			qis[i] = qvalT[int64]{Query: g.i32(), Val: int64(g.i32())}
			qfs[i] = qvalT[float64]{Query: g.i32(), Val: float64(g.i32())}
		}
		if n == 0 {
			qcs, qis, qfs = nil, nil, nil
		}
		fuzzRT(t, qcs)
		fuzzRT(t, qis)
		fuzzRT(t, qfs)

		rps := make([]ReportPair, n)
		for i := range rps {
			rps[i] = ReportPair{Query: g.i32(), Pt: g.point(dims)}
		}
		if n == 0 {
			rps = nil
		}
		fuzzRT(t, rps)

		// Hostile input: the raw fuzz bytes as a block, both tagged raw
		// ('R' + data) and verbatim. Decoders must return errors, never
		// panic or over-allocate.
		hostile := append([]byte{'R'}, data...)
		for _, blk := range [][]byte{data, hostile} {
			mustNotPanic[[]geom.Point](t, blk)
			mustNotPanic[[]geom.Block](t, blk)
			mustNotPanic[[]epoint](t, blk)
			mustNotPanic[[]srec](t, blk)
			mustNotPanic[[]runSum](t, blk)
			mustNotPanic[routeHeldArgs](t, blk)
			mustNotPanic[nextHeldArgs](t, blk)
			mustNotPanic[[]routeRow](t, blk)
			mustNotPanic[shipRouteArgs](t, blk)
			mustNotPanic[installServeArgs](t, blk)
			mustNotPanic[installServeReply](t, blk)
			mustNotPanic[serveArgs](t, blk)
			mustNotPanic[[]resultRow[struct{}]](t, blk)
			mustNotPanic[[]resultRow[int64]](t, blk)
			mustNotPanic[[]resultRow[float64]](t, blk)
			mustNotPanic[[]qcount](t, blk)
			mustNotPanic[[]qvalT[int64]](t, blk)
			mustNotPanic[[]qvalT[float64]](t, blk)
			mustNotPanic[[]ReportPair](t, blk)
			mustNotPanic[[]byte](t, blk)
		}
	})
}
