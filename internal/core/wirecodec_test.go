package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/geom"
	"repro/internal/segtree"
	"repro/internal/wire"
)

// ------------------------------------------------- deterministic values

// genPayloads builds one value of every registered hot-path payload type
// from a seeded source, in canonical form (nil for empty slices, matching
// both codecs' decode side).
func genPoint(rng *rand.Rand, dims int) geom.Point {
	x := make([]geom.Coord, dims)
	for i := range x {
		x[i] = geom.Coord(rng.Int31n(2000) - 1000)
	}
	return geom.Point{ID: rng.Int31(), X: x}
}

func genPoints(rng *rand.Rand, n, dims int) []geom.Point {
	if n == 0 {
		return nil
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = genPoint(rng, dims)
	}
	return pts
}

// genBlock is a block of n random points; an empty one has nil sections,
// as the decoder leaves them.
func genBlock(rng *rand.Rand, n, dims int) geom.Block {
	if n == 0 {
		return geom.Block{Dims: dims}
	}
	return geom.BlockOf(genPoints(rng, n, dims), dims)
}

func blockPtr(b geom.Block) *geom.Block { return &b }

func genBox(rng *rand.Rand, dims int) geom.Box {
	lo := make([]geom.Coord, dims)
	hi := make([]geom.Coord, dims)
	for i := range lo {
		lo[i] = geom.Coord(rng.Int31n(1000))
		hi[i] = lo[i] + geom.Coord(rng.Int31n(100))
	}
	return geom.Box{Lo: lo, Hi: hi}
}

func genKey(rng *rand.Rand) segtree.PathKey {
	b := make([]byte, rng.Intn(8))
	for i := range b {
		b[i] = byte('0' + rng.Intn(10))
	}
	return segtree.PathKey(b)
}

// roundTrip encodes v through the wire codec and through a gob oracle,
// decodes both, and requires all three values to agree — the raw layout
// must be a drop-in replacement for what gob carried before.
func roundTrip[T any](t *testing.T, v T) {
	t.Helper()
	if !wire.Registered[T]() {
		t.Fatalf("%T has no registered codec", v)
	}
	b, err := wire.Encode(nil, v)
	if err != nil {
		t.Fatalf("wire encode %T: %v", v, err)
	}
	got, err := wire.Decode[T](b)
	if err != nil {
		t.Fatalf("wire decode %T: %v", v, err)
	}
	if !reflect.DeepEqual(got, v) {
		t.Fatalf("wire round trip of %T:\n got %+v\nwant %+v", v, got, v)
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
	// Truncations must error, never panic.
	for cut := 0; cut < len(b); cut += 1 + len(b)/16 {
		if _, err := wire.Decode[T](b[:cut]); err == nil && cut < len(b) {
			t.Fatalf("truncated %T block (cut %d of %d) accepted", v, cut, len(b))
		}
	}
}

func TestWireCodecsMatchGobOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 20; round++ {
		dims := 1 + rng.Intn(4)
		n := rng.Intn(30)

		eps := make([]epoint, n)
		for i := range eps {
			eps[i] = epoint{Elem: ElemID(rng.Int31n(500)), Pt: genPoint(rng, dims)}
		}
		if n == 0 {
			eps = nil
		}
		roundTrip(t, eps)

		recs := make([]srec, n)
		for i := range recs {
			recs[i] = srec{Ord: rng.Uint32() >> rng.Intn(32), Pt: genPoint(rng, dims)}
		}
		if n == 0 {
			recs = nil
		}
		roundTrip(t, recs)

		// The held-construct frames that name trees by ordinal.
		runs := make([]runSum, n)
		trees := make([]treeSum, n)
		keys := make([]segtree.PathKey, n)
		for i := range runs {
			runs[i] = runSum{Ord: rng.Uint32() >> rng.Intn(32), Count: rng.Intn(5000)}
			trees[i] = treeSum{Ord: rng.Uint32() >> rng.Intn(32), Key: genKey(rng), M: rng.Intn(5000),
				Start: rng.Intn(1 << 20), Elem0: ElemID(rng.Int31n(500))}
			keys[i] = genKey(rng)
		}
		if n == 0 {
			runs, trees, keys = nil, nil, nil
		}
		roundTrip(t, runs)
		roundTrip(t, balanceReply{Len: rng.Intn(1 << 20), Runs: runs})
		roundTrip(t, routeHeldArgs{Trees: trees, Grain: 1 + rng.Intn(4096), Offset: rng.Intn(1 << 20)})
		roundTrip(t, nextHeldArgs{Dim: int8(rng.Intn(dims)), Keys: keys})

		subs := make([]subquery, n)
		for i := range subs {
			subs[i] = subquery{Query: rng.Int31n(1000), Elem: ElemID(rng.Int31n(500)), Box: genBox(rng, dims)}
		}
		if n == 0 {
			subs = nil
		}
		roundTrip(t, serveArgs{Subs: subs})

		// Phase C: copies by value and by reference beside subqueries.
		rows := make([]routeRow, rng.Intn(8))
		for i := range rows {
			switch rng.Intn(3) {
			case 0:
				rows[i].Copy = &shippedElem{Info: ElemInfo{ID: ElemID(rng.Int31n(500))}, Ref: true}
			case 1:
				rows[i].Copy = &shippedElem{
					Info: ElemInfo{
						ID: ElemID(rng.Int31n(500)), Owner: rng.Int31n(8),
						Count: rng.Int31n(100), Dim: int8(rng.Intn(dims)),
						Key: genKey(rng), Min: geom.Coord(rng.Int31n(100)), Max: geom.Coord(rng.Int31n(100)),
					},
					Pts: blockPtr(genBlock(rng, rng.Intn(20), dims)),
				}
			default:
				rows[i] = routeRow{Sub: subquery{Query: rng.Int31n(1000), Elem: ElemID(rng.Int31n(500)), Box: genBox(rng, dims)}}
			}
		}
		if len(rows) == 0 {
			rows = nil
		}
		roundTrip(t, rows)
		// Whole-element fetches: one block per element, some empty.
		fetched := make([]geom.Block, rng.Intn(4))
		for i := range fetched {
			fetched[i] = genBlock(rng, rng.Intn(3)*rng.Intn(20), dims)
		}
		if len(fetched) == 0 {
			fetched = nil
		}
		roundTrip(t, fetched)
		routed := make([][]subquery, 1+rng.Intn(4))
		for i := range routed {
			routed[i] = subs[:rng.Intn(n+1)]
			if len(routed[i]) == 0 {
				routed[i] = nil
			}
		}
		roundTrip(t, shipRouteArgs{Ships: []hostShip{{Host: 2, Elems: []ElemID{3, 5}, Refs: []bool{true, false}}}, Routed: routed})

		// Phase D: one row of each kind per query, canonical per kind.
		var iRows []resultRow[int64]
		var fRows []resultRow[float64]
		var eRows []resultRow[struct{}]
		for i := 0; i < n; i++ {
			q, e, v := rng.Int31n(1000), ElemID(rng.Int31n(500)), rng.Int63n(1<<40)-(1<<39)
			for _, k := range []rowKind{rowCount, rowAgg, rowWeight, rowOrder} {
				row := resultRow[int64]{Kind: k, Query: q, N: v}
				switch k {
				case rowAgg:
					row.N, row.Val = 0, v
				case rowWeight:
					row.Query = 0
				case rowOrder:
					row.Elem = e
				}
				iRows = append(iRows, row)
				fRows = append(fRows, resultRow[float64]{Kind: k, Query: row.Query, Elem: row.Elem, N: row.N, Val: float64(row.Val) / 8})
				if k != rowAgg {
					eRows = append(eRows, resultRow[struct{}]{Kind: k, Query: row.Query, Elem: row.Elem, N: row.N})
				}
			}
		}
		roundTrip(t, iRows)
		roundTrip(t, fRows)
		roundTrip(t, eRows)

		qcs := make([]qcount, n)
		for i := range qcs {
			qcs[i] = qcount{Query: rng.Int31n(1000), Val: rng.Int63() - (1 << 60)}
		}
		if n == 0 {
			qcs = nil
		}
		roundTrip(t, qcs)

		qis := make([]qvalT[int64], n)
		qfs := make([]qvalT[float64], n)
		for i := range qis {
			qis[i] = qvalT[int64]{Query: rng.Int31n(1000), Val: rng.Int63()}
			qfs[i] = qvalT[float64]{Query: rng.Int31n(1000), Val: rng.NormFloat64()}
		}
		if n == 0 {
			qis, qfs = nil, nil
		}
		roundTrip(t, qis)
		roundTrip(t, qfs)

		// Phase C's reply, its hit block of no, one or several runs.
		var hits hitBlock
		for range rng.Intn(6) {
			run := hitRun{Query: rng.Int31n(1000), N: 1 + rng.Int31n(10)}
			hits.Runs = append(hits.Runs, run)
			for _, pt := range genPoints(rng, int(run.N), dims) {
				hits.IDs = append(hits.IDs, pt.ID)
				hits.Coords = append(hits.Coords, pt.X...)
			}
		}
		if len(hits.Runs) > 0 {
			hits.Dims = dims
		}
		rep := installServeReply{Note: copyNote{CopiedPts: rng.Intn(5000), RefPts: rng.Intn(5000)},
			Install: installCopiesReply{Held: rng.Intn(50), InstallNanos: rng.Int63()},
			Serve:   mixedServeReply{Served: rng.Intn(500), Hits: hits}}
		roundTrip(t, rep)
		if b, _ := wire.Encode(nil, rep); len(b) != 1+installServeReplySize(rep) {
			t.Fatalf("installServeReply encodes to %d bytes after its tag, sized %d", len(b)-1, installServeReplySize(rep))
		}

		rps := make([]ReportPair, n)
		for i := range rps {
			rps[i] = ReportPair{Query: rng.Int31n(1000), Pt: genPoint(rng, dims)}
		}
		if n == 0 {
			rps = nil
		}
		roundTrip(t, rps)
	}
}

// decodeHostile decodes b as T and requires an error, not a panic.
func decodeHostile[T any](t *testing.T, what string, b []byte) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: decoding %T panicked: %v", what, *new(T), r)
		}
	}()
	if _, err := wire.Decode[T](b); err == nil {
		t.Fatalf("%s: %T block accepted", what, *new(T))
	}
}

// TestRowCodecsRejectHostileBlocks: the tagged rows of phases C and D
// decode a row tag outside their kinds, a block cut short, and a hit
// block or copied element block whose sections disagree, to an error.
func TestRowCodecsRejectHostileBlocks(t *testing.T) {
	route, err := wire.Encode(nil, []routeRow{
		{Sub: subquery{Query: 1, Elem: 2, Box: geom.Box{Lo: []geom.Coord{0}, Hi: []geom.Coord{5}}}},
		{Copy: &shippedElem{Info: ElemInfo{ID: 3}, Ref: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Clone(route)
	bad[3] = 7 // block tag, row count, copy count, then the first row's tag
	decodeHostile[[]routeRow](t, "unknown route tag", bad)
	decodeHostile[[]routeRow](t, "truncated route block", route[:len(route)-2])
	for _, claim := range []byte{0, 2, 3} { // the block holds one copy row of two
		bad := bytes.Clone(route)
		bad[2] = claim
		decodeHostile[[]routeRow](t, fmt.Sprintf("route block claiming %d copies", claim), bad)
	}

	check := func(name string, b []byte, decode func(string, []byte)) {
		bad := bytes.Clone(b)
		bad[2] = 9
		decode(name+": unknown row kind", bad)
		decode(name+": truncated block", b[:len(b)-1])
	}
	eb, _ := wire.Encode(nil, []resultRow[struct{}]{{Kind: rowOrder, Query: 4, Elem: 5, N: 6}, {Kind: rowWeight, N: 7}})
	check("phase D, no value", eb, func(w string, b []byte) { decodeHostile[[]resultRow[struct{}]](t, w, b) })
	ib, _ := wire.Encode(nil, []resultRow[int64]{{Kind: rowAgg, Query: 4, Val: 8}})
	check("phase D, int64", ib, func(w string, b []byte) { decodeHostile[[]resultRow[int64]](t, w, b) })
	fb, _ := wire.Encode(nil, []resultRow[float64]{{Kind: rowCount, Query: 4, N: 2}})
	check("phase D, float64", fb, func(w string, b []byte) { decodeHostile[[]resultRow[float64]](t, w, b) })

	// Phase C's reply ends in its hit block, so a reply with another block
	// is the empty reply's prefix with that block appended.
	empty, err := wire.Encode(nil, installServeReply{})
	if err != nil {
		t.Fatal(err)
	}
	prefix := empty[:len(empty)-hitBlockSize(hitBlock{})]
	reply := func(h hitBlock) []byte { return appendHitBlock(bytes.Clone(prefix), h) }
	good := hitBlock{Runs: []hitRun{{Query: 1, N: 2}, {Query: 5, N: 1}},
		Block: geom.Block{Dims: 2, IDs: []int32{7, 8, 9}, Coords: []geom.Coord{1, 2, 3, 4, 5, 6}}}
	ids, xs := good.IDs, good.Coords
	blk := func(dims int, ids []int32, xs []geom.Coord) geom.Block {
		return geom.Block{Dims: dims, IDs: ids, Coords: xs}
	}
	if rep, err := wire.Decode[installServeReply](reply(good)); err != nil || !reflect.DeepEqual(rep.Serve.Hits, good) {
		t.Fatalf("well-formed hit block: %+v, %v", rep.Serve.Hits, err)
	}
	for _, c := range []struct {
		what string
		h    hitBlock
	}{
		{"runs summing past the IDs", hitBlock{[]hitRun{{1, 2}, {5, 2}}, good.Block}},
		{"runs summing short of the IDs", hitBlock{[]hitRun{{1, 2}}, good.Block}},
		{"an empty run", hitBlock{[]hitRun{{1, 3}, {5, 0}}, good.Block}},
		{"coordinates not IDs × dims", hitBlock{good.Runs, blk(2, ids, xs[:5])}},
		{"dims not coordinates / IDs", hitBlock{good.Runs, blk(3, ids, xs)}},
		{"dims 0 with IDs", hitBlock{good.Runs, blk(0, ids, nil)}},
		{"dims without IDs", hitBlock{nil, blk(2, nil, nil)}},
		{"coordinates without IDs", hitBlock{nil, blk(2, nil, xs)}},
	} {
		decodeHostile[installServeReply](t, "hit block with "+c.what, reply(c.h))
	}
	// Cut inside the run table, the ID section and the coordinate section.
	full := reply(good)
	idsAt := len(prefix) + 2 + 5*len(good.Runs) // run count, 4B query + 1B length a run, dims
	xAt := idsAt + 1 + 4*len(good.IDs)
	for _, cut := range []int{len(prefix) + 4, idsAt + 3, xAt + 7, len(full) - 1} {
		decodeHostile[installServeReply](t, fmt.Sprintf("hit block cut at byte %d of %d", cut, len(full)), full[:cut])
	}

	// A by-value copy row carries its element's point block the same way.
	copyRow := func(b geom.Block) []byte {
		buf, err := wire.Encode(nil, []routeRow{{Copy: &shippedElem{Info: ElemInfo{ID: 4, Count: int32(b.Len()), Key: "k"}, Pts: &b}}})
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	elem := blk(2, ids, xs)
	if rows, err := wire.Decode[[]routeRow](copyRow(elem)); err != nil || !reflect.DeepEqual(*rows[0].Copy.Pts, elem) {
		t.Fatalf("well-formed copy block: %+v, %v", rows, err)
	}
	for _, c := range []struct {
		what string
		b    geom.Block
	}{
		{"coordinates not IDs × dims", blk(2, ids, xs[:5])},
		{"dims not coordinates / IDs", blk(3, ids, xs)},
		{"dims 0 beside IDs", blk(0, ids, nil)},
		{"coordinates without IDs", blk(2, nil, xs)},
	} {
		decodeHostile[[]routeRow](t, "copy block with "+c.what, copyRow(c.b))
	}
	// Cut inside the ID section and inside the coordinate section.
	full = copyRow(elem)
	xAt = len(full) - 1 - 4*len(xs) // the coordinate count, then the coordinates
	for _, cut := range []int{xAt - 2, len(full) - 5} {
		decodeHostile[[]routeRow](t, fmt.Sprintf("copy block cut at byte %d of %d", cut, len(full)), full[:cut])
	}
}

// TestRouteRowSize: a routed subquery row is its subquery and one
// pointer. Subqueries are most of phase C's rows, so a copy carried inline
// beside each (56 more bytes) would nearly double what the route rows
// allocate.
func TestRouteRowSize(t *testing.T) {
	if got, want := unsafe.Sizeof(routeRow{}), unsafe.Sizeof(subquery{})+unsafe.Sizeof(&shippedElem{}); got != want {
		t.Errorf("a route row is %d bytes, want %d: its subquery and a copy pointer", got, want)
	}
}

// ------------------------------------------------------------ benchmarks

// benchEncDec measures both codecs on the same block value: the raw path
// through wire.Encode/Decode, the gob oracle exactly as the exchange
// layer used it before (fresh encoder per block — gob type descriptors
// cannot be reused across independently decoded blocks).
func benchEncDec[T any](b *testing.B, name string, v T) {
	raw, err := wire.Encode(nil, v)
	if err != nil {
		b.Fatal(err)
	}
	var gbuf bytes.Buffer
	if err := gob.NewEncoder(&gbuf).Encode(&v); err != nil {
		b.Fatal(err)
	}
	gb := append([]byte(nil), gbuf.Bytes()...)
	b.Run(name+"/enc/raw", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(raw)))
		for i := 0; i < b.N; i++ {
			buf := wire.GetBuf()
			buf, err := wire.Encode(buf, v)
			if err != nil {
				b.Fatal(err)
			}
			wire.PutBuf(buf)
		}
	})
	b.Run(name+"/enc/gob", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(gb)))
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(name+"/dec/raw", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(raw)))
		for i := 0; i < b.N; i++ {
			if _, err := wire.Decode[T](raw); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(name+"/dec/gob", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(gb)))
		for i := 0; i < b.N; i++ {
			var out T
			if err := gob.NewDecoder(bytes.NewReader(gb)).Decode(&out); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWireCodec is the gob-vs-raw microbench of ISSUE 6: one block
// of each hot payload shape at exchange-realistic sizes.
func BenchmarkWireCodec(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	const n, dims = 1024, 3

	benchEncDec(b, "points", genPoints(rng, n, dims))

	eps := make([]epoint, n)
	for i := range eps {
		eps[i] = epoint{Elem: ElemID(rng.Int31n(500)), Pt: genPoint(rng, dims)}
	}
	benchEncDec(b, "epoints", eps)

	subs := make([]routeRow, n)
	for i := range subs {
		subs[i] = routeRow{Sub: subquery{Query: int32(i), Elem: ElemID(rng.Int31n(500)), Box: genBox(rng, dims)}}
	}
	benchEncDec(b, "subqueries", subs)

	qcs := make([]qcount, n)
	for i := range qcs {
		qcs[i] = qcount{Query: int32(i), Val: rng.Int63()}
	}
	benchEncDec(b, "qcounts", qcs)

	rps := make([]ReportPair, n)
	for i := range rps {
		rps[i] = ReportPair{Query: int32(i), Pt: genPoint(rng, dims)}
	}
	benchEncDec(b, "reportpairs", rps)

	els := make([]routeRow, 8)
	for i := range els {
		els[i].Copy = &shippedElem{
			Info: ElemInfo{ID: ElemID(i), Owner: int32(i % 4), Count: int32(n / 8),
				Dim: 1, Key: segtree.PathKey(fmt.Sprintf("0.%d", i)), Min: 0, Max: 1000},
			Pts: blockPtr(genBlock(rng, n/8, dims)),
		}
	}
	benchEncDec(b, "shipped", els)
}
