package core

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/geom"
	"repro/internal/segtree"
	"repro/internal/wire"
)

// Raw wire codecs for the superstep payload types that dominate the
// machine's traffic (ROADMAP item 3): construction's routed points and
// S^(j+1) records, phase B's element copies, phase C's query boxes, and
// the result blocks of each kind. Registration happens here, in core's init,
// so every binary that can run the SPMD programs (coordinator and
// rangeworker both import core) agrees on the raw-coded type set by
// construction. A type without a codec cannot cross the wire: aggregate
// values are int64 or float64 (RegisterAggregate's constraint), the two
// value types the generic rows below are registered for.
//
// Layouts follow the package wire discipline: counts and string lengths
// are uvarints, IDs/coordinates/values are fixed-width little-endian.
// Decoders share one coordinate arena per block (points become views
// into it), so decoding a block costs a handful of allocations regardless
// of its element count.

// appendElemInfo appends the fixed-layout replicated metadata.
func appendElemInfo(b []byte, info ElemInfo) []byte {
	b = wire.AppendI32(b, int32(info.ID))
	b = wire.AppendI32(b, info.Owner)
	b = wire.AppendI32(b, info.Count)
	b = append(b, byte(info.Dim))
	b = wire.AppendString(b, string(info.Key))
	b = wire.AppendI32(b, info.Min)
	b = wire.AppendI32(b, info.Max)
	return b
}

// readElemInfo decodes one ElemInfo (the per-info key allocation is fine
// here: copy payloads carry few elements, each with many points).
func readElemInfo(r *wire.Reader) ElemInfo {
	var info ElemInfo
	info.ID = ElemID(r.I32())
	info.Owner = r.I32()
	info.Count = r.I32()
	if d := r.Bytes(1); d != nil {
		info.Dim = int8(d[0])
	}
	info.Key = segtree.PathKey(r.Str())
	info.Min = r.I32()
	info.Max = r.I32()
	return info
}

// ------------------------------------------------------------ S^j records

// appendSrecs encodes a record block: the count, all tree ordinals as
// uvarints in one framed section, then the points. Ordinals go first so
// the decoder sizes its coordinate arena from the bytes the points alone
// occupy. Shared by the []srec exchange codec and the held-construct
// argument/reply codecs (wirecodec2.go).
func appendSrecs(buf []byte, recs []srec) []byte {
	buf = wire.AppendUvarint(buf, uint64(len(recs)))
	size := 0
	for _, rec := range recs {
		size += uvarintLen(uint64(rec.Ord))
	}
	buf = wire.AppendUvarint(buf, uint64(size))
	for _, rec := range recs {
		buf = wire.AppendUvarint(buf, uint64(rec.Ord))
	}
	for _, rec := range recs {
		buf = wire.AppendPoint(buf, rec.Pt)
	}
	return buf
}

// uvarintLen is the encoded length of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// readSrecs decodes one appendSrecs block in place in the reader.
func readSrecs(r *wire.Reader) ([]srec, error) {
	n := r.Count(6) // 1B ordinal + ≥5B point
	ords := wire.NewReader(r.Section())
	var recs []srec
	if n > 0 {
		recs = make([]srec, n)
	}
	for i := range recs {
		var err error
		if recs[i].Ord, err = readOrd(&ords); err != nil {
			return nil, err
		}
	}
	if err := ords.Finish(); err != nil {
		return nil, fmt.Errorf("core: tree-ordinal section: %w", err)
	}
	arena := wire.NewArena(r)
	for i := range recs {
		recs[i].Pt = wire.ReadPoint(r, &arena)
	}
	return recs, nil
}

// ------------------------------------------------------------ subqueries

func appendSubquery(b []byte, s subquery) []byte {
	b = wire.AppendI32(b, s.Query)
	b = wire.AppendI32(b, int32(s.Elem))
	return wire.AppendBox(b, s.Box)
}

func readSubquery(r *wire.Reader, arena *[]geom.Coord) subquery {
	return subquery{Query: r.I32(), Elem: ElemID(r.I32()), Box: wire.ReadBox(r, arena)}
}

func appendSubqueries(b []byte, subs []subquery) []byte {
	b = wire.AppendUvarint(b, uint64(len(subs)))
	for _, s := range subs {
		b = appendSubquery(b, s)
	}
	return b
}

func readSubqueries(r *wire.Reader, arena *[]geom.Coord) []subquery {
	n := r.Count(9) // 2×4B IDs + ≥1B box dims
	if n == 0 {
		return nil
	}
	subs := make([]subquery, n)
	for i := range subs {
		subs[i] = readSubquery(r, arena)
	}
	return subs
}

// ------------------------------------------------------------ copies

// appendShipped appends one element copy: the Ref flag, then the element
// ID alone for a reference, the metadata and the point block for a
// by-value copy (a nil block as an empty one of dims 0).
func appendShipped(b []byte, sh shippedElem) []byte {
	b = append(b, flagByte(sh.Ref))
	if sh.Ref {
		return wire.AppendI32(b, int32(sh.Info.ID))
	}
	b = appendElemInfo(b, sh.Info)
	if sh.Pts == nil {
		return wire.AppendBlock(b, geom.Block{})
	}
	return wire.AppendBlock(b, *sh.Pts)
}

// readShipped decodes one element copy; a by-value copy's block is two
// bulk reads into slices of its own, which the built copy keeps, and a
// block of dims 0 (which holds no point) decodes to nil.
func readShipped(r *wire.Reader) (shippedElem, error) {
	var sh shippedElem
	ref, err := readFlag(r)
	if err != nil {
		return sh, err
	}
	if sh.Ref = ref; ref {
		sh.Info.ID = ElemID(r.I32())
		return sh, nil
	}
	sh.Info = readElemInfo(r)
	blk, err := wire.ReadBlock(r)
	if blk.Dims != 0 {
		sh.Pts = &blk
	}
	return sh, err
}

// ------------------------------------------------------------ phase D rows

// resultRowCodec registers the raw codec of []resultRow[T], given T's
// value layout. Every row opens with its kind; a count carries its query
// and value, an aggregate partial its query and T, a weight its value,
// an order its query, element and offset.
func resultRowCodec[T any](app func([]byte, T) []byte, read func(*wire.Reader) T) {
	fixedCodec(
		func(buf []byte, rows []resultRow[T]) []byte {
			buf = wire.AppendUvarint(buf, uint64(len(rows)))
			for _, row := range rows {
				buf = append(buf, byte(row.Kind))
				switch row.Kind {
				case rowCount:
					buf = wire.AppendI32(buf, row.Query)
					buf = wire.AppendI64(buf, row.N)
				case rowAgg:
					buf = wire.AppendI32(buf, row.Query)
					buf = app(buf, row.Val)
				case rowWeight:
					buf = wire.AppendVarint(buf, row.N)
				case rowOrder:
					buf = wire.AppendI32(buf, row.Query)
					buf = wire.AppendI32(buf, int32(row.Elem))
					buf = wire.AppendVarint(buf, row.N)
				}
			}
			return buf
		},
		func(r *wire.Reader) ([]resultRow[T], error) {
			n := r.Count(2) // kind + a one-byte weight
			var rows []resultRow[T]
			if n > 0 {
				rows = make([]resultRow[T], n)
				for i := range rows {
					row := &rows[i]
					k := r.Bytes(1)
					if k == nil {
						break // truncated: the reader has failed
					}
					switch row.Kind = rowKind(k[0]); row.Kind {
					case rowCount:
						row.Query, row.N = r.I32(), r.I64()
					case rowAgg:
						row.Query = r.I32()
						row.Val = read(r)
					case rowWeight:
						row.N = r.Varint()
					case rowOrder:
						row.Query, row.Elem, row.N = r.I32(), ElemID(r.I32()), r.Varint()
					default:
						return nil, fmt.Errorf("core: phase-D row %d has unknown kind %d", i, k[0])
					}
				}
			}
			return rows, nil
		})
}

// fixedCodec registers the raw codec of T: app appends a value, dec reads
// one from a block's reader (building its own coordinate arena when the
// value holds points), and the block must be consumed exactly.
func fixedCodec[T any](app func([]byte, T) []byte, dec func(*wire.Reader) (T, error)) {
	wire.Register(wire.Codec[T]{
		Append: app,
		Decode: func(b []byte) (T, error) {
			r := readers.Get().(*wire.Reader)
			*r = wire.NewReader(b)
			v, err := dec(r)
			if err == nil {
				err = r.Finish()
			}
			*r = wire.Reader{} // the pool must not pin the block
			readers.Put(r)
			if err != nil {
				var zero T
				return zero, err
			}
			return v, nil
		},
	})
}

// readers recycles fixedCodec's block readers. A reader handed to dec, a
// func value, escapes to the heap: on the stack of each decode it would
// cost every decoded block one allocation.
var readers = sync.Pool{New: func() any { return new(wire.Reader) }}

func init() {
	// Construction: element-routed points (step 3's h-relation, the
	// single largest exchange of a build).
	fixedCodec(
		func(buf []byte, eps []epoint) []byte {
			buf = wire.AppendUvarint(buf, uint64(len(eps)))
			for _, ep := range eps {
				buf = wire.AppendI32(buf, int32(ep.Elem))
				buf = wire.AppendPoint(buf, ep.Pt)
			}
			return buf
		},
		func(r *wire.Reader) ([]epoint, error) {
			arena := wire.NewArena(r)
			n := r.Count(9)
			var eps []epoint
			if n > 0 {
				eps = make([]epoint, n)
				for i := range eps {
					eps[i].Elem = ElemID(r.I32())
					eps[i].Pt = wire.ReadPoint(r, &arena)
				}
			}
			return eps, nil
		})

	// Construction: the S^j records the sample sort routes (the tree
	// ordinals in one framed section, then the points).
	fixedCodec(appendSrecs, readSrecs)

	// Phase C: element copies and routed subqueries in one block. The row
	// count and the copy rows' count open it, so the decoder carves every
	// copy from one slab; every row opens with its subquery flag, then a
	// subquery or a copy (appendShipped).
	fixedCodec(
		func(buf []byte, rows []routeRow) []byte {
			copies := 0
			for i := range rows {
				if rows[i].Copy != nil {
					copies++
				}
			}
			buf = wire.AppendUvarint(buf, uint64(len(rows)))
			buf = wire.AppendUvarint(buf, uint64(copies))
			for i := range rows {
				sub := rows[i].Copy == nil
				buf = append(buf, flagByte(sub))
				if sub {
					buf = appendSubquery(buf, rows[i].Sub)
				} else {
					buf = appendShipped(buf, *rows[i].Copy)
				}
			}
			return buf
		},
		func(r *wire.Reader) ([]routeRow, error) {
			arena := wire.NewArena(r)
			n := r.Count(6) // tag + flag + element ID, the reference row
			copies := r.Count(6)
			slab := make([]shippedElem, copies)
			var rows []routeRow
			if n > 0 {
				rows = make([]routeRow, n)
				for i := range rows {
					sub, err := readFlag(r)
					if err != nil {
						return nil, err
					}
					if sub {
						rows[i].Sub = readSubquery(r, &arena)
						continue
					}
					if len(slab) == 0 {
						return nil, fmt.Errorf("core: route block of %d rows holds more than its %d copies", n, copies)
					}
					if slab[0], err = readShipped(r); err != nil {
						return nil, err
					}
					rows[i].Copy, slab = &slab[0], slab[1:]
				}
			}
			if len(slab) != 0 {
				return nil, fmt.Errorf("core: route block of %d rows holds fewer than its %d copies", n, copies)
			}
			return rows, nil
		})

	// Phase D's partials, weights and orders, for the value types a batch
	// carries: none (count and report batches) and the standard aggregate
	// values (internal/aggregates), the only value types RegisterAggregate
	// takes.
	resultRowCodec(func(buf []byte, _ struct{}) []byte { return buf }, func(*wire.Reader) struct{} { return struct{}{} })
	resultRowCodec(wire.AppendI64, (*wire.Reader).I64)
	resultRowCodec(wire.AppendF64, (*wire.Reader).F64)

	// The single-query serve-step arguments.
	fixedCodec(
		func(buf []byte, a serveArgs) []byte { return appendSubqueries(buf, a.Subs) },
		func(r *wire.Reader) (serveArgs, error) {
			arena := wire.NewArena(r)
			return serveArgs{Subs: readSubqueries(r, &arena)}, nil
		})

	// Count results: fixed 12-byte records, decoded in one allocation.
	fixedCodec(appendQcounts, func(r *wire.Reader) ([]qcount, error) { return readQcounts(r), nil })

	// Aggregate results for the two aggregate value types.
	fixedCodec(
		func(buf []byte, vs []qvalT[int64]) []byte {
			buf = wire.AppendUvarint(buf, uint64(len(vs)))
			for _, v := range vs {
				buf = wire.AppendI32(buf, v.Query)
				buf = wire.AppendI64(buf, v.Val)
			}
			return buf
		},
		func(r *wire.Reader) ([]qvalT[int64], error) {
			n := r.Count(12)
			var vs []qvalT[int64]
			if n > 0 {
				vs = make([]qvalT[int64], n)
				for i := range vs {
					vs[i].Query = r.I32()
					vs[i].Val = r.I64()
				}
			}
			return vs, nil
		})
	fixedCodec(
		func(buf []byte, vs []qvalT[float64]) []byte {
			buf = wire.AppendUvarint(buf, uint64(len(vs)))
			for _, v := range vs {
				buf = wire.AppendI32(buf, v.Query)
				buf = wire.AppendF64(buf, v.Val)
			}
			return buf
		},
		func(r *wire.Reader) ([]qvalT[float64], error) {
			n := r.Count(12)
			var vs []qvalT[float64]
			if n > 0 {
				vs = make([]qvalT[float64], n)
				for i := range vs {
					vs[i].Query = r.I32()
					vs[i].Val = r.F64()
				}
			}
			return vs, nil
		})

	// Report results: the redistributed (query, point) pairs of phase D.
	// A pair is 4B query · 4B ID · uvarint dims · 4B per coordinate: 9 +
	// 4·dims bytes below 128 dims, where the encoder's one reservation
	// (the pairs of a block share their tree's dims) is exact. The
	// decoder's arena holds at most (bytes − 9 per pair)/4 coordinates,
	// again exactly the block's below 128 dims.
	fixedCodec(
		func(buf []byte, ps []ReportPair) []byte {
			if len(ps) > 0 {
				buf = slices.Grow(buf, uvarintLen(uint64(len(ps)))+len(ps)*(9+4*len(ps[0].Pt.X)))
			}
			buf = wire.AppendUvarint(buf, uint64(len(ps)))
			for _, rp := range ps {
				buf = wire.AppendI32(buf, rp.Query)
				buf = wire.AppendPoint(buf, rp.Pt)
			}
			return buf
		},
		func(r *wire.Reader) ([]ReportPair, error) {
			n := r.Count(9)
			var ps []ReportPair
			if n > 0 {
				arena := make([]geom.Coord, 0, (r.Remaining()-9*n)/4)
				ps = make([]ReportPair, n)
				for i := range ps {
					ps[i].Query = r.I32()
					ps[i].Pt = wire.ReadPoint(r, &arena)
				}
			}
			return ps, nil
		})
}
