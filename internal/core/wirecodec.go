package core

import (
	"encoding/binary"
	"fmt"
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
// construction; anything else — custom aggregate value types above all —
// rides wire's gob fallback untouched.
//
// Layouts follow the package wire discipline: counts and string lengths
// are uvarints, IDs/coordinates/values are fixed-width little-endian.
// Decoders share one coordinate arena per block (points become views
// into it) and decode all PathKeys of a block out of one string
// allocation, so decoding a block costs a handful of allocations
// regardless of its element count.

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

// keyArena decodes all PathKeys of a block out of one backing string:
// the encoder framed them into a single section, the decoder converts
// that section to a string once, and every key is a substring view.
type keyArena struct {
	sec []byte // the framed section (views the block)
	s   string // the one-allocation copy the keys substring
	off int
	ok  bool
}

func readKeyArena(r *wire.Reader) keyArena {
	sec := r.Section()
	return keyArena{sec: sec, s: string(sec), ok: sec != nil || r.Remaining() >= 0}
}

// next returns the next key of the section.
func (ka *keyArena) next() segtree.PathKey {
	if !ka.ok {
		return ""
	}
	l, n := binary.Uvarint(ka.sec[ka.off:])
	if n <= 0 || uint64(len(ka.sec)-ka.off-n) < l {
		ka.ok = false
		return ""
	}
	start := ka.off + n
	ka.off = start + int(l)
	return segtree.PathKey(ka.s[start:ka.off])
}

// finish reports whether the section was consumed exactly.
func (ka *keyArena) finish() error {
	if !ka.ok || ka.off != len(ka.sec) {
		return fmt.Errorf("core: corrupt path-key section")
	}
	return nil
}

// ------------------------------------------------------------ S^j records

// appendSrecs encodes a record block: points first, then all tree labels
// in one framed key section. Shared by the []srec exchange codec and the
// held-construct argument/reply codecs (wirecodec2.go).
func appendSrecs(buf []byte, recs []srec) []byte {
	buf = wire.AppendUvarint(buf, uint64(len(recs)))
	for _, rec := range recs {
		buf = wire.AppendPoint(buf, rec.Pt)
	}
	keys := wire.GetBuf()
	for _, rec := range recs {
		keys = wire.AppendString(keys, string(rec.Key))
	}
	buf = wire.AppendBytes(buf, keys)
	wire.PutBuf(keys)
	return buf
}

// readSrecs decodes one appendSrecs block in place in the reader.
func readSrecs(r *wire.Reader) ([]srec, error) {
	arena := wire.NewArena(r)
	n := r.Count(6) // ≥5B point + its 1B key frame
	var recs []srec
	if n > 0 {
		recs = make([]srec, n)
		for i := range recs {
			recs[i].Pt = wire.ReadPoint(r, &arena)
		}
		ka := readKeyArena(r)
		for i := range recs {
			recs[i].Key = ka.next()
		}
		if err := ka.finish(); err != nil {
			return nil, err
		}
	} else {
		if ka := readKeyArena(r); ka.finish() != nil {
			return nil, fmt.Errorf("core: corrupt path-key section")
		}
	}
	return recs, nil
}

// ------------------------------------------------------------ subqueries

func appendSubqueries(b []byte, subs []subquery) []byte {
	b = wire.AppendUvarint(b, uint64(len(subs)))
	for _, s := range subs {
		b = wire.AppendI32(b, s.Query)
		b = wire.AppendI32(b, int32(s.Elem))
		b = wire.AppendBox(b, s.Box)
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
		subs[i].Query = r.I32()
		subs[i].Elem = ElemID(r.I32())
		subs[i].Box = wire.ReadBox(r, arena)
	}
	return subs
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

	// Construction: the S^j records the sample sort routes (points
	// first, then all tree labels in one framed key section).
	fixedCodec(appendSrecs, readSrecs)

	// Phase B: element copies in flight. Every row opens with the Ref
	// flag: a by-value row follows with metadata + point payload, a
	// reference with the element ID alone.
	fixedCodec(
		func(buf []byte, els []shippedElem) []byte {
			buf = wire.AppendUvarint(buf, uint64(len(els)))
			for _, sh := range els {
				buf = append(buf, flagByte(sh.Ref))
				if sh.Ref {
					buf = wire.AppendI32(buf, int32(sh.Info.ID))
					continue
				}
				buf = appendElemInfo(buf, sh.Info)
				buf = wire.AppendPoints(buf, sh.Pts)
			}
			return buf
		},
		func(r *wire.Reader) ([]shippedElem, error) {
			arena := wire.NewArena(r)
			n := r.Count(5) // flag + element ID, the reference row
			var els []shippedElem
			if n > 0 {
				els = make([]shippedElem, n)
				for i := range els {
					ref, err := readFlag(r)
					if err != nil {
						return nil, err
					}
					if els[i].Ref = ref; ref {
						els[i].Info.ID = ElemID(r.I32())
						continue
					}
					els[i].Info = readElemInfo(r)
					els[i].Pts = wire.ReadPoints(r, &arena)
				}
			}
			return els, nil
		})

	// Phase C: routed subqueries (the query boxes), both as exchange
	// rows and wrapped in the single-query serve-step arguments.
	fixedCodec(appendSubqueries, func(r *wire.Reader) ([]subquery, error) {
		arena := wire.NewArena(r)
		return readSubqueries(r, &arena), nil
	})
	fixedCodec(
		func(buf []byte, a serveArgs) []byte { return appendSubqueries(buf, a.Subs) },
		func(r *wire.Reader) (serveArgs, error) {
			arena := wire.NewArena(r)
			return serveArgs{Subs: readSubqueries(r, &arena)}, nil
		})
	fixedCodec(
		func(buf []byte, a serveAggArgs) []byte {
			buf = wire.AppendString(buf, a.Name)
			return appendSubqueries(buf, a.Subs)
		},
		func(r *wire.Reader) (serveAggArgs, error) {
			name := r.Str()
			arena := wire.NewArena(r)
			return serveAggArgs{Name: name, Subs: readSubqueries(r, &arena)}, nil
		})

	// Count results: fixed 12-byte records, decoded in one allocation.
	fixedCodec(appendQcounts, func(r *wire.Reader) ([]qcount, error) { return readQcounts(r), nil })

	// Aggregate results for the standard value types (internal/
	// aggregates): custom value types fall back to gob by design.
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

	// Report results: served subquery hits and the redistributed
	// (query, point) pairs of phase D.
	fixedCodec(appendRlocals, func(r *wire.Reader) ([]rlocal, error) { return readRlocals(r), nil })
	fixedCodec(
		func(buf []byte, ps []ReportPair) []byte {
			buf = wire.AppendUvarint(buf, uint64(len(ps)))
			for _, rp := range ps {
				buf = wire.AppendI32(buf, rp.Query)
				buf = wire.AppendPoint(buf, rp.Pt)
			}
			return buf
		},
		func(r *wire.Reader) ([]ReportPair, error) {
			arena := wire.NewArena(r)
			n := r.Count(9)
			var ps []ReportPair
			if n > 0 {
				ps = make([]ReportPair, n)
				for i := range ps {
					ps[i].Query = r.I32()
					ps[i].Pt = wire.ReadPoint(r, &arena)
				}
			}
			return ps, nil
		})
}
