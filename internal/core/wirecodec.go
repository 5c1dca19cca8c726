package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/geom"
	"repro/internal/segtree"
	"repro/internal/wire"
)

// Raw wire codecs for the superstep payload types that dominate the
// machine's traffic (ROADMAP item 3): construction's routed points and
// S^(j+1) records, phase B's element copies, phase C's query boxes, and
// the per-mode result blocks. Registration happens here, in core's init,
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

func init() {
	// Construction: element-routed points (step 3's h-relation, the
	// single largest exchange of a build).
	wire.Register(wire.Codec[[]epoint]{
		Append: func(buf []byte, eps []epoint) []byte {
			buf = wire.AppendUvarint(buf, uint64(len(eps)))
			for _, ep := range eps {
				buf = wire.AppendI32(buf, int32(ep.Elem))
				buf = wire.AppendPoint(buf, ep.Pt)
			}
			return buf
		},
		Decode: func(b []byte) ([]epoint, error) {
			r := wire.NewReader(b)
			arena := wire.NewArena(&r)
			n := r.Count(9)
			var eps []epoint
			if n > 0 {
				eps = make([]epoint, n)
				for i := range eps {
					eps[i].Elem = ElemID(r.I32())
					eps[i].Pt = wire.ReadPoint(&r, &arena)
				}
			}
			if err := r.Finish(); err != nil {
				return nil, err
			}
			return eps, nil
		},
	})

	// Construction: the S^j records the sample sort routes (points
	// first, then all tree labels in one framed key section).
	wire.Register(wire.Codec[[]srec]{
		Append: appendSrecs,
		Decode: func(b []byte) ([]srec, error) {
			r := wire.NewReader(b)
			recs, err := readSrecs(&r)
			if err != nil {
				return nil, err
			}
			if err := r.Finish(); err != nil {
				return nil, err
			}
			return recs, nil
		},
	})

	// Phase B: element copies in flight. Every row opens with the Ref
	// flag: a by-value row follows with metadata + point payload, a
	// reference with the element ID alone.
	wire.Register(wire.Codec[[]shippedElem]{
		Append: func(buf []byte, els []shippedElem) []byte {
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
		Decode: func(b []byte) ([]shippedElem, error) {
			r := wire.NewReader(b)
			arena := wire.NewArena(&r)
			n := r.Count(5) // flag + element ID, the reference row
			var els []shippedElem
			if n > 0 {
				els = make([]shippedElem, n)
				for i := range els {
					ref, err := readFlag(&r)
					if err != nil {
						return nil, err
					}
					if els[i].Ref = ref; ref {
						els[i].Info.ID = ElemID(r.I32())
						continue
					}
					els[i].Info = readElemInfo(&r)
					els[i].Pts = wire.ReadPoints(&r, &arena)
				}
			}
			if err := r.Finish(); err != nil {
				return nil, err
			}
			return els, nil
		},
	})

	// Phase C: routed subqueries (the query boxes), both as exchange
	// rows and wrapped in the resident serve-step arguments.
	wire.Register(wire.Codec[[]subquery]{
		Append: appendSubqueries,
		Decode: func(b []byte) ([]subquery, error) {
			r := wire.NewReader(b)
			arena := wire.NewArena(&r)
			subs := readSubqueries(&r, &arena)
			if err := r.Finish(); err != nil {
				return nil, err
			}
			return subs, nil
		},
	})
	wire.Register(wire.Codec[serveArgs]{
		Append: func(buf []byte, a serveArgs) []byte { return appendSubqueries(buf, a.Subs) },
		Decode: func(b []byte) (serveArgs, error) {
			r := wire.NewReader(b)
			arena := wire.NewArena(&r)
			subs := readSubqueries(&r, &arena)
			if err := r.Finish(); err != nil {
				return serveArgs{}, err
			}
			return serveArgs{Subs: subs}, nil
		},
	})
	wire.Register(wire.Codec[serveAggArgs]{
		Append: func(buf []byte, a serveAggArgs) []byte {
			buf = wire.AppendString(buf, a.Name)
			return appendSubqueries(buf, a.Subs)
		},
		Decode: func(b []byte) (serveAggArgs, error) {
			r := wire.NewReader(b)
			name := r.Str()
			arena := wire.NewArena(&r)
			subs := readSubqueries(&r, &arena)
			if err := r.Finish(); err != nil {
				return serveAggArgs{}, err
			}
			return serveAggArgs{Name: name, Subs: subs}, nil
		},
	})

	// Count results: fixed 12-byte records, decoded in one allocation.
	wire.Register(wire.Codec[[]qcount]{
		Append: appendQcounts,
		Decode: func(b []byte) ([]qcount, error) {
			r := wire.NewReader(b)
			vs := readQcounts(&r)
			if err := r.Finish(); err != nil {
				return nil, err
			}
			return vs, nil
		},
	})

	// Aggregate results for the standard value types (internal/
	// aggregates): custom value types fall back to gob by design.
	wire.Register(wire.Codec[[]qvalT[int64]]{
		Append: func(buf []byte, vs []qvalT[int64]) []byte {
			buf = wire.AppendUvarint(buf, uint64(len(vs)))
			for _, v := range vs {
				buf = wire.AppendI32(buf, v.Query)
				buf = wire.AppendI64(buf, v.Val)
			}
			return buf
		},
		Decode: func(b []byte) ([]qvalT[int64], error) {
			r := wire.NewReader(b)
			n := r.Count(12)
			var vs []qvalT[int64]
			if n > 0 {
				vs = make([]qvalT[int64], n)
				for i := range vs {
					vs[i].Query = r.I32()
					vs[i].Val = r.I64()
				}
			}
			if err := r.Finish(); err != nil {
				return nil, err
			}
			return vs, nil
		},
	})
	wire.Register(wire.Codec[[]qvalT[float64]]{
		Append: func(buf []byte, vs []qvalT[float64]) []byte {
			buf = wire.AppendUvarint(buf, uint64(len(vs)))
			for _, v := range vs {
				buf = wire.AppendI32(buf, v.Query)
				buf = wire.AppendF64(buf, v.Val)
			}
			return buf
		},
		Decode: func(b []byte) ([]qvalT[float64], error) {
			r := wire.NewReader(b)
			n := r.Count(12)
			var vs []qvalT[float64]
			if n > 0 {
				vs = make([]qvalT[float64], n)
				for i := range vs {
					vs[i].Query = r.I32()
					vs[i].Val = r.F64()
				}
			}
			if err := r.Finish(); err != nil {
				return nil, err
			}
			return vs, nil
		},
	})

	// Report results: served subquery hits and the redistributed
	// (query, point) pairs of phase D.
	wire.Register(wire.Codec[[]rlocal]{
		Append: appendRlocals,
		Decode: func(b []byte) ([]rlocal, error) {
			r := wire.NewReader(b)
			ls := readRlocals(&r)
			if err := r.Finish(); err != nil {
				return nil, err
			}
			return ls, nil
		},
	})
	wire.Register(wire.Codec[[]ReportPair]{
		Append: func(buf []byte, ps []ReportPair) []byte {
			buf = wire.AppendUvarint(buf, uint64(len(ps)))
			for _, rp := range ps {
				buf = wire.AppendI32(buf, rp.Query)
				buf = wire.AppendPoint(buf, rp.Pt)
			}
			return buf
		},
		Decode: func(b []byte) ([]ReportPair, error) {
			r := wire.NewReader(b)
			arena := wire.NewArena(&r)
			n := r.Count(9)
			var ps []ReportPair
			if n > 0 {
				ps = make([]ReportPair, n)
				for i := range ps {
					ps[i].Query = r.I32()
					ps[i].Pt = wire.ReadPoint(&r, &arena)
				}
			}
			if err := r.Finish(); err != nil {
				return nil, err
			}
			return ps, nil
		},
	})
}
