package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/segtree"
	"repro/internal/wire"
)

// Raw wire codecs for the remaining step/collect payloads: the resident
// control arguments, the held-construct frames of the worker-fed build,
// and phase C's collect reply. With these registered, every byte a
// cluster serving queries or bulk-ingesting points puts on the
// coordinator's connections is raw-coded control or payload; a payload
// type without a codec could not cross at all.
//
// Same layout discipline and registration (fixedCodec) as wirecodec.go:
// counts/lengths are uvarints, IDs/coordinates/values fixed-width
// little-endian, srec blocks reuse appendSrecs/readSrecs so the one-arena
// decode path is shared, and tree ordinals are uvarints.

// ------------------------------------------------------------ helpers

func appendQcounts(buf []byte, vs []qcount) []byte {
	buf = wire.AppendUvarint(buf, uint64(len(vs)))
	for _, v := range vs {
		buf = wire.AppendI32(buf, v.Query)
		buf = wire.AppendI64(buf, v.Val)
	}
	return buf
}

func readQcounts(r *wire.Reader) []qcount {
	n := r.Count(12)
	if n == 0 {
		return nil
	}
	vs := make([]qcount, n)
	for i := range vs {
		vs[i].Query = r.I32()
		vs[i].Val = r.I64()
	}
	return vs
}

// appendHitBlock encodes a hit block: the run table (count, then each
// run's query and length), then the point block (wire.AppendBlock).
func appendHitBlock(buf []byte, h hitBlock) []byte {
	buf = wire.AppendUvarint(buf, uint64(len(h.Runs)))
	for _, run := range h.Runs {
		buf = wire.AppendI32(buf, run.Query)
		buf = wire.AppendUvarint(buf, uint64(run.N))
	}
	return wire.AppendBlock(buf, h.Block)
}

// hitBlockSize is appendHitBlock's encoded length.
func hitBlockSize(h hitBlock) int {
	n := uvarintLen(uint64(h.Dims)) + uvarintLen(uint64(len(h.Runs)))
	for _, run := range h.Runs {
		n += 4 + uvarintLen(uint64(run.N))
	}
	return n + uvarintLen(uint64(len(h.IDs))) + 4*len(h.IDs) + uvarintLen(uint64(len(h.Coords))) + 4*len(h.Coords)
}

// readHitBlock decodes a hit block into pointer-free slices. A block
// whose runs are empty or do not sum to its IDs, or whose point block is
// malformed (wire.ReadBlock) or has dims without IDs, is corrupt.
func readHitBlock(r *wire.Reader) (hitBlock, error) {
	var h hitBlock
	var total uint64 // ≤ MaxInt32 per run, runs bounded by the block
	if n := r.Count(5); n > 0 {
		h.Runs = make([]hitRun, n)
		for i := range h.Runs {
			q, k := r.I32(), r.Uvarint()
			if k == 0 || k > math.MaxInt32 {
				return h, fmt.Errorf("core: hit block run %d holds %d hits", i, k)
			}
			h.Runs[i] = hitRun{Query: q, N: int32(k)}
			total += k
		}
	}
	var err error
	if h.Block, err = wire.ReadBlock(r); err != nil {
		return h, err
	}
	switch ids := uint64(h.Len()); {
	case total != ids:
		return h, fmt.Errorf("core: hit block runs hold %d hits, block has %d IDs", total, ids)
	case ids == 0 && h.Dims != 0:
		return h, fmt.Errorf("core: hit block without IDs has dims %d", h.Dims)
	}
	return h, nil
}

func appendRunSums(buf []byte, rs []runSum) []byte {
	buf = wire.AppendUvarint(buf, uint64(len(rs)))
	for _, s := range rs {
		buf = wire.AppendUvarint(buf, uint64(s.Ord))
		buf = wire.AppendVarint(buf, int64(s.Count))
	}
	return buf
}

func readRunSums(r *wire.Reader) ([]runSum, error) {
	n := r.Count(2)
	if n == 0 {
		return nil, nil
	}
	rs := make([]runSum, n)
	for i := range rs {
		var err error
		if rs[i].Ord, err = readOrd(r); err != nil {
			return nil, err
		}
		rs[i].Count = int(r.Varint())
	}
	return rs, nil
}

func appendTreeSums(buf []byte, ts []treeSum) []byte {
	buf = wire.AppendUvarint(buf, uint64(len(ts)))
	for _, t := range ts {
		buf = wire.AppendUvarint(buf, uint64(t.Ord))
		buf = wire.AppendString(buf, string(t.Key))
		buf = wire.AppendVarint(buf, int64(t.M))
		buf = wire.AppendVarint(buf, int64(t.Start))
		buf = wire.AppendI32(buf, int32(t.Elem0))
	}
	return buf
}

func readTreeSums(r *wire.Reader) ([]treeSum, error) {
	n := r.Count(8)
	if n == 0 {
		return nil, nil
	}
	ts := make([]treeSum, n)
	for i := range ts {
		var err error
		if ts[i].Ord, err = readOrd(r); err != nil {
			return nil, err
		}
		ts[i].Key = segtree.PathKey(r.Str())
		ts[i].M = int(r.Varint())
		ts[i].Start = int(r.Varint())
		ts[i].Elem0 = ElemID(r.I32())
	}
	return ts, nil
}

// appendInstallReply and readInstallReply code an installCopiesReply.
func appendInstallReply(buf []byte, rep installCopiesReply) []byte {
	buf = wire.AppendVarint(buf, int64(rep.Held))
	buf = wire.AppendVarint(buf, int64(rep.CacheHits))
	buf = wire.AppendVarint(buf, int64(rep.ByRef))
	buf = wire.AppendI64(buf, rep.InstallNanos)
	buf = wire.AppendUvarint(buf, uint64(len(rep.Ops)))
	for _, op := range rep.Ops {
		buf = wire.AppendI32(buf, int32(op.ID))
		buf = append(buf, flagByte(op.Evict))
	}
	return buf
}

// installServeReplySize is the installServeReply codec's encoded length,
// which the encoder reserves in one step.
func installServeReplySize(rep installServeReply) int {
	in, sv := rep.Install, rep.Serve
	return varintLen(rep.Note.CopiedPts) + varintLen(rep.Note.RefPts) +
		varintLen(in.Held) + varintLen(in.CacheHits) + varintLen(in.ByRef) + 8 +
		uvarintLen(uint64(len(in.Ops))) + 5*len(in.Ops) +
		varintLen(sv.Served) + uvarintLen(uint64(len(sv.Counts))) + 12*len(sv.Counts) +
		uvarintLen(uint64(len(sv.Aggs))) + len(sv.Aggs) + hitBlockSize(sv.Hits)
}

// varintLen is the encoded length of v as a zig-zag varint.
func varintLen(v int) int {
	x := int64(v)
	return uvarintLen(uint64(x<<1 ^ x>>63))
}

func readInstallReply(r *wire.Reader) (installCopiesReply, error) {
	rep := installCopiesReply{Held: int(r.Varint()), CacheHits: int(r.Varint()),
		ByRef: int(r.Varint()), InstallNanos: r.I64()}
	n := r.Count(5)
	if n > 0 {
		rep.Ops = make([]cacheOp, n)
		for i := range rep.Ops {
			rep.Ops[i].ID = ElemID(r.I32())
			var err error
			if rep.Ops[i].Evict, err = readFlag(r); err != nil {
				return rep, err
			}
		}
	}
	return rep, nil
}

// readOrd reads one uvarint tree ordinal; a value past uint32 is corrupt.
func readOrd(r *wire.Reader) (uint32, error) {
	v := r.Uvarint()
	if v > math.MaxUint32 {
		return 0, fmt.Errorf("core: corrupt tree ordinal %d", v)
	}
	return uint32(v), nil
}

// flagByte and readFlag code one bool as one byte. Any value but 0 and 1
// is an error: a flag decides between payload layouts, so a corrupt one
// must not pass for either. (A truncated block fails the reader itself.)
func flagByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

func readFlag(r *wire.Reader) (bool, error) {
	d := r.Bytes(1)
	if d != nil && d[0] > 1 {
		return false, fmt.Errorf("core: corrupt flag byte %#x", d[0])
	}
	return d != nil && d[0] == 1, nil
}

func init() {
	// ---------------------------------------------- construct collectives

	// Per-rank tree runs of the balanced S^j (the "runs" all-gather both
	// construct paths share).
	fixedCodec(appendRunSums, readRunSums)

	// Stub metadata of the phase's built elements (route collect reply
	// and the "roots" broadcast).
	fixedCodec(
		func(buf []byte, ms []elemMeta) []byte {
			buf = wire.AppendUvarint(buf, uint64(len(ms)))
			for _, m := range ms {
				buf = wire.AppendI32(buf, int32(m.Elem))
				buf = wire.AppendI32(buf, m.Min)
				buf = wire.AppendI32(buf, m.Max)
			}
			return buf
		},
		func(r *wire.Reader) ([]elemMeta, error) {
			n := r.Count(12)
			var ms []elemMeta
			if n > 0 {
				ms = make([]elemMeta, n)
				for i := range ms {
					ms[i].Elem = ElemID(r.I32())
					ms[i].Min = r.I32()
					ms[i].Max = r.I32()
				}
			}
			return ms, nil
		})

	// ---------------------------------------------- resident control args

	fixedCodec(
		func(buf []byte, a constructInstallArgs) []byte {
			buf = wire.AppendUvarint(buf, uint64(len(a.Infos)))
			for _, info := range a.Infos {
				buf = appendElemInfo(buf, info)
			}
			return buf
		},
		func(r *wire.Reader) (constructInstallArgs, error) {
			var a constructInstallArgs
			n := r.Count(23)
			if n > 0 {
				a.Infos = make([]ElemInfo, n)
				for i := range a.Infos {
					a.Infos[i] = readElemInfo(r)
				}
			}
			return a, nil
		})
	fixedCodec(
		func(buf []byte, a dimArgs) []byte { return append(buf, byte(a.Dim)) },
		func(r *wire.Reader) (dimArgs, error) {
			var a dimArgs
			if d := r.Bytes(1); d != nil {
				a.Dim = int8(d[0])
			}
			return a, nil
		})
	fixedCodec(
		func(buf []byte, a nextHeldArgs) []byte {
			buf = append(buf, byte(a.Dim))
			buf = wire.AppendUvarint(buf, uint64(len(a.Keys)))
			for _, k := range a.Keys {
				buf = wire.AppendString(buf, string(k))
			}
			return buf
		},
		func(r *wire.Reader) (nextHeldArgs, error) {
			var a nextHeldArgs
			if d := r.Bytes(1); d != nil {
				a.Dim = int8(d[0])
			}
			n := r.Count(1)
			if n > 0 {
				a.Keys = make([]segtree.PathKey, n)
				for i := range a.Keys {
					a.Keys[i] = segtree.PathKey(r.Str())
				}
			}
			return a, nil
		})
	fixedCodec(
		func(buf []byte, a seedArgs) []byte { return append(buf, byte(a.Dims)) },
		func(r *wire.Reader) (seedArgs, error) {
			var a seedArgs
			if d := r.Bytes(1); d != nil {
				a.Dims = int8(d[0])
			}
			return a, nil
		})
	fixedCodec(
		func(buf []byte, a aggPrepArgs) []byte { return wire.AppendString(buf, a.Name) },
		func(r *wire.Reader) (aggPrepArgs, error) { return aggPrepArgs{Name: r.Str()}, nil })
	fixedCodec(
		func(buf []byte, a fetchArgs) []byte {
			buf = wire.AppendUvarint(buf, uint64(len(a.Elems)))
			for _, id := range a.Elems {
				buf = wire.AppendI32(buf, int32(id))
			}
			return buf
		},
		func(r *wire.Reader) (fetchArgs, error) {
			var a fetchArgs
			n := r.Count(4)
			if n > 0 {
				a.Elems = make([]ElemID, n)
				for i := range a.Elems {
					a.Elems[i] = ElemID(r.I32())
				}
			}
			return a, nil
		})
	// The fetch's reply: one point block per element.
	fixedCodec(
		func(buf []byte, blks []geom.Block) []byte {
			buf = wire.AppendUvarint(buf, uint64(len(blks)))
			for _, blk := range blks {
				buf = wire.AppendBlock(buf, blk)
			}
			return buf
		},
		func(r *wire.Reader) ([]geom.Block, error) {
			var blks []geom.Block
			if n := r.Count(3); n > 0 { // dims and two empty sections a block
				blks = make([]geom.Block, n)
				for i := range blks {
					var err error
					if blks[i], err = wire.ReadBlock(r); err != nil {
						return nil, err
					}
				}
			}
			return blks, nil
		})

	// ---------------------------------------------- held-construct frames

	fixedCodec(
		func(buf []byte, rep sortLocalReply) []byte {
			buf = appendSrecs(buf, rep.Samples)
			return wire.AppendVarint(buf, int64(rep.Len))
		},
		func(r *wire.Reader) (sortLocalReply, error) {
			var rep sortLocalReply
			var err error
			if rep.Samples, err = readSrecs(r); err != nil {
				return rep, err
			}
			rep.Len = int(r.Varint())
			return rep, nil
		})
	fixedCodec(
		func(buf []byte, a wsortPartArgs) []byte {
			buf = append(buf, byte(a.Dim))
			return appendSrecs(buf, a.Splitters)
		},
		func(r *wire.Reader) (wsortPartArgs, error) {
			var a wsortPartArgs
			if d := r.Bytes(1); d != nil {
				a.Dim = int8(d[0])
			}
			var err error
			a.Splitters, err = readSrecs(r)
			return a, err
		})
	fixedCodec(
		func(buf []byte, rep lenReply) []byte { return wire.AppendVarint(buf, int64(rep.Len)) },
		func(r *wire.Reader) (lenReply, error) { return lenReply{Len: int(r.Varint())}, nil })
	fixedCodec(
		func(buf []byte, a wsortBalanceArgs) []byte {
			buf = wire.AppendVarint(buf, int64(a.Offset))
			return wire.AppendVarint(buf, int64(a.Total))
		},
		func(r *wire.Reader) (wsortBalanceArgs, error) {
			return wsortBalanceArgs{Offset: int(r.Varint()), Total: int(r.Varint())}, nil
		})
	fixedCodec(
		func(buf []byte, rep balanceReply) []byte {
			buf = wire.AppendVarint(buf, int64(rep.Len))
			return appendRunSums(buf, rep.Runs)
		},
		func(r *wire.Reader) (balanceReply, error) {
			rep := balanceReply{Len: int(r.Varint())}
			var err error
			rep.Runs, err = readRunSums(r)
			return rep, err
		})
	fixedCodec(
		func(buf []byte, a routeHeldArgs) []byte {
			buf = appendTreeSums(buf, a.Trees)
			buf = wire.AppendVarint(buf, int64(a.Grain))
			return wire.AppendVarint(buf, int64(a.Offset))
		},
		func(r *wire.Reader) (routeHeldArgs, error) {
			trees, err := readTreeSums(r)
			return routeHeldArgs{Trees: trees, Grain: int(r.Varint()), Offset: int(r.Varint())}, err
		})

	// ---------------------------------------------- streaming ingest

	fixedCodec(
		func(buf []byte, a ingestChunkArgs) []byte { return wire.AppendPoints(buf, a.Pts) },
		func(r *wire.Reader) (ingestChunkArgs, error) {
			arena := wire.NewArena(r)
			return ingestChunkArgs{Pts: wire.ReadPoints(r, &arena)}, nil
		})
	fixedCodec(
		func(buf []byte, a ingestFileArgs) []byte { return wire.AppendString(buf, a.Path) },
		func(r *wire.Reader) (ingestFileArgs, error) { return ingestFileArgs{Path: r.Str()}, nil })
	fixedCodec(
		func(buf []byte, rep ingestReply) []byte {
			buf = wire.AppendVarint(buf, int64(rep.N))
			return append(buf, byte(rep.Dims))
		},
		func(r *wire.Reader) (ingestReply, error) {
			var rep ingestReply
			rep.N = int(r.Varint())
			if d := r.Bytes(1); d != nil {
				rep.Dims = int8(d[0])
			}
			return rep, nil
		})

	// ---------------------------------------------- phase C's superstep

	fixedCodec(
		func(buf []byte, a shipRouteArgs) []byte {
			buf = wire.AppendUvarint(buf, uint64(len(a.Ships)))
			for _, hs := range a.Ships {
				buf = wire.AppendI32(buf, hs.Host)
				buf = wire.AppendUvarint(buf, uint64(len(hs.Elems)))
				for i, id := range hs.Elems {
					buf = wire.AppendI32(buf, int32(id))
					buf = append(buf, flagByte(hs.Refs[i]))
				}
			}
			buf = wire.AppendUvarint(buf, uint64(len(a.Routed)))
			for _, subs := range a.Routed {
				buf = appendSubqueries(buf, subs)
			}
			return buf
		},
		func(r *wire.Reader) (shipRouteArgs, error) {
			var a shipRouteArgs
			n := r.Count(5)
			if n > 0 {
				a.Ships = make([]hostShip, n)
				for i := range a.Ships {
					hs := &a.Ships[i]
					hs.Host = r.I32()
					en := r.Count(5)
					if en > 0 {
						hs.Elems = make([]ElemID, en)
						hs.Refs = make([]bool, en)
						for j := range hs.Elems {
							hs.Elems[j] = ElemID(r.I32())
							var err error
							if hs.Refs[j], err = readFlag(r); err != nil {
								return a, err
							}
						}
					}
				}
			}
			arena := wire.NewArena(r)
			if n := r.Count(1); n > 0 {
				a.Routed = make([][]subquery, n)
				for i := range a.Routed {
					a.Routed[i] = readSubqueries(r, &arena)
				}
			}
			return a, nil
		})
	fixedCodec(
		func(buf []byte, a installServeArgs) []byte {
			buf = wire.AppendU64(buf, a.Epoch)
			buf = wire.AppendVarint(buf, int64(a.Cap))
			buf = wire.AppendString(buf, a.Agg)
			buf = wire.AppendUvarint(buf, uint64(len(a.Ops)))
			for _, op := range a.Ops {
				buf = append(buf, byte(op))
			}
			return buf
		},
		func(r *wire.Reader) (installServeArgs, error) {
			a := installServeArgs{Epoch: r.U64(), Cap: int(r.Varint()), Agg: r.Str()}
			if ops := r.Bytes(r.Count(1)); len(ops) > 0 {
				a.Ops = make([]MixedOp, len(ops))
				for i, op := range ops {
					a.Ops[i] = MixedOp(op)
				}
			}
			return a, nil
		})
	fixedCodec(
		func(buf []byte, rep installServeReply) []byte {
			buf = slices.Grow(buf, installServeReplySize(rep))
			buf = wire.AppendVarint(buf, int64(rep.Note.CopiedPts))
			buf = wire.AppendVarint(buf, int64(rep.Note.RefPts))
			buf = appendInstallReply(buf, rep.Install)
			buf = wire.AppendVarint(buf, int64(rep.Serve.Served))
			buf = appendQcounts(buf, rep.Serve.Counts)
			buf = wire.AppendBytes(buf, rep.Serve.Aggs)
			return appendHitBlock(buf, rep.Serve.Hits)
		},
		func(r *wire.Reader) (installServeReply, error) {
			var rep installServeReply
			rep.Note = copyNote{CopiedPts: int(r.Varint()), RefPts: int(r.Varint())}
			var err error
			if rep.Install, err = readInstallReply(r); err != nil {
				return rep, err
			}
			rep.Serve.Served = int(r.Varint())
			rep.Serve.Counts = readQcounts(r)
			// The section views the received frame, whose buffer is reused;
			// Aggs outlives the decode (the aggregate run decodes it), so copy.
			if aggs := r.Section(); len(aggs) > 0 {
				rep.Serve.Aggs = slices.Clone(aggs)
			}
			rep.Serve.Hits, err = readHitBlock(r)
			return rep, err
		})

	// Phase B's sparse per-element demand rows and advertised IDs.
	fixedCodec(
		func(buf []byte, ds []elemDemand) []byte {
			buf = wire.AppendUvarint(buf, uint64(len(ds)))
			for _, d := range ds {
				buf = wire.AppendI32(buf, int32(d.Elem))
				buf = wire.AppendI32(buf, d.Count)
			}
			return buf
		},
		func(r *wire.Reader) ([]elemDemand, error) {
			n := r.Count(8)
			var ds []elemDemand
			if n > 0 {
				ds = make([]elemDemand, n)
				for i := range ds {
					ds[i].Elem = ElemID(r.I32())
					ds[i].Count = r.I32()
				}
			}
			return ds, nil
		})

	// ---------------------------------------------- serving and results

	// Forest-root aggregates of the standard value types.
	fixedCodec(
		func(buf []byte, rs []aggRoot[int64]) []byte {
			buf = wire.AppendUvarint(buf, uint64(len(rs)))
			for _, a := range rs {
				buf = wire.AppendI32(buf, int32(a.Elem))
				buf = wire.AppendI64(buf, a.Val)
			}
			return buf
		},
		func(r *wire.Reader) ([]aggRoot[int64], error) {
			n := r.Count(12)
			var rs []aggRoot[int64]
			if n > 0 {
				rs = make([]aggRoot[int64], n)
				for i := range rs {
					rs[i].Elem = ElemID(r.I32())
					rs[i].Val = r.I64()
				}
			}
			return rs, nil
		})
	fixedCodec(
		func(buf []byte, rs []aggRoot[float64]) []byte {
			buf = wire.AppendUvarint(buf, uint64(len(rs)))
			for _, a := range rs {
				buf = wire.AppendI32(buf, int32(a.Elem))
				buf = wire.AppendF64(buf, a.Val)
			}
			return buf
		},
		func(r *wire.Reader) ([]aggRoot[float64], error) {
			n := r.Count(12)
			var rs []aggRoot[float64]
			if n > 0 {
				rs = make([]aggRoot[float64], n)
				for i := range rs {
					rs[i].Elem = ElemID(r.I32())
					rs[i].Val = r.F64()
				}
			}
			return rs, nil
		})

	// Space accounting rows.
	fixedCodec(
		func(buf []byte, ss []elemStat) []byte {
			buf = wire.AppendUvarint(buf, uint64(len(ss)))
			for _, s := range ss {
				buf = wire.AppendI32(buf, int32(s.ID))
				buf = wire.AppendVarint(buf, int64(s.Nodes))
			}
			return buf
		},
		func(r *wire.Reader) ([]elemStat, error) {
			n := r.Count(5)
			var ss []elemStat
			if n > 0 {
				ss = make([]elemStat, n)
				for i := range ss {
					ss[i].ID = ElemID(r.I32())
					ss[i].Nodes = int(r.Varint())
				}
			}
			return ss, nil
		})
}
