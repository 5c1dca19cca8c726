package core

import (
	"fmt"
	"slices"

	"repro/internal/segtree"
	"repro/internal/wire"
)

// Raw wire codecs for the remaining step/collect payloads: the resident
// control arguments, the held-construct frames of the worker-fed build,
// and the fused route-and-serve replies. With these registered, a
// cluster serving queries or bulk-ingesting points sends ZERO gob frames
// — every byte on the coordinator's connections is raw-coded control or
// payload (TestClusterIngestAndServeWithoutGob holds that line). Only custom
// aggregate value types still ride the gob fallback, by design.
//
// Same layout discipline and registration (fixedCodec) as wirecodec.go:
// counts/lengths are uvarints, IDs/coordinates/values fixed-width
// little-endian, srec blocks reuse appendSrecs/readSrecs so the one-arena
// decode path is shared.

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

func appendRlocals(buf []byte, ls []rlocal) []byte {
	buf = wire.AppendUvarint(buf, uint64(len(ls)))
	for _, l := range ls {
		buf = wire.AppendI32(buf, l.Query)
		buf = wire.AppendVarint(buf, int64(l.Off))
		buf = wire.AppendPoints(buf, l.Pts)
	}
	return buf
}

func readRlocals(r *wire.Reader) []rlocal {
	arena := wire.NewArena(r)
	n := r.Count(6)
	if n == 0 {
		return nil
	}
	ls := make([]rlocal, n)
	for i := range ls {
		ls[i].Query = r.I32()
		ls[i].Off = int(r.Varint())
		ls[i].Pts = wire.ReadPoints(r, &arena)
	}
	return ls
}

func appendRunSums(buf []byte, rs []runSum) []byte {
	buf = wire.AppendUvarint(buf, uint64(len(rs)))
	for _, s := range rs {
		buf = wire.AppendString(buf, string(s.Key))
		buf = wire.AppendVarint(buf, int64(s.Count))
	}
	return buf
}

func readRunSums(r *wire.Reader) []runSum {
	n := r.Count(2)
	if n == 0 {
		return nil
	}
	rs := make([]runSum, n)
	for i := range rs {
		rs[i].Key = segtree.PathKey(r.Str())
		rs[i].Count = int(r.Varint())
	}
	return rs
}

func appendTreeSums(buf []byte, ts []treeSum) []byte {
	buf = wire.AppendUvarint(buf, uint64(len(ts)))
	for _, t := range ts {
		buf = wire.AppendString(buf, string(t.Key))
		buf = wire.AppendVarint(buf, int64(t.M))
		buf = wire.AppendVarint(buf, int64(t.Start))
		buf = wire.AppendI32(buf, int32(t.Elem0))
	}
	return buf
}

func readTreeSums(r *wire.Reader) []treeSum {
	n := r.Count(8)
	if n == 0 {
		return nil
	}
	ts := make([]treeSum, n)
	for i := range ts {
		ts[i].Key = segtree.PathKey(r.Str())
		ts[i].M = int(r.Varint())
		ts[i].Start = int(r.Varint())
		ts[i].Elem0 = ElemID(r.I32())
	}
	return ts
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

	// Per-rank key runs of the balanced S^j (the "runs" all-gather both
	// construct paths share).
	fixedCodec(appendRunSums, func(r *wire.Reader) ([]runSum, error) { return readRunSums(r), nil })

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
		func(buf []byte, a beginArgs) []byte { return append(buf, byte(a.Backend)) },
		func(r *wire.Reader) (beginArgs, error) {
			var a beginArgs
			if d := r.Bytes(1); d != nil {
				a.Backend = Backend(d[0])
			}
			return a, nil
		})
	fixedCodec(
		func(buf []byte, a constructInstallArgs) []byte {
			buf = append(buf, byte(a.Backend))
			buf = wire.AppendUvarint(buf, uint64(len(a.Infos)))
			for _, info := range a.Infos {
				buf = appendElemInfo(buf, info)
			}
			return buf
		},
		func(r *wire.Reader) (constructInstallArgs, error) {
			var a constructInstallArgs
			if d := r.Bytes(1); d != nil {
				a.Backend = Backend(d[0])
			}
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
		func(buf []byte, a nextArgs) []byte { return append(buf, byte(a.Dim)) },
		func(r *wire.Reader) (nextArgs, error) {
			var a nextArgs
			if d := r.Bytes(1); d != nil {
				a.Dim = int8(d[0])
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
			return balanceReply{Len: int(r.Varint()), Runs: readRunSums(r)}, nil
		})
	fixedCodec(
		func(buf []byte, a routeHeldArgs) []byte {
			buf = appendTreeSums(buf, a.Trees)
			buf = wire.AppendVarint(buf, int64(a.Grain))
			return wire.AppendVarint(buf, int64(a.Offset))
		},
		func(r *wire.Reader) (routeHeldArgs, error) {
			return routeHeldArgs{Trees: readTreeSums(r), Grain: int(r.Varint()), Offset: int(r.Varint())}, nil
		})

	// ---------------------------------------------- streaming ingest

	fixedCodec(
		func(buf []byte, a ingestChunkArgs) []byte { return wire.AppendPoints(buf, a.Pts) },
		func(r *wire.Reader) (ingestChunkArgs, error) {
			arena := wire.NewArena(r)
			return ingestChunkArgs{Pts: wire.ReadPoints(r, &arena)}, nil
		})
	fixedCodec(
		func(buf []byte, a ingestFileArgs) []byte {
			buf = wire.AppendString(buf, a.Path)
			buf = wire.AppendVarint(buf, int64(a.Lo))
			return wire.AppendVarint(buf, int64(a.Hi))
		},
		func(r *wire.Reader) (ingestFileArgs, error) {
			return ingestFileArgs{Path: r.Str(), Lo: int(r.Varint()), Hi: int(r.Varint())}, nil
		})
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

	// ---------------------------------------------- phase-B copy machinery

	fixedCodec(
		func(buf []byte, a shipArgs) []byte {
			buf = wire.AppendUvarint(buf, uint64(len(a.Ships)))
			for _, hs := range a.Ships {
				buf = wire.AppendI32(buf, hs.Host)
				buf = wire.AppendUvarint(buf, uint64(len(hs.Elems)))
				for i, id := range hs.Elems {
					buf = wire.AppendI32(buf, int32(id))
					buf = append(buf, flagByte(hs.Refs[i]))
				}
			}
			return buf
		},
		func(r *wire.Reader) (shipArgs, error) {
			var a shipArgs
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
			return a, nil
		})
	fixedCodec(
		func(buf []byte, n copyNote) []byte {
			buf = wire.AppendVarint(buf, int64(n.CopiedPts))
			return wire.AppendVarint(buf, int64(n.RefPts))
		},
		func(r *wire.Reader) (copyNote, error) {
			return copyNote{CopiedPts: int(r.Varint()), RefPts: int(r.Varint())}, nil
		})
	fixedCodec(
		func(buf []byte, a installCopiesArgs) []byte {
			buf = wire.AppendU64(buf, a.Epoch)
			buf = wire.AppendVarint(buf, int64(a.Cap))
			return wire.AppendString(buf, a.Agg)
		},
		func(r *wire.Reader) (installCopiesArgs, error) {
			return installCopiesArgs{Epoch: r.U64(), Cap: int(r.Varint()), Agg: r.Str()}, nil
		})
	fixedCodec(
		func(buf []byte, rep installCopiesReply) []byte {
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
		},
		func(r *wire.Reader) (installCopiesReply, error) {
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
		})

	// Sparse per-element demand rows of the ElementLevel phase B.
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

	// Whole-element report orders redistributed by SegmentedGather.
	fixedCodec(
		func(buf []byte, os []rorder) []byte {
			buf = wire.AppendUvarint(buf, uint64(len(os)))
			for _, o := range os {
				buf = wire.AppendI32(buf, o.Query)
				buf = wire.AppendI32(buf, int32(o.Elem))
				buf = wire.AppendVarint(buf, int64(o.Off))
			}
			return buf
		},
		func(r *wire.Reader) ([]rorder, error) {
			n := r.Count(9)
			var os []rorder
			if n > 0 {
				os = make([]rorder, n)
				for i := range os {
					os[i].Query = r.I32()
					os[i].Elem = ElemID(r.I32())
					os[i].Off = int(r.Varint())
				}
			}
			return os, nil
		})

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
				buf = wire.AppendVarint(buf, int64(s.Pts))
			}
			return buf
		},
		func(r *wire.Reader) ([]elemStat, error) {
			n := r.Count(6)
			var ss []elemStat
			if n > 0 {
				ss = make([]elemStat, n)
				for i := range ss {
					ss[i].ID = ElemID(r.I32())
					ss[i].Nodes = int(r.Varint())
					ss[i].Pts = int(r.Varint())
				}
			}
			return ss, nil
		})

	// ---------------------------------------------- fused mixed serving

	fixedCodec(
		func(buf []byte, a mixedServeArgs) []byte {
			buf = wire.AppendString(buf, a.Agg)
			buf = wire.AppendUvarint(buf, uint64(len(a.Ops)))
			for _, op := range a.Ops {
				buf = append(buf, byte(op))
			}
			return buf
		},
		func(r *wire.Reader) (mixedServeArgs, error) {
			var a mixedServeArgs
			a.Agg = r.Str()
			n := r.Count(1)
			if n > 0 {
				a.Ops = make([]MixedOp, n)
				for i := range a.Ops {
					if d := r.Bytes(1); d != nil {
						a.Ops[i] = MixedOp(d[0])
					}
				}
			}
			return a, nil
		})
	fixedCodec(
		func(buf []byte, rep mixedServeReply) []byte {
			buf = appendQcounts(buf, rep.Counts)
			buf = wire.AppendBytes(buf, rep.Aggs)
			return appendRlocals(buf, rep.Locals)
		},
		func(r *wire.Reader) (mixedServeReply, error) {
			var rep mixedServeReply
			rep.Counts = readQcounts(r)
			// The section views the received frame, whose buffer is reused;
			// Aggs outlives the decode (the aggregate run decodes it), so copy.
			rep.Aggs = slices.Clone(r.Section())
			rep.Locals = readRlocals(r)
			return rep, nil
		})
}
