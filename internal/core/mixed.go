package core

import (
	"fmt"

	"repro/internal/cgm"
	"repro/internal/exec"
	"repro/internal/geom"
	"repro/internal/semigroup"
)

// MixedOp selects the result mode of one query in a mixed batch.
type MixedOp int8

const (
	// OpCount answers with |R(q)|.
	OpCount MixedOp = iota
	// OpAggregate answers with ⊗_{l∈R(q)} f(l) of a prepared AggHandle.
	OpAggregate
	// OpReport answers with the points of R(q).
	OpReport
)

// String names the op (CLI and diagnostics).
func (op MixedOp) String() string {
	switch op {
	case OpCount:
		return "count"
	case OpAggregate:
		return "aggregate"
	case OpReport:
		return "report"
	}
	return fmt.Sprintf("MixedOp(%d)", int8(op))
}

// kinds is the set of result kinds one batch holds, one bit per MixedOp.
type kinds uint8

func (k kinds) has(op MixedOp) bool { return k&(1<<op) != 0 }

// MixedResult holds the answer of one mixed-batch query; only the field
// selected by the query's op is meaningful.
type MixedResult[T any] struct {
	Count int64
	Agg   T
	// Pts is a report's answer in ascending point ID, in a slice of its
	// own (nil when the box holds no point). Each point's X is a read-only
	// view into the element block that answered it: write none of them.
	Pts []geom.Point
}

// mixedRun is one rank's run of a batch: one kind run per result kind the
// batch holds (nil for the others), each hook dispatching on the query's
// op, so one hat descent, one demand-balanced copy/route and one serving
// sweep answer the whole batch.
type mixedRun[T any] struct {
	t       *Tree
	ops     []MixedOp
	results []MixedResult[T]
	count   *countRun
	agg     *assocRun[T]
	rep     *reportRun
}

// start builds the rank's run in arena a, with a kind run for each kind
// the batch holds.
func (fr *mixedFrame[T]) start(a *cgm.Arena, ps *procState, st *SearchStats) *mixedRun[T] {
	r := cgm.AllocOne(a, mixedRun[T]{t: fr.t, ops: fr.ops, results: fr.results})
	if fr.holds.has(OpCount) {
		r.count = cgm.AllocOne(a, countRun{a: a, ps: ps})
	}
	if fr.holds.has(OpAggregate) {
		r.agg = cgm.AllocOne(a, assocRun[T]{a: a, h: fr.h, pa: fr.h.parts[ps.rank], ps: ps})
	}
	if fr.holds.has(OpReport) {
		r.rep = cgm.AllocOne(a, reportRun{a: a, ps: ps, st: st,
			mine: &fr.rep.perProc[ps.rank], rv: reportVisitor{a: a}})
	}
	return r
}

// answerer is the per-query half of a kind run: what the mixed run
// dispatches by op.
type answerer interface {
	answerHat(q Query, s hatSel)
	answerSub(s subquery)
}

// dispatch returns the kind run of query qid (MixedBatch admitted only the
// three ops, and started a run for each op the batch holds).
func (r *mixedRun[T]) dispatch(qid int32) answerer {
	switch r.ops[qid] {
	case OpCount:
		return r.count
	case OpAggregate:
		return r.agg
	default:
		return r.rep
	}
}

func (r *mixedRun[T]) answerHat(q Query, s hatSel) { r.dispatch(q.ID).answerHat(q, s) }
func (r *mixedRun[T]) answerSub(s subquery)        { r.dispatch(s.Query).answerSub(s) }

// copyAgg is the batch's aggregate when it holds aggregate queries; that
// is a batch-global property, so the branch is SPMD-uniform.
func (r *mixedRun[T]) copyAgg() (string, aggPart) {
	if r.agg == nil {
		return "", nil
	}
	if r.agg.pa == nil {
		return r.agg.h.name, nil
	}
	return r.agg.h.name, r.agg.pa
}

// shipRoute is phase C, one superstep on both residencies
// (exchangeOnPart): the rank's part emits its planned copies and its
// routed subqueries, and each host's part installs the copies of its
// column, then answers the column's subqueries. A fabric part answers
// them here, query by query, into the kind runs; a resident part answers
// them in the search/installServe collect, partitioned by op (the ops
// vector rides the collect args), and its reply returns every kind at
// once. It returns the rank's served count.
func (r *mixedRun[T]) shipRoute(pr *cgm.Proc, ps *procState, ships []hostShip, routed [][]subquery) int {
	t, a := r.t, pr.Arena()
	aggName, agg := r.copyAgg()
	rep := exchangeOnPart(pr, ps.part, searchLabels.route,
		"search/shipRoute", shipRouteArgs{Ships: ships, Routed: routed},
		func(part *forestPart, c *exec.Ctx, args shipRouteArgs) ([][]routeRow, error) {
			return part.shipRoute(a, args.Ships, args.Routed, c.P)
		},
		"search/installServe", installServeArgs{Cap: t.copyCacheCapFor(ps), Agg: aggName, Ops: r.ops},
		func(part *forestPart, c *exec.Ctx, args installServeArgs, in [][]routeRow) (installServeReply, error) {
			rep, err := part.installCopies(c.Rank, args.Cap, agg, in)
			if err != nil {
				return rep, err
			}
			for _, col := range in {
				for i := range col {
					if col[i].Copy == nil {
						r.answerSub(col[i].Sub)
						rep.Serve.Served++
					}
				}
			}
			return rep, nil
		})
	t.bookCopies(ps, rep)
	r.absorb(rep.Serve)
	return rep.Serve.Served
}

// absorb takes the results a resident collect served into the kind runs.
// A fabric part answered into the runs directly, and its reply carries
// none.
func (r *mixedRun[T]) absorb(rep mixedServeReply) {
	if r.count != nil {
		r.count.pairs = cgm.Append(r.count.a, r.count.pairs, rep.Counts...)
	}
	if r.agg != nil && len(rep.Aggs) > 0 {
		pairs, err := exec.Unmarshal[[]qvalT[T]](rep.Aggs)
		if err != nil {
			panic(fmt.Sprintf("core: decoding mixed aggregate results: %v", err))
		}
		r.agg.pairs = cgm.Append(r.agg.a, r.agg.pairs, pairs...)
	}
	if r.rep != nil {
		r.rep.absorbHits(rep.Hits)
	}
}

// resultRow is one row of phase D's first superstep, which carries four
// collectives at once: a count or aggregate partial to its query's home
// processor, a report weight to every processor (the all-gather Algorithm
// Report prefix-sums), or a whole-element report order to the element's
// owner. N is the count, the weight, or the order's output offset within
// its sender's block: the owner adds the sender's prefix, which the
// weights of the same round give it, so a sender's weight row precedes
// its orders. Every row is one element of the round, as it was in the
// separate collectives.
type resultRow[T any] struct {
	Kind  rowKind
	Query int32
	Elem  ElemID
	N     int64
	Val   T
}

// rowKind tags a resultRow.
type rowKind uint8

const (
	rowCount rowKind = iota
	rowAgg
	rowWeight
	rowOrder
)

// finish runs phase D for the kinds the batch holds. One superstep moves
// every partial, weight and order; the count and aggregate partials fold
// into their queries' home slots (disjoint across processors), in source
// order as they arrive. A batch holding reports then redistributes its
// pairs (reportRun.deliver). Every processor calls it exactly once with
// the same kinds, so its supersteps stay SPMD.
func (r *mixedRun[T]) finish(pr *cgm.Proc) {
	p, a, nq := pr.P(), pr.Arena(), len(r.ops)
	sizes := cgm.Alloc[int](a, p)
	if r.count != nil {
		for _, v := range r.count.pairs {
			sizes[homeOf(v.Query, nq, p)]++
		}
	}
	if r.agg != nil {
		for _, v := range r.agg.pairs {
			sizes[homeOf(v.Query, nq, p)]++
		}
	}
	weight := 0
	if r.rep != nil {
		weight = r.rep.weigh()
		for j := range sizes {
			sizes[j]++
		}
		for _, o := range r.rep.orders {
			sizes[r.rep.ps.info[int(o.Elem)].Owner]++
		}
	}
	out := cgm.Alloc[[]resultRow[T]](a, p)
	for j, n := range sizes {
		out[j] = cgm.Alloc[resultRow[T]](a, n)[:0]
	}
	if r.count != nil {
		for _, v := range r.count.pairs {
			j := homeOf(v.Query, nq, p)
			out[j] = append(out[j], resultRow[T]{Kind: rowCount, Query: v.Query, N: v.Val})
		}
	}
	if r.agg != nil {
		for _, v := range r.agg.pairs {
			j := homeOf(v.Query, nq, p)
			out[j] = append(out[j], resultRow[T]{Kind: rowAgg, Query: v.Query, Val: v.Val})
		}
	}
	if r.rep != nil {
		for j := range out {
			out[j] = append(out[j], resultRow[T]{Kind: rowWeight, N: int64(weight)})
		}
		for _, o := range r.rep.orders {
			j := r.rep.ps.info[int(o.Elem)].Owner
			out[j] = append(out[j], resultRow[T]{Kind: rowOrder, Query: o.Query, Elem: o.Elem, N: int64(o.Off)})
		}
	}

	var m semigroup.Monoid[T]
	if r.agg != nil {
		m = r.agg.h.m
	}
	var fetched []rorder
	// before sums the weights of the sources read so far: it is the
	// current source's output offset (srcOff) and, at this rank's own
	// weight row, this rank's (prefix).
	before, prefix, srcOff := 0, 0, 0
	for src, col := range cgm.Exchange(pr, searchLabels.results, out) {
		for _, row := range col {
			switch row.Kind {
			case rowCount:
				r.results[row.Query].Count += row.N
			case rowAgg:
				r.results[row.Query].Agg = m.Combine(r.results[row.Query].Agg, row.Val)
			case rowWeight:
				srcOff = before
				if src == pr.Rank() {
					prefix = before
				}
				before += int(row.N)
			case rowOrder:
				fetched = cgm.Append(a, fetched, rorder{Query: row.Query, Elem: row.Elem, Off: srcOff + int(row.N)})
			}
		}
	}
	if r.rep != nil {
		r.rep.deliver(pr, prefix, before, fetched)
	}
}

// MixedBatch answers a batch mixing the three result modes in ONE machine
// run: one hat descent, one demand-balanced copy/route of the combined Q″
// and one serving sweep cover every query, and phase D runs the result
// collectives of each kind the batch holds. This is Algorithm Search's
// only implementation: the per-mode calls are one-kind MixedBatches, and
// the serving layer's micro-batched single queries of different modes
// amortize the round structure the theorems price per batch, not per mode.
//
// ops[i] selects the mode of boxes[i]. h may be nil when ops contains no
// OpAggregate.
func MixedBatch[T any](t *Tree, h *AggHandle[T], ops []MixedOp, boxes []geom.Box) []MixedResult[T] {
	if len(ops) != len(boxes) {
		panic(fmt.Sprintf("core: MixedBatch got %d ops for %d boxes", len(ops), len(boxes)))
	}
	if h != nil && h.t != t {
		panic("core: MixedBatch: AggHandle was prepared on a different tree")
	}
	var holds kinds
	for i, op := range ops {
		if op < OpCount || op > OpReport {
			panic(fmt.Sprintf("core: MixedBatch: query %d has unknown op %v", i, op))
		}
		t.checkBox("MixedBatch", i, boxes[i])
		holds |= 1 << op
	}
	if h == nil && holds.has(OpAggregate) {
		panic("core: MixedBatch: OpAggregate requires a prepared AggHandle")
	}
	if len(boxes) == 0 {
		return nil
	}
	fr := mixedFrameOf[T](t)
	fr.boxes, fr.h, fr.ops, fr.holds = boxes, h, ops, holds
	defer fr.unpin()
	return fr.run()
}

// checkBox refuses a query box of the wrong dimensionality on the
// caller's goroutine: inside a run it would abort the machine for good.
func (t *Tree) checkBox(caller string, i int, b geom.Box) {
	if d := b.Dims(); d != t.dims {
		panic(fmt.Sprintf("core: %s: query %d has %d dims, tree has %d", caller, i, d, t.dims))
	}
}

// oneKind answers boxes as a MixedBatch whose ops are all op and picks
// each query's answer out of its result.
func oneKind[T, R any](t *Tree, h *AggHandle[T], op MixedOp, boxes []geom.Box, pick func(MixedResult[T]) R) []R {
	if len(boxes) == 0 {
		return nil
	}
	ops := make([]MixedOp, len(boxes))
	for i := range ops {
		ops[i] = op
	}
	res := MixedBatch(t, h, ops, boxes)
	out := make([]R, len(res))
	for i, r := range res {
		out[i] = pick(r)
	}
	return out
}
