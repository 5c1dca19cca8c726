package core

import (
	"fmt"

	"repro/internal/cgm"
	"repro/internal/exec"
	"repro/internal/geom"
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
	Pts   []geom.Point
}

// mixedRun is one rank's run of a batch: one kind run per result kind the
// batch holds (nil for the others), each hook dispatching on the query's
// op, so one hat descent, one demand-balanced copy/route and one serving
// sweep answer the whole batch.
type mixedRun[T any] struct {
	ops     []MixedOp
	results []MixedResult[T]
	count   *countRun
	agg     *assocRun[T]
	rep     *reportRun
}

// start builds the rank's run in arena a, with a kind run for each kind
// the batch holds.
func (fr *mixedFrame[T]) start(a *cgm.Arena, ps *procState, st *SearchStats) *mixedRun[T] {
	nq := len(fr.boxes)
	r := cgm.AllocOne(a, mixedRun[T]{ops: fr.ops, results: fr.results})
	if fr.holds.has(OpCount) {
		r.count = cgm.AllocOne(a, countRun{a: a, ps: ps, nq: nq})
	}
	if fr.holds.has(OpAggregate) {
		r.agg = cgm.AllocOne(a, assocRun[T]{a: a, h: fr.h, pa: fr.h.parts[ps.rank], ps: ps, nq: nq})
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

// serveRouted is phase C, the ONE fused route-and-serve superstep: the
// phase-B partition is exchanged under label and the routed column is
// answered where it lands, every kind at once. On a fabric part the
// column is answered here, query by query; on a resident tree (part nil)
// the collect step partitions it by op (the ops vector rides the collect
// args) and returns the kinds in a single reply. It returns the rank's
// served count.
func (r *mixedRun[T]) serveRouted(pr *cgm.Proc, part *forestPart, label string, routed [][]subquery) int {
	if part != nil {
		served := 0
		for _, col := range cgm.Exchange(pr, label, routed) {
			for _, s := range col {
				r.answerSub(s)
			}
			served += len(col)
		}
		return served
	}
	args := mixedServeArgs{Ops: r.ops}
	if r.agg != nil {
		args.Agg = r.agg.h.name
	}
	rep, recv := cgm.ExchangeCollectRecv[subquery, mixedServeArgs, mixedServeReply](
		pr, label, routed, fref("search/routeMixed"), args)
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
		r.rep.locals = cgm.Append(r.rep.a, r.rep.locals, rep.Locals...)
	}
	return recv
}

// finish runs phase D for the kinds the batch holds: the count and
// aggregate partials fold into their queries' home slots (disjoint across
// processors), and the report pairs are redistributed. Every processor
// calls it exactly once with the same kinds, so its collectives stay SPMD.
func (r *mixedRun[T]) finish(pr *cgm.Proc) {
	if r.count != nil {
		for _, v := range r.count.home(pr) {
			r.results[v.Query].Count += v.Val
		}
	}
	if r.agg != nil {
		m := r.agg.h.m
		for _, v := range r.agg.home(pr) {
			r.results[v.Query].Agg = m.Combine(r.results[v.Query].Agg, v.Val)
		}
	}
	if r.rep != nil {
		r.rep.finish(pr)
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
