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

// MixedResult holds the answer of one mixed-batch query; only the field
// selected by the query's op is meaningful.
type MixedResult[T any] struct {
	Count int64
	Agg   T
	Pts   []geom.Point
}

// mixedRun multiplexes the three per-mode runs over one shared pipeline
// pass: each hook dispatches on the query's op, so one hat descent, one
// demand-balanced copy/route and one serving sweep answer the whole batch.
type mixedRun[T any] struct {
	ops     []MixedOp
	results []MixedResult[T]
	count   countRun
	agg     *assocRun[T] // nil without a prepared handle
	rep     *reportRun
}

// answerer is the per-query half of a run: what the mixed run dispatches
// by op.
type answerer interface {
	answerHat(q Query, s hatSel)
	answerSub(s subquery)
}

func (r *mixedRun[T]) dispatch(qid int32) answerer {
	switch r.ops[qid] {
	case OpAggregate:
		return r.agg
	case OpReport:
		return r.rep
	default:
		return &r.count
	}
}

func (r *mixedRun[T]) answerHat(q Query, s hatSel) { r.dispatch(q.ID).answerHat(q, s) }
func (r *mixedRun[T]) answerSub(s subquery)        { r.dispatch(s.Query).answerSub(s) }

// serveRouted answers all three op kinds in the ONE fused route-and-
// serve superstep: the collect step partitions the routed column by op
// (the ops vector rides the collect args) and returns the three result
// kinds in a single reply — no per-mode dispatch round-trips.
func (r *mixedRun[T]) serveRouted(pr *cgm.Proc, label string, routed [][]subquery) int {
	args := mixedServeArgs{Ops: r.ops}
	if r.agg != nil {
		args.Agg = r.agg.h.name
	}
	rep, recv := cgm.ExchangeCollectRecv[subquery, mixedServeArgs, mixedServeReply](
		pr, label, routed, fref("search/routeMixed"), args)
	r.count.pairs = cgm.Append(r.count.a, r.count.pairs, rep.Counts...)
	if len(rep.Aggs) > 0 {
		if r.agg == nil {
			// Unreachable via MixedBatch (it rejects OpAggregate without a
			// handle up front); fail as loudly as the fabric path would.
			panic("core: aggregate subqueries served without a prepared AggHandle")
		}
		pairs, err := exec.Unmarshal[[]qvalT[T]](rep.Aggs)
		if err != nil {
			panic(fmt.Sprintf("core: decoding mixed aggregate results: %v", err))
		}
		r.agg.pairs = cgm.Append(r.agg.a, r.agg.pairs, pairs...)
	}
	r.rep.locals = cgm.Append(r.rep.a, r.rep.locals, rep.Locals...)
	return recv
}

func (r *mixedRun[T]) materialize(el *element) {
	// Only the associative mode annotates copies; h's presence is a
	// batch-global property, so this branch is SPMD-uniform.
	if r.agg != nil {
		r.agg.materialize(el)
	}
}

// finish folds the count and aggregate partials into their queries' home
// slots (disjoint across processors) and runs the report redistribution.
func (r *mixedRun[T]) finish(pr *cgm.Proc) {
	for _, v := range r.count.home(pr) {
		r.results[v.Query].Count += v.Val
	}
	if r.agg != nil {
		m := r.agg.h.m
		for _, v := range r.agg.home(pr) {
			r.results[v.Query].Agg = m.Combine(r.results[v.Query].Agg, v.Val)
		}
	}
	r.rep.finish(pr)
}

// mixedMode composes the three result modes into one searchMode whose
// collectives all ride a single machine run. h and ops are the batch's;
// the rest serves every batch of the frame that holds the mode.
type mixedMode[T any] struct {
	h   *AggHandle[T]
	ops []MixedOp
	rep *reportMode[MixedResult[T]]
}

// deliver hands one query's report points to its result slot (the report
// epilogue groups pairs for every query of the batch, whatever its op).
func (m *mixedMode[T]) deliver(results []MixedResult[T], qid int32, pts []geom.Point) {
	if m.ops[qid] == OpReport {
		results[qid].Pts = pts
	}
}

// mixedFrame is the serving path's run frame, kept on the tree: a warm
// MixedBatch rebuilds none of its caller-side state.
type mixedFrame[T any] struct {
	*runFrame[MixedResult[T]]
	mode mixedMode[T]
}

// mixedFrameOf returns the tree's kept frame, replacing one kept for
// another aggregate type (a tree serves one in practice).
func mixedFrameOf[T any](t *Tree) *mixedFrame[T] {
	fr, ok := t.frame.(*mixedFrame[T])
	if !ok {
		fr = &mixedFrame[T]{}
		fr.mode.rep = newReportMode(t.P(), fr.mode.deliver)
		fr.runFrame = newRunFrame[MixedResult[T]](t, &fr.mode)
		t.frame = fr
	}
	return fr
}

func (*mixedMode[T]) labels() *runLabels { return mixedLabels }

func (m *mixedMode[T]) residentAggName() string {
	if m.h != nil {
		return m.h.name
	}
	return ""
}

func (m *mixedMode[T]) init(results []MixedResult[T]) {
	if m.h == nil {
		return
	}
	for i := range results {
		results[i].Agg = m.h.m.Identity
	}
}

func (m *mixedMode[T]) start(t *Tree, a *cgm.Arena, ps *procState, st *SearchStats, results []MixedResult[T]) procRun {
	nq := len(results)
	r := cgm.AllocOne(a, mixedRun[T]{ops: m.ops, results: results,
		count: countRun{a: a, ps: ps, nq: nq, lbl: mixedCountLabels},
		rep:   m.rep.startRun(t, a, ps, st)})
	if m.h != nil {
		r.agg = newAssocRun(a, m.h, ps, nq, mixedAssocLabels)
	}
	return r
}

func (m *mixedMode[T]) epilogue(results []MixedResult[T]) { m.rep.epilogue(results) }

// MixedBatch answers a batch mixing all three result modes in ONE machine
// run: one hat descent, one demand-balanced copy/route of the combined Q″
// and one serving sweep cover every query, with the per-mode result
// collectives riding the same run. This is the serving layer's dispatch
// path: micro-batched single queries of different modes amortize the
// round structure the theorems price per batch, not per mode.
//
// ops[i] selects the mode of boxes[i]. h may be nil when ops contains no
// OpAggregate.
func MixedBatch[T any](t *Tree, h *AggHandle[T], ops []MixedOp, boxes []geom.Box) []MixedResult[T] {
	if len(ops) != len(boxes) {
		panic(fmt.Sprintf("core: MixedBatch got %d ops for %d boxes", len(ops), len(boxes)))
	}
	if h == nil {
		for _, op := range ops {
			if op == OpAggregate {
				panic("core: MixedBatch: OpAggregate requires a prepared AggHandle")
			}
		}
	}
	if h != nil && h.t != t {
		panic("core: MixedBatch: AggHandle was prepared on a different tree")
	}
	fr := mixedFrameOf[T](t)
	fr.mode.h, fr.mode.ops = h, ops
	defer fr.mode.unpin()
	return fr.run(boxes)
}

// unpin drops what the kept mode holds of one batch — the handle, the ops
// and, when a machine abort panicked past the epilogue, the ranks' pair
// blocks.
func (m *mixedMode[T]) unpin() {
	m.h, m.ops = nil, nil
	clear(m.rep.perProc)
}
