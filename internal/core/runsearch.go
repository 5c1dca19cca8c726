package core

import (
	"repro/internal/cgm"
	"repro/internal/geom"
)

// Algorithm Search (§4.2) has one implementation: a MixedBatch run, in
// which every query carries its own result kind. CountBatch,
// AggHandle.Batch and ReportBatch are MixedBatch with every op of one
// kind. The supersteps:
//
//	phase A  hat descent of Q over the local replica (hatSearch); matches
//	         resolved inside the hat are answered by the query's kind, and
//	         the queries that must visit the forest become the subquery
//	         set Q″
//	phase B  demand-balanced copying of congested forest parts and routing
//	         of Q″ to the copy hosts (phaseB)
//	phase C  sequential answering of the served subqueries on their hosts
//	phase D  the result collectives of each kind the batch holds: count and
//	         aggregate partials gather at each query's home, report pairs
//	         are redistributed k/p per processor
//
// The kinds differ only in phase D, and a kind the batch does not hold
// costs nothing there. Every rank sees the same ops vector, so every rank
// skips the same collectives: the run stays SPMD with no extra round, and
// a one-kind batch costs exactly what that mode alone would.

// runLabels names the search's communication rounds. The labels travel in
// every deposit and name the rounds in Metrics, so they are spelled once,
// not concatenated per rank per superstep.
type runLabels struct {
	demand, copies, route    string // phase B, GroupLevel
	edemand, ecopies, eroute string // phase B, ElementLevel
	countHome, aggHome       string // count and aggregate partials to the query's home
	weights, fetch, pairs    string // report phase D
}

var searchLabels = &runLabels{
	demand: "mixed/demand", copies: "mixed/copies", route: "mixed/route",
	edemand: "mixed/edemand", ecopies: "mixed/ecopies", eroute: "mixed/eroute",
	countHome: "mixed/count/home", aggHome: "mixed/assoc/home",
	weights: "report/weights", fetch: "report/fetch", pairs: "report/pairs",
}

// procRun is what the non-generic phases A and B call of a rank's run.
type procRun interface {
	// answerHat resolves one hat selection of phase A.
	answerHat(q Query, s hatSel)
	// materialize is called for every element copy installed in phase B.
	materialize(el *element)
}

// phaseASink wires one processor's hat descents into its run: hat
// selections are answered immediately, forest crossings accumulate as Q″.
// One sink serves the whole batch, so phase A's innermost loop allocates
// no closures.
type phaseASink struct {
	a    *cgm.Arena
	st   *SearchStats
	run  procRun
	subs []subquery
}

func (s *phaseASink) hatSelection(q Query, h hatSel) {
	s.st.HatSelections++
	s.run.answerHat(q, h)
}

func (s *phaseASink) forestSub(sq subquery) { s.subs = cgm.Append(s.a, s.subs, sq) }

// mixedFrame is the caller-side half of a search run, kept on the tree:
// the batch in flight and the program handed to the machine. Only the
// batch changes from run to run, so every run after the first allocates
// its results and what a report returns, nothing else. A machine runs one
// program at a time, so a frame has one user at a time too.
type mixedFrame[T any] struct {
	t    *Tree
	prog func(*cgm.Proc) // fr.rank, bound once

	boxes   []geom.Box
	results []MixedResult[T]
	h       *AggHandle[T]
	ops     []MixedOp
	holds   kinds
	rep     reportBlocks
}

// mixedFrameOf returns the tree's kept frame, replacing one kept for
// another aggregate type.
func mixedFrameOf[T any](t *Tree) *mixedFrame[T] {
	fr, ok := t.frame.(*mixedFrame[T])
	if !ok {
		fr = &mixedFrame[T]{t: t, rep: newReportBlocks(t.P())}
		fr.prog = fr.rank
		t.frame = fr
	}
	return fr
}

// run executes Algorithm Search for one batch; a query's ID is its batch
// index, which result delivery relies on. Everything a rank needs during
// the run that does not leave it — the kind runs, Q″, the demand and
// routing vectors, every exchange row — lives in the rank's run arena;
// what the run allocates is what it returns.
func (fr *mixedFrame[T]) run() []MixedResult[T] {
	t := fr.t
	fr.results = make([]MixedResult[T], len(fr.boxes))
	if fr.h != nil {
		for i := range fr.results {
			fr.results[i].Agg = fr.h.m.Identity
		}
	}
	t.prepBatch()
	t.mach.Run(fr.prog)
	if fr.holds.has(OpReport) {
		groupReports(&fr.rep, fr.results)
	}
	// Everything the batch returns is on the heap by now; what the ranks
	// left in their arenas (partial results, received rows) can go.
	t.mach.ReleaseArenas()
	return fr.results
}

// unpin drops the batch: a kept frame must not pin it, whether the run
// returned or a machine abort panicked out of it (past the report
// grouping, which would have dropped the ranks' pair blocks).
func (fr *mixedFrame[T]) unpin() {
	fr.boxes, fr.results, fr.h, fr.ops = nil, nil, nil, nil
	clear(fr.rep.perProc)
}

// rank is one processor's program of the run.
func (fr *mixedFrame[T]) rank(pr *cgm.Proc) {
	t := fr.t
	m, p := len(fr.boxes), t.P()
	a := pr.Arena()
	ps := t.procs[pr.Rank()]
	st := &t.lastStats[pr.Rank()]
	run := fr.start(a, ps, st)

	// Phase A: advance this processor's query block through the hat.
	lo, hi := queryBlock(pr.Rank(), m, p)
	sink := cgm.AllocOne(a, phaseASink{a: a, st: st, run: run})
	for qi := lo; qi < hi; qi++ {
		ps.hatSearch(t, Query{ID: int32(qi), Box: fr.boxes[qi]}, sink)
	}
	subs := sink.subs
	st.Subqueries = len(subs)

	// Phase B: balance Q″ across copies of the demanded forest parts. A
	// resident install annotates copies for the batch's aggregate, if it
	// holds any aggregate query.
	aggName := ""
	if run.agg != nil {
		aggName = fr.h.name
	}
	served, routed, routeLbl := t.phaseB(pr, ps, subs, aggName, run)

	// Phase C: answer the subqueries this processor serves — locally
	// on a fabric tree; on a resident tree the route exchange and the
	// serving collapse into one superstep (the routed column is
	// answered by the collect step where it lands).
	if t.resident {
		st.Served = run.serveRouted(pr, routeLbl, routed)
	} else {
		st.Served = len(served)
		for _, s := range served {
			run.answerSub(s)
		}
	}

	// Phase D: the result collectives of the kinds the batch holds.
	run.finish(pr)
}
