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
//	         set Q″ (no communication)
//	phase B  the demand all-gather, then the plan of the congested forest
//	         parts' copies and the partition of Q″ by copy host (phaseB)
//	phase C  one superstep ships the copies and routes Q″; each host
//	         installs its copies and answers the routed subqueries where
//	         they land (shipRoute)
//	phase D  one superstep carries the count and aggregate partials to
//	         each query's home, the report weights to every processor and
//	         the whole-element report orders to their owners (finish); a
//	         batch holding reports then redistributes its pairs k/p per
//	         processor in one more
//
// So a batch costs 3 rounds, 4 when it holds a report. The kinds differ
// only in phase D, and a kind the batch does not hold adds no row there.
// Every rank sees the same ops vector, so every rank runs the same
// supersteps: the run stays SPMD.

// runLabels names the search's communication rounds. The labels travel in
// every deposit and name the rounds in Metrics, so they are spelled once,
// not concatenated per rank per superstep.
type runLabels struct {
	demand, route  string // phases B and C
	results, pairs string // phase D
}

var searchLabels = &runLabels{
	demand: "mixed/demand", route: "mixed/route",
	results: "mixed/results", pairs: "report/pairs",
}

// procRun is what the non-generic phase A calls of a rank's run.
type procRun interface {
	// answerHat resolves one hat selection of phase A.
	answerHat(q Query, s hatSel)
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

	// Phase B: balance Q″ across copies of the demanded forest parts.
	ships, routed := t.phaseB(pr, ps, subs)

	// Phase C: the copies and Q″ travel in one superstep, and each host
	// answers the routed column where it lands.
	st.Served = run.shipRoute(pr, ps, ships, routed)

	// Phase D: the result collectives of the kinds the batch holds.
	run.finish(pr)
}
