package core

import (
	"repro/internal/cgm"
	"repro/internal/geom"
)

// The batched-search supersteps (Algorithm Search) have one structure
// shared by every result mode of §4.2:
//
//	phase A  hat descent of Q over the local replica (hatSearch); matches
//	         resolved inside the hat are answered by the mode, and the
//	         queries that must visit the forest become the subquery set Q″
//	phase B  demand-balanced copying of congested forest parts and routing
//	         of Q″ to the copy hosts (phaseB)
//	phase C  sequential answering of the served subqueries on their hosts
//	phase D  the mode's result collectives — gather partials at each
//	         query's home, or the report mode's balanced redistribution
//
// A runFrame owns phases A–C and the machine run; a searchMode supplies the
// per-mode hooks. Each mode is a ~40-line instance, so a new result mode
// no longer copies the superstep plumbing.

// runLabels is one mode's static table of communication labels: the
// labels travel in every deposit and name the rounds in Metrics, so they
// are spelled once per mode, not concatenated per rank per superstep.
type runLabels struct {
	demand, copies, route    string // phase B, GroupLevel
	edemand, ecopies, eroute string // phase B, ElementLevel
	home                     string // count/assoc partials to the query's home
	weights, fetch, pairs    string // report phase D
}

func labelsFor(prefix string) *runLabels {
	return &runLabels{
		demand: prefix + "/demand", copies: prefix + "/copies", route: prefix + "/route",
		edemand: prefix + "/edemand", ecopies: prefix + "/ecopies", eroute: prefix + "/eroute",
		home:    prefix + "/home",
		weights: prefix + "/weights", fetch: prefix + "/fetch", pairs: prefix + "/pairs",
	}
}

var (
	countLabels      = labelsFor("count")
	assocLabels      = labelsFor("assoc")
	reportLabels     = labelsFor("report")
	mixedLabels      = labelsFor("mixed")
	mixedCountLabels = labelsFor("mixed/count")
	mixedAssocLabels = labelsFor("mixed/assoc")
)

// searchMode supplies the per-mode pieces of the unified pipeline for a
// batch producing one R per query.
type searchMode[R any] interface {
	// labels names the batch's phase-B collectives.
	labels() *runLabels
	// init seeds the shared result slice before the machine run (e.g.
	// with monoid identities).
	init(results []R)
	// start creates the per-processor mode state of one machine run, in
	// the rank's run arena a. Deliveries into results must stay within
	// disjoint per-processor shares (the query home blocks, or rank-
	// indexed slots).
	start(t *Tree, a *cgm.Arena, ps *procState, st *SearchStats, results []R) procRun
	// epilogue runs once on the caller's goroutine after the machine run
	// (e.g. the report mode's final grouping). The run's arenas are still
	// intact: the frame releases them once the epilogue returns.
	epilogue(results []R)
}

// procRun is the per-processor half of a searchMode during one run.
type procRun interface {
	// answerHat resolves one hat selection of phase A.
	answerHat(q Query, s hatSel)
	// materialize is called for every element copy installed in phase B.
	materialize(el *element)
	// answerSub serves one routed subquery in phase C.
	answerSub(s subquery)
	// serveRouted runs the fused route-and-serve superstep of a resident
	// tree: the phase-B partition is exchanged under label and the
	// collect step answers the column where it lands — routing and phase
	// C in one round. It returns the rank's served count (what a
	// coordinator-side route exchange would have received).
	serveRouted(pr *cgm.Proc, label string, routed [][]subquery) int
	// finish runs the mode's result collectives (phase D). Every
	// processor calls it exactly once, so its collectives stay SPMD.
	finish(pr *cgm.Proc)
}

// aggNamer is implemented by modes whose batches serve a registered
// aggregate; phase B's resident install step annotates copies for it.
type aggNamer interface {
	residentAggName() string
}

// phaseASink wires one processor's hat descents into its mode run: hat
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

// runFrame is the caller-side half of a search run: the mode, the batch in
// flight and the program handed to the machine. Only boxes and results
// (and what a mode keeps of the batch) change from run to run, so a frame
// that is kept — the mixed mode's, on its tree — makes every run after the
// first allocate its results and what a report returns, nothing else. A
// machine runs one program at a time, so a frame has one user at a time
// too.
type runFrame[R any] struct {
	t    *Tree
	mode searchMode[R]
	prog func(*cgm.Proc) // fr.rank, bound once

	boxes   []geom.Box
	results []R
}

func newRunFrame[R any](t *Tree, mode searchMode[R]) *runFrame[R] {
	fr := &runFrame[R]{t: t, mode: mode}
	fr.prog = fr.rank
	return fr
}

// runSearch answers one batch on a frame of its own.
func runSearch[R any](t *Tree, boxes []geom.Box, mode searchMode[R]) []R {
	return newRunFrame(t, mode).run(boxes)
}

// run executes the unified batched-search pipeline for one batch; a
// query's ID is its batch index, which result delivery relies on.
// Everything a rank needs during the run that does not leave it — the mode
// state, Q″, the demand and routing vectors, every exchange row — lives in
// the rank's run arena; what the run allocates is what it returns.
func (fr *runFrame[R]) run(boxes []geom.Box) []R {
	if len(boxes) == 0 {
		return nil
	}
	t := fr.t
	results := make([]R, len(boxes))
	fr.boxes, fr.results = boxes, results
	defer fr.unpin()
	fr.mode.init(results)
	t.prepBatch()
	t.mach.Run(fr.prog)
	fr.mode.epilogue(results)
	// Everything the batch returns is on the heap by now; what the ranks
	// left in their arenas (partial results, received rows) can go.
	t.mach.ReleaseArenas()
	return results
}

// unpin drops the batch: a kept frame must not pin it, whether the run
// returned or a machine abort panicked out of it.
func (fr *runFrame[R]) unpin() { fr.boxes, fr.results = nil, nil }

// rank is one processor's program of the run.
func (fr *runFrame[R]) rank(pr *cgm.Proc) {
	t, mode := fr.t, fr.mode
	m, p := len(fr.boxes), t.P()
	a := pr.Arena()
	ps := t.procs[pr.Rank()]
	st := &t.lastStats[pr.Rank()]
	run := mode.start(t, a, ps, st, fr.results)

	// Phase A: advance this processor's query block through the hat.
	lo, hi := queryBlock(pr.Rank(), m, p)
	sink := cgm.AllocOne(a, phaseASink{a: a, st: st, run: run})
	for qi := lo; qi < hi; qi++ {
		ps.hatSearch(t, Query{ID: int32(qi), Box: fr.boxes[qi]}, sink)
	}
	subs := sink.subs
	st.Subqueries = len(subs)

	// Phase B: balance Q″ across copies of the demanded forest parts.
	aggName := ""
	if an, ok := mode.(aggNamer); ok && t.resident {
		aggName = an.residentAggName()
	}
	served, routed, routeLbl := t.phaseB(pr, ps, subs, mode.labels(), aggName, run)

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

	// Phase D: the mode's result collectives.
	run.finish(pr)
}
