package core

import (
	"repro/internal/cgm"
	"repro/internal/comm"
	"repro/internal/geom"
)

// This file addresses the question the paper's conclusion leaves open:
// "the question of using parallelism to speed up just one single query ...
// is also wide open". The batched machinery is useless for m = 1 (its
// balancing needs many queries to spread), but the distributed structure
// itself offers a natural single-query algorithm: every processor advances
// the query through its own hat replica — reaching the identical selection
// set without communication — and then serves exactly the subqueries whose
// forest elements it owns. One gather round combines the partial results.
//
// The achievable speedup is bounded by how many distinct forest elements
// the query touches (at most O(log^d n), and only elements on distinct
// owners parallelize) — which is precisely why the paper calls the general
// problem open. The E13 experiment measures this ownership-limited
// parallelism.

// SingleCount answers one counting query with all processors cooperating.
func (t *Tree) SingleCount(b geom.Box) int64 {
	t.checkBox("SingleCount", 0, b)
	var result int64
	t.mach.Run(func(pr *cgm.Proc) {
		ps := t.procs[pr.Rank()]
		var local int64
		var mine []subquery // the owned subqueries, served in one call
		ps.hatSearchFunc(t, Query{ID: 0, Box: b},
			func(s hatSel) {
				// The hat is replicated: only rank 0 counts hat
				// selections, so each is counted exactly once.
				if pr.Rank() != 0 {
					return
				}
				if s.Elem >= 0 {
					local += int64(ps.info[int(s.Elem)].Count)
				} else {
					nd, _ := ps.hat[s.Tree].Node(int(s.Node))
					local += int64(nd.Count)
				}
			},
			func(s subquery) {
				// Ownership partitions the forest: serve only my own
				// elements, with no copying round at all.
				if int(ps.info[int(s.Elem)].Owner) == pr.Rank() {
					mine = append(mine, s)
				}
			})
		if len(mine) > 0 {
			for _, v := range onPartIn(pr, ps.part, "search/serveCount", serveArgs{Subs: mine}, serveCountStep) {
				local += v.Val
			}
		}
		parts := comm.Gather(pr, "single/count", 0, []int64{local})
		if pr.Rank() == 0 {
			for _, p := range parts {
				result += p[0]
			}
		}
	})
	return result
}

// SingleQueryWork returns, per processor, how many subqueries of the
// single query b each processor would serve — the ownership-limited
// parallelism profile E13 reports.
func (t *Tree) SingleQueryWork(b geom.Box) []int {
	ps := t.procs[0]
	out := make([]int, t.P())
	ps.hatSearchFunc(t, Query{ID: 0, Box: b},
		func(hatSel) {},
		func(s subquery) { out[ps.info[int(s.Elem)].Owner]++ })
	return out
}
