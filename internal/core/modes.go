package core

import (
	"fmt"
	"slices"

	"repro/internal/balance"
	"repro/internal/cgm"
	"repro/internal/comm"
	"repro/internal/geom"
	"repro/internal/semigroup"
)

// The three result kinds of §4.2 — counting, associative function and
// report — as the kind runs of Algorithm Search (runsearch.go, mixed.go).
// Each answers a hat selection and a served subquery for its queries and
// owns its phase-D collectives; the per-mode entry points are one-kind
// MixedBatches.

// SearchStats reports one processor's share of the last batch — the
// quantities the balancing lemma bounds.
type SearchStats struct {
	HatSelections int   // selections resolved in the replicated hat
	Subqueries    int   // subqueries this processor's queries spawned (its Q″ share)
	Served        int   // subqueries served after redistribution
	CopiesHeld    int   // forest elements copied to this processor
	PairsEmitted  int   // report mode: (q, point) pairs materialized here
	CopyCacheHits int   // copies installed from the cross-batch cache
	InstallNanos  int64 // time spent installing copies in phase B
	CopiesByRef   int   // cache hits that arrived as ID-only references (no points shipped)
}

// LastSearchStats returns the per-processor statistics of the most recent
// batch operation. The returned slice is the caller's: the tree overwrites
// its own copy every batch.
func (t *Tree) LastSearchStats() []SearchStats { return slices.Clone(t.lastStats) }

// ---------------------------------------------------------------- count

// qcount is a partial per-query result routed to the query's home.
type qcount struct {
	Query int32
	Val   int64
}

// countRun answers counting queries: hat selections read the canonical
// counts carried by the replica, subqueries count in the local element
// tree, and partials fold at each query's home processor.
type countRun struct {
	a     *cgm.Arena
	ps    *procState
	nq    int
	pairs []qcount
	cv    countVisitor // reused: phase C counting allocates nothing
}

func (r *countRun) answerHat(q Query, s hatSel) {
	var c int64
	if s.Elem >= 0 {
		c = int64(r.ps.info[int(s.Elem)].Count)
	} else {
		nd, _ := r.ps.hat[s.Tree].Node(int(s.Node))
		c = int64(nd.Count)
	}
	r.pairs = cgm.Append(r.a, r.pairs, qcount{Query: q.ID, Val: c})
}

func (r *countRun) answerSub(s subquery) {
	el := r.ps.lookup(s.Elem)
	r.pairs = cgm.Append(r.a, r.pairs, qcount{Query: s.Query, Val: int64(elemCount(el, s.Box, &r.cv))})
}

// home gathers the partials at each query's home processor (home blocks
// are disjoint across processors, so the caller may fold them into the
// shared results without synchronisation).
func (r *countRun) home(pr *cgm.Proc) []qcount {
	return comm.SegmentedGather(pr, searchLabels.countHome, r.pairs, func(v qcount) int {
		return homeOf(v.Query, r.nq, pr.P())
	})
}

// CountBatch answers every query with |R(q)| — the counting special case
// of the associative-function mode, which needs no precomputation because
// hat nodes carry their canonical counts.
func (t *Tree) CountBatch(boxes []geom.Box) []int64 {
	return oneKind[struct{}](t, nil, OpCount, boxes, func(r MixedResult[struct{}]) int64 { return r.Count })
}

// ---------------------------------------------------- associative function

// AggHandle is a prepared associative-function annotation: Algorithm
// AssociativeFunction step 1 ("compute f(v) bottom-up for each node v in
// dimension d of T") materialized for one monoid. A Tree can carry any
// number of handles.
type AggHandle[T any] struct {
	t *Tree
	// name is the registered-aggregate name for resident execution; ""
	// on fabric trees prepared with an inline monoid.
	name string
	m    semigroup.Monoid[T]
	val  func(geom.Point) T
	// elemRoot[e] is f folded over all points of element e (replicated).
	elemRoot []T
	// elemAggs[rank] are the per-node annotations of owned elements.
	elemAggs []map[ElemID]elemAgg[T]
	// hatTab[rank][treeID][node] annotates last-dimension hat trees.
	hatTab []map[int32][]T
	// copyCache[rank] keeps annotations of copied elements across
	// batches, mirroring the element copy cache: swept when the tree
	// epoch moves, bounded like it, and an entry is only reused for the
	// same built tree instance.
	copyCache []*copyCache[cachedAgg[T]]
	// copyAggs[rank] maps the copies installed in the current batch to
	// their annotations; each run clears and refills its rank's map.
	copyAggs []map[ElemID]elemAgg[T]
}

// cachedAgg is one cross-batch annotation cache entry.
type cachedAgg[T any] struct {
	tree elemTree
	agg  elemAgg[T]
}

// Tree returns the distributed tree the handle annotates.
func (h *AggHandle[T]) Tree() *Tree { return h.t }

// PrepareAssociative runs step 1 of Algorithm AssociativeFunction: owners
// annotate their forest elements sequentially, the forest-root values are
// broadcast all-to-all, and every processor annotates its hat replica.
// Resident trees cannot take an inline monoid (functions do not cross
// process boundaries): use PrepareAssociativeNamed with a registered
// aggregate instead.
func PrepareAssociative[T any](t *Tree, mo semigroup.Monoid[T], val func(geom.Point) T) *AggHandle[T] {
	if t.resident {
		panic("core: a resident tree needs a registered aggregate: use RegisterAggregate + PrepareAssociativeNamed")
	}
	return prepareAssociative(t, "", mo, val)
}

// PrepareAssociativeNamed prepares the associative-function annotation
// for a registered aggregate (RegisterAggregate). On a resident tree the
// per-element annotations are built where the elements live; the hat
// annotation is replicated coordinator-side as usual. Works on fabric
// trees too, resolving the registered monoid by name.
func PrepareAssociativeNamed[T any](t *Tree, name string) *AggHandle[T] {
	reg, err := lookupAggregate[T](name)
	if err != nil {
		panic(fmt.Sprintf("core: PrepareAssociativeNamed: %v", err))
	}
	return prepareAssociative(t, name, reg.m, reg.val)
}

func prepareAssociative[T any](t *Tree, name string, mo semigroup.Monoid[T], val func(geom.Point) T) *AggHandle[T] {
	p := t.P()
	h := &AggHandle[T]{
		t:         t,
		name:      name,
		m:         mo,
		val:       val,
		elemRoot:  make([]T, t.ElemCount()),
		elemAggs:  make([]map[ElemID]elemAgg[T], p),
		hatTab:    make([]map[int32][]T, p),
		copyCache: make([]*copyCache[cachedAgg[T]], p),
		copyAggs:  make([]map[ElemID]elemAgg[T], p),
	}
	t.mach.Run(func(pr *cgm.Proc) {
		ps := t.procs[pr.Rank()]
		var roots []aggRoot[T]
		if t.resident {
			roots = cgm.CallResident[aggPrepArgs, []aggRoot[T]](pr, fref("assoc/prepare"), aggPrepArgs{Name: name})
		} else {
			aggs := make(map[ElemID]elemAgg[T])
			for _, id := range sortedOwnedIDs(ps.elems) {
				el := ps.elems[id]
				aggs[id] = newElemAgg(el, mo, val)
				acc := mo.Identity
				for _, pt := range el.pts {
					acc = mo.Combine(acc, val(pt))
				}
				roots = append(roots, aggRoot[T]{Elem: id, Val: acc})
			}
			h.elemAggs[pr.Rank()] = aggs
		}
		h.copyCache[pr.Rank()] = newCopyCache[cachedAgg[T]]()
		h.copyAggs[pr.Rank()] = make(map[ElemID]elemAgg[T])
		all := comm.AllGatherFlat(pr, "assoc/roots", roots)
		rootTab := make([]T, t.ElemCount())
		for _, rv := range all {
			rootTab[int(rv.Elem)] = rv.Val
		}
		if pr.Rank() == 0 {
			h.elemRoot = rootTab // replicas are identical; keep one
		}
		tab := make(map[int32][]T)
		for _, ht := range ps.hat {
			if int(ht.Dim) != t.dims-1 {
				continue
			}
			arr := make([]T, len(ht.nodes))
			var fill func(v int) T
			fill = func(v int) T {
				nd, ok := ht.Node(v)
				if !ok {
					return mo.Identity
				}
				var x T
				if nd.Elem >= 0 {
					x = rootTab[int(nd.Elem)]
				} else {
					x = mo.Combine(fill(2*v), fill(2*v+1))
				}
				arr[v] = x
				return x
			}
			fill(ht.Shape.Root())
			tab[ht.ID] = arr
		}
		h.hatTab[pr.Rank()] = tab
	})
	return h
}

// qvalT is a typed partial result for the associative mode.
type qvalT[T any] struct {
	Query int32
	Val   T
}

// assocRun evaluates ⊗_{l∈R(q)} f(l): hat selections read the prepared
// annotations, subqueries query the per-element Agg (built on demand for
// copies via materialize), and partials combine at each query's home.
type assocRun[T any] struct {
	a        *cgm.Arena
	h        *AggHandle[T]
	ps       *procState
	nq       int
	copyAggs map[ElemID]elemAgg[T]
	pairs    []qvalT[T]
}

// newAssocRun opens the handle's per-rank caches for the batch and builds
// the run in arena a.
func newAssocRun[T any](a *cgm.Arena, h *AggHandle[T], ps *procState, nq int) *assocRun[T] {
	h.copyCache[ps.rank].begin(h.t.batchEpoch)
	clear(h.copyAggs[ps.rank])
	return cgm.AllocOne(a, assocRun[T]{a: a, h: h, ps: ps, nq: nq, copyAggs: h.copyAggs[ps.rank]})
}

func (r *assocRun[T]) answerHat(q Query, s hatSel) {
	var v T
	if s.Elem >= 0 {
		v = r.h.elemRoot[int(s.Elem)]
	} else {
		v = r.h.hatTab[r.ps.rank][s.Tree][int(s.Node)]
	}
	r.pairs = cgm.Append(r.a, r.pairs, qvalT[T]{Query: q.ID, Val: v})
}

// materialize annotates one installed copy, reusing the cross-batch cache
// when the copy itself was reused (same built tree). The run's start
// opened the cache for this batch's epoch; the bound mirrors the element
// cache's.
func (r *assocRun[T]) materialize(el *element) {
	cache := r.h.copyCache[r.ps.rank]
	if c, ok := cache.get(el.info.ID); ok && c.tree == el.tree {
		r.copyAggs[el.info.ID] = c.agg
		return
	}
	a := newElemAgg(el, r.h.m, r.h.val)
	cache.insert(el.info.ID, cachedAgg[T]{tree: el.tree, agg: a}, r.h.t.copyCacheCapFor(r.ps), nil)
	r.copyAggs[el.info.ID] = a
}

func (r *assocRun[T]) answerSub(s subquery) {
	a, ok := r.h.elemAggs[r.ps.rank][s.Elem]
	if !ok {
		a = r.copyAggs[s.Elem]
	}
	r.pairs = cgm.Append(r.a, r.pairs, qvalT[T]{Query: s.Query, Val: a.Query(s.Box)})
}

// home gathers the partials at each query's home processor.
func (r *assocRun[T]) home(pr *cgm.Proc) []qvalT[T] {
	return comm.SegmentedGather(pr, searchLabels.aggHome, r.pairs, func(v qvalT[T]) int {
		return homeOf(v.Query, r.nq, pr.P())
	})
}

// Batch evaluates ⊗_{l∈R(q)} f(l) for every query (Algorithm
// AssociativeFunction steps 2–5: search, pair up selections with their
// f-values, combine per query).
func (h *AggHandle[T]) Batch(boxes []geom.Box) []T {
	return oneKind(h.t, h, OpAggregate, boxes, func(r MixedResult[T]) T { return r.Agg })
}

// ---------------------------------------------------------------- report

// ReportPair is one (query, point) result pair of the report mode.
type ReportPair struct {
	Query int32
	Pt    geom.Point
}

// rorder is a whole-element selection of the report mode's phase A.
type rorder struct {
	Query int32
	Elem  ElemID
	Off   int // global output offset, assigned in finish
}

// rlocal is one served subquery's report hits, awaiting redistribution.
type rlocal struct {
	Query int32
	Pts   []geom.Point
	Off   int
}

// reportRun materializes (q, l) pairs: hat selections become whole-element
// orders, subqueries report locally, and finish redistributes everything
// so each processor holds a contiguous ~k/p block of output (Algorithm
// Report / Theorem 4). Orders, local hits and the redistributed pairs all
// live in the rank's arena: groupReports copies the pairs into the
// caller's result slices before the next run recycles them.
type reportRun struct {
	a        *cgm.Arena
	ps       *procState
	st       *SearchStats
	resident bool
	mine     *[]ReportPair // where finish leaves this rank's pair block
	orders   []rorder
	locals   []rlocal
	rv       reportVisitor // reused across served subqueries
	stubs    []ElemID      // reused stub-expansion buffer
}

func (r *reportRun) answerHat(q Query, s hatSel) {
	if s.Elem >= 0 {
		r.orders = cgm.Append(r.a, r.orders, rorder{Query: q.ID, Elem: s.Elem})
		return
	}
	// Expand the selected hat-internal node into its stubs: every forest
	// element below it is selected whole.
	r.stubs = r.ps.stubsUnder(s.Tree, int(s.Node), r.stubs[:0])
	for _, e := range r.stubs {
		r.orders = cgm.Append(r.a, r.orders, rorder{Query: q.ID, Elem: e})
	}
}

func (r *reportRun) answerSub(s subquery) {
	el := r.ps.lookup(s.Elem)
	if pts := elemReport(el, s.Box, &r.rv); len(pts) > 0 {
		r.locals = cgm.Append(r.a, r.locals, rlocal{Query: s.Query, Pts: pts})
	}
}

// reportEntry is one weighted entry of Algorithm Report's redistribution:
// a query's points and the range of the run's share list that splits them
// over the output blocks.
type reportEntry struct {
	qid      int32
	pts      []geom.Point
	sh0, sh1 int
}

func (r *reportRun) finish(pr *cgm.Proc) {
	ps, a := r.ps, r.a
	p := pr.P()

	// Phase D (Algorithm Report): weigh every selected tree by its leaf
	// count, prefix-sum the weights, and redistribute so each processor
	// materializes a contiguous ~k/p block of output.
	myWeight := 0
	for _, o := range r.orders {
		myWeight += int(ps.info[int(o.Elem)].Count)
	}
	for _, l := range r.locals {
		myWeight += len(l.Pts)
	}
	off, totalK := comm.CountScan(pr, searchLabels.weights, myWeight)
	for i := range r.orders {
		r.orders[i].Off = off
		off += int(ps.info[int(r.orders[i].Elem)].Count)
	}
	for i := range r.locals {
		r.locals[i].Off = off
		off += len(r.locals[i].Pts)
	}

	// Whole-element orders fetch their points from the owner.
	fetched := comm.SegmentedGather(pr, searchLabels.fetch, r.orders, func(o rorder) int {
		return int(ps.info[int(o.Elem)].Owner)
	})

	// Ship every entry's points to the processors owning its output
	// positions (the segmented broadcast of Algorithm Report step 4).
	// The entries are split first and the rows sized from the split, so
	// each destination's row is carved once at its final length. Entries
	// are disjoint in output positions, which bounds the share list.
	entries := cgm.Alloc[reportEntry](a, len(r.locals)+len(fetched))[:0]
	shares := cgm.Alloc[balance.Share](a, len(r.locals)+len(fetched)+p)[:0]
	add := func(qid int32, pts []geom.Point, off int) {
		sh0 := len(shares)
		shares = balance.SplitWeighted(shares, off, len(pts), totalK, p)
		entries = append(entries, reportEntry{qid: qid, pts: pts, sh0: sh0, sh1: len(shares)})
	}
	for _, l := range r.locals {
		add(l.Query, l.Pts, l.Off)
	}
	if r.resident && len(fetched) > 0 {
		// The owner's points live in its resident part: one step call
		// materializes every ordered element (this rank owns them all).
		ids := cgm.Alloc[ElemID](a, len(fetched))
		for i, o := range fetched {
			ids[i] = o.Elem
		}
		parts := cgm.CallResident[fetchArgs, [][]geom.Point](pr, fref("points/fetch"), fetchArgs{Elems: ids})
		for i, o := range fetched {
			add(o.Query, parts[i], o.Off)
		}
	} else {
		for _, o := range fetched {
			add(o.Query, ps.elems[o.Elem].pts, o.Off) // fetch orders always target the owner
		}
	}
	sizes := cgm.Alloc[int](a, p)
	for _, e := range entries {
		for _, sh := range shares[e.sh0:e.sh1] {
			sizes[sh.Proc] += sh.Hi - sh.Lo
		}
	}
	out := cgm.Alloc[[]ReportPair](a, p)
	for j, n := range sizes {
		out[j] = cgm.Alloc[ReportPair](a, n)[:0]
	}
	for _, e := range entries {
		for _, sh := range shares[e.sh0:e.sh1] {
			for _, pt := range e.pts[sh.Lo:sh.Hi] {
				out[sh.Proc] = append(out[sh.Proc], ReportPair{Query: e.qid, Pt: pt})
			}
		}
	}
	in := cgm.Exchange(pr, searchLabels.pairs, out)
	total := 0
	for _, part := range in {
		total += len(part)
	}
	mine := cgm.Alloc[ReportPair](a, total)[:0]
	for _, part := range in {
		mine = append(mine, part...)
	}
	r.st.PairsEmitted = len(mine)
	*r.mine = mine
}

// reportBlocks is the caller-side half of the report kind, kept with the
// tree's frame: each rank's balanced pair block as the run leaves it, the
// per-rank pair counts of the last report batch, and the grouping's
// scratch, which each batch sizes.
type reportBlocks struct {
	perProc [][]ReportPair
	counts  []int
	// grouping scratch, per query: pair counts and the growing groups.
	sizes    []int
	perQuery [][]geom.Point
}

func newReportBlocks(p int) reportBlocks {
	return reportBlocks{perProc: make([][]ReportPair, p), counts: make([]int, p)}
}

// groupScratch returns buf as n zeroed elements, grown when too small.
// At 32 B a query the two vectors stay as large as the largest batch the
// frame has grouped; trimming is the arenas' business, not theirs.
func groupScratch[E any](buf []E, n int) []E {
	if cap(buf) < n {
		return make([]E, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// groupReports groups the distributed (q, l) pairs by query for the
// caller, each group sorted by point ID; only report queries have pairs.
// The algorithm's deliverable — every pair on some processor, balanced to
// O(k/p) each — is what the machine run produced and what the metrics
// measure; this grouping is a convenience step outside the measured
// algorithm.
func groupReports[T any](rb *reportBlocks, results []MixedResult[T]) {
	total := 0
	for rank, pairs := range rb.perProc {
		rb.counts[rank] = len(pairs)
		total += len(pairs)
	}
	if total == 0 {
		return // results are born empty
	}
	rb.sizes = groupScratch(rb.sizes, len(results))
	rb.perQuery = groupScratch(rb.perQuery, len(results))
	for _, pairs := range rb.perProc {
		for _, pair := range pairs {
			rb.sizes[pair.Query]++
		}
	}
	for q, n := range rb.sizes {
		if n > 0 {
			rb.perQuery[q] = make([]geom.Point, 0, n)
		}
	}
	for _, pairs := range rb.perProc {
		for _, pair := range pairs {
			rb.perQuery[pair.Query] = append(rb.perQuery[pair.Query], pair.Pt)
		}
	}
	for qi, pts := range rb.perQuery {
		slices.SortFunc(pts, func(a, b geom.Point) int { return int(a.ID) - int(b.ID) })
		results[qi].Pts = pts
	}
	// The groups are the caller's now, and the pair blocks die with the
	// run's arenas.
	clear(rb.perQuery)
	clear(rb.perProc)
}

// ReportBatch answers every query in report mode and groups the pairs by
// query for the caller.
func (t *Tree) ReportBatch(boxes []geom.Box) [][]geom.Point {
	return oneKind[struct{}](t, nil, OpReport, boxes, func(r MixedResult[struct{}]) []geom.Point { return r.Pts })
}

// ReportBatchBalance additionally reports how many pairs each processor
// materialized (the k/p balance of Theorem 4).
func (t *Tree) ReportBatchBalance(boxes []geom.Box) ([][]geom.Point, []int) {
	if len(boxes) == 0 {
		return nil, make([]int, t.P())
	}
	pts := t.ReportBatch(boxes)
	return pts, slices.Clone(mixedFrameOf[struct{}](t).rep.counts)
}
