package core

import (
	"fmt"
	"slices"

	"repro/internal/balance"
	"repro/internal/cgm"
	"repro/internal/comm"
	"repro/internal/exec"
	"repro/internal/geom"
	"repro/internal/psort"
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
	CopiedPoints  int   // element points this processor shipped by value as an owner
	ByRefPoints   int   // element points its ID-only references stood in for
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
	pairs []qcount
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
	el := r.ps.part.lookup(s.Elem)
	r.pairs = cgm.Append(r.a, r.pairs, qcount{Query: s.Query, Val: int64(el.tree.Count(s.Box))})
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
	// elemRoot[e] is f folded over all points of element e (replicated).
	elemRoot []T
	// hatTab[rank][treeID][node] annotates last-dimension hat trees.
	hatTab []map[int32][]T
	// parts[rank] are the rank's element annotations on a fabric tree (a
	// resident part holds its own, by name; the entries stay nil).
	parts []*partAgg[T]
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
		t:        t,
		name:     name,
		m:        mo,
		elemRoot: make([]T, t.ElemCount()),
		hatTab:   make([]map[int32][]T, p),
		parts:    make([]*partAgg[T], p),
	}
	t.mach.Run(func(pr *cgm.Proc) {
		ps := t.procs[pr.Rank()]
		var roots []aggRoot[T]
		if ps.part == nil {
			roots = cgm.CallResident[aggPrepArgs, []aggRoot[T]](pr, fref("assoc/prepare"), aggPrepArgs{Name: name})
		} else {
			h.parts[pr.Rank()] = newPartAgg(mo, val)
			roots = h.parts[pr.Rank()].prepare(ps.part)
		}
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
// annotations, subqueries query the per-element annotations (phase B
// annotates the copies a host installs), and partials combine at each
// query's home. pa is the rank's part of the handle, fetched once per
// run (nil on a resident tree).
type assocRun[T any] struct {
	a     *cgm.Arena
	h     *AggHandle[T]
	pa    *partAgg[T]
	ps    *procState
	pairs []qvalT[T]
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

func (r *assocRun[T]) answerSub(s subquery) {
	v, err := r.pa.query(s)
	if err != nil {
		panic(err.Error())
	}
	r.pairs = cgm.Append(r.a, r.pairs, qvalT[T]{Query: s.Query, Val: v})
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
	Off   int // output offset: in the rank's block (weigh), then global
}

// rlocal is one served subquery's report hits, awaiting redistribution.
type rlocal struct {
	Query int32
	Pts   []geom.Point
	Off   int // output offset in the rank's block (weigh)
}

// reportRun materializes (q, l) pairs: hat selections become whole-element
// orders, subqueries report locally, and finish redistributes everything
// so each processor holds a contiguous ~k/p block of output (Algorithm
// Report / Theorem 4). Orders, local hits and the redistributed pairs all
// live in the rank's arena: groupReports copies the pairs into the
// caller's result slices before the next run recycles them.
type reportRun struct {
	a      *cgm.Arena
	ps     *procState
	st     *SearchStats
	mine   *[]ReportPair // where finish leaves this rank's pair block
	orders []rorder
	locals []rlocal
	rv     reportVisitor // reused across served subqueries
	stubs  []ElemID      // reused stub-expansion buffer
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

// pointViews carves a header per point of blk from arena a, each X a
// capacity-clipped view into the block's coordinates.
func pointViews(a *cgm.Arena, blk *geom.Block) []geom.Point {
	pts := cgm.Alloc[geom.Point](a, blk.Len())
	for i := range pts {
		pts[i] = blk.Point(i)
	}
	return pts
}

func (r *reportRun) answerSub(s subquery) {
	el := r.ps.part.lookup(s.Elem)
	if pts := elemReport(el, s.Box, &r.rv); len(pts) > 0 {
		r.locals = cgm.Append(r.a, r.locals, rlocal{Query: s.Query, Pts: pts})
	}
}

// absorbHits takes a resident reply's hit block into the run's locals.
func (r *reportRun) absorbHits(h hitBlock) {
	if len(h.Runs) == 0 {
		return
	}
	pts := pointViews(r.a, &h.Block)
	r.locals = cgm.Grow(r.a, r.locals, len(h.Runs))
	for _, run := range h.Runs {
		n := int(run.N)
		r.locals = append(r.locals, rlocal{Query: run.Query, Pts: pts[:n:n]})
		pts = pts[n:]
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

// weigh is the report kind's share of phase D's first superstep
// (Algorithm Report): every selected tree weighs its leaf count, and the
// rank's output block lists the whole-element orders, then the served
// hits. It numbers both within the block and returns the block's weight.
func (r *reportRun) weigh() int {
	off := 0
	for i := range r.orders {
		r.orders[i].Off = off
		off += int(r.ps.info[int(r.orders[i].Elem)].Count)
	}
	for i := range r.locals {
		r.locals[i].Off = off
		off += len(r.locals[i].Pts)
	}
	return off
}

// deliver is the rest of phase D for reports, once the weights are
// prefix-summed (prefix is this rank's output offset, totalK the batch's
// output size) and the orders sit with their elements' owners (fetched,
// offsets global): every processor materializes a contiguous ~k/p block
// of output.
func (r *reportRun) deliver(pr *cgm.Proc, prefix, totalK int, fetched []rorder) {
	ps, a := r.ps, r.a
	p := pr.P()

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
		add(l.Query, l.Pts, prefix+l.Off)
	}
	if len(fetched) > 0 {
		// One read of the owner's part materializes every ordered element
		// (fetch orders always target the owner).
		ids := cgm.Alloc[ElemID](a, len(fetched))
		for i, o := range fetched {
			ids[i] = o.Elem
		}
		parts := onPartIn(pr, ps.part, "points/fetch", fetchArgs{Elems: ids},
			func(part *forestPart, _ *exec.Ctx, args fetchArgs) ([]geom.Block, error) {
				return part.points(a, args.Elems)
			})
		for i, o := range fetched {
			add(o.Query, pointViews(a, &parts[i]), o.Off)
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
// ordinal of each block's first pair in the last report batch (then the
// batch's pair total), and the grouping's scratch, which each batch sizes.
type reportBlocks struct {
	perProc [][]ReportPair
	starts  []int
	// grouping scratch: per query, pair counts and the growing groups; per
	// pair, the packed sort words and the radix kernel's other vector.
	sizes     []int
	perQuery  [][]geom.Point
	keys, buf []uint64
}

func newReportBlocks(p int) reportBlocks {
	return reportBlocks{perProc: make([][]ReportPair, p), starts: make([]int, p+1)}
}

// groupScratch returns buf as n zeroed elements, grown when too small.
// At 32 B a query and 16 B a pair the vectors stay as large as the largest
// batch the frame has grouped; trimming is the arenas' business, not
// theirs.
func groupScratch[E any](buf []E, n int) []E {
	if cap(buf) < n {
		return make([]E, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// groupReports groups the distributed (q, l) pairs by query for the
// caller, each group in ascending point ID (pairs of equal ID in pair
// order); only report queries have pairs. The algorithm's deliverable —
// every pair on some processor, balanced to O(k/p) each — is what the
// machine run produced and what the CGM metrics measure. This grouping
// runs on the caller after the run: it adds no round, h or volume, but
// every report batch waits for it, so it is linear in the pairs. Each
// pair becomes one word, its ID with the sign bit flipped (so the IDs
// order as unsigned) over its ordinal across the ranks' blocks (2^32
// pairs would be 160 GB of blocks); psort's radix kernel orders the
// words by ID, skipping the ID bytes every pair shares, and one pass in
// that order appends each point to its query's exact-size group.
func groupReports[T any](rb *reportBlocks, results []MixedResult[T]) {
	// The pair blocks die with the run's arenas.
	defer clear(rb.perProc)
	total := 0
	for rank, pairs := range rb.perProc {
		rb.starts[rank] = total
		total += len(pairs)
	}
	rb.starts[len(rb.perProc)] = total
	if total == 0 {
		return // results are born empty
	}
	rb.sizes = groupScratch(rb.sizes, len(results))
	rb.perQuery = groupScratch(rb.perQuery, len(results))
	rb.keys = groupScratch(rb.keys, total)
	rb.buf = groupScratch(rb.buf, total)
	for rank, pairs := range rb.perProc {
		ord := rb.starts[rank]
		for i, pair := range pairs {
			rb.keys[ord+i] = uint64(uint32(pair.Pt.ID)^1<<31)<<32 | uint64(ord+i)
			rb.sizes[pair.Query]++
		}
	}
	for q, n := range rb.sizes {
		if n > 0 {
			rb.perQuery[q] = make([]geom.Point, 0, n)
		}
	}
	ends := rb.starts[1:]
	for _, w := range psort.RadixWords(rb.keys, rb.buf, 32) {
		ord := int(uint32(w))
		rank, _ := slices.BinarySearch(ends, ord+1)
		pair := &rb.perProc[rank][ord-rb.starts[rank]]
		rb.perQuery[pair.Query] = append(rb.perQuery[pair.Query], pair.Pt)
	}
	for qi, pts := range rb.perQuery {
		results[qi].Pts = pts
	}
	clear(rb.perQuery) // the groups are the caller's now
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
	starts := mixedFrameOf[struct{}](t).rep.starts
	counts := make([]int, t.P())
	for rank := range counts {
		counts[rank] = starts[rank+1] - starts[rank]
	}
	return pts, counts
}
