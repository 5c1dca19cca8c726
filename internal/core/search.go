package core

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"time"

	"repro/internal/balance"
	"repro/internal/cgm"
	"repro/internal/comm"
	"repro/internal/geom"
	"repro/internal/layered"
	"repro/internal/segtree"
)

// Query is one box query of the batch Q, identified by its index.
type Query struct {
	ID  int32
	Box geom.Box
}

// hatSel is a selection made inside the replicated hat (Algorithm Search
// step 1): either a hat-internal node of a last-dimension tree whose whole
// leaf set matches (Elem == -1), or a whole forest element selected at its
// stub (Elem ≥ 0).
type hatSel struct {
	Query int32
	Tree  int32
	Node  int32
	Elem  ElemID
}

// subquery is a query that "needs to visit a node in F" (the paper's Q″):
// it must continue inside forest element Elem.
type subquery struct {
	Query int32
	Elem  ElemID
	Box   geom.Box
}

// hatSink consumes the outcomes of one hat descent: selections resolved
// inside the replicated hat and crossings into the forest. An interface
// (rather than a closure pair) keeps the innermost loop of phase A free of
// per-query closure allocations.
type hatSink interface {
	hatSelection(q Query, s hatSel)
	forestSub(s subquery)
}

// funcHatSink adapts closures to hatSink for the single-query paths.
type funcHatSink struct {
	sel func(hatSel)
	sub func(subquery)
}

func (f *funcHatSink) hatSelection(_ Query, s hatSel) { f.sel(s) }
func (f *funcHatSink) forestSub(s subquery)           { f.sub(s) }

// hatSearch advances one query through the hat replica: the four-case
// descent of §4 over the truncated trees, run iteratively over the
// procState's reused stack. Reusing the stack makes this non-reentrant
// per procState — it is the batch path, where each rank's goroutine owns
// its procState; callers outside a machine run use hatSearchFunc, which
// descends over a local stack.
func (ps *procState) hatSearch(t *Tree, q Query, sink hatSink) {
	ps.hatStack = hatDescend(t, ps.hat, q, sink, ps.hatStack)
}

// hatSearchFunc is the closure-friendly wrapper used off the hot path
// (single-query algorithms). Its stack is local, so it is safe on any
// goroutine even while a batch runs.
func (ps *procState) hatSearchFunc(t *Tree, q Query, sel func(hatSel), sub func(subquery)) {
	sink := funcHatSink{sel: sel, sub: sub}
	hatDescend(t, ps.hat, q, &sink, nil)
}

// hatDescend is the descent core. A frame names (tree, node); crossing
// into the next dimension (case 1) pushes the descendant tree's root, so
// one stack serves all d dimensions. The (emptied) stack is returned for
// reuse by the caller.
func hatDescend(t *Tree, hat []*HatTree, q Query, sink hatSink, stack []hatFrame) []hatFrame {
	if q.Box.Dims() != t.dims {
		panic(fmt.Sprintf("core: query %d has %d dims, tree has %d", q.ID, q.Box.Dims(), t.dims))
	}
	stack = stack[:0]
	stack = append(stack, hatFrame{tree: 0, node: int32(hat[0].Shape.Root())})
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		ht := hat[f.tree]
		iv := q.Box.Dim(int(ht.Dim))
		if iv.Empty() {
			continue
		}
		nd, ok := ht.Node(int(f.node))
		if !ok {
			continue // no real points below
		}
		span := geom.Interval{Lo: nd.Min, Hi: nd.Max}
		if !iv.Overlaps(span) {
			continue // case 4: disjoint — the query is deleted here
		}
		last := int(ht.Dim) == t.dims-1
		if nd.Elem >= 0 {
			// The query reaches a leaf of the hat. If the whole stub
			// matches in the last dimension the element is selected
			// outright; otherwise the query must continue in F.
			if last && iv.ContainsInterval(span) {
				sink.hatSelection(q, hatSel{Query: q.ID, Tree: f.tree, Node: f.node, Elem: nd.Elem})
			} else {
				sink.forestSub(subquery{Query: q.ID, Elem: nd.Elem, Box: q.Box})
			}
			continue
		}
		if iv.ContainsInterval(span) {
			if last {
				// Case 2: select the segment tree rooted at v.
				sink.hatSelection(q, hatSel{Query: q.ID, Tree: f.tree, Node: f.node, Elem: -1})
			} else {
				// Case 1: proceed to the next dimension.
				stack = append(stack, hatFrame{tree: nd.Desc, node: int32(hat[nd.Desc].Shape.Root())})
			}
			continue
		}
		// Case 3: split into the two children (left popped first).
		stack = append(stack,
			hatFrame{tree: f.tree, node: int32(segtree.Right(int(f.node)))},
			hatFrame{tree: f.tree, node: int32(segtree.Left(int(f.node)))})
	}
	return stack // empty; capacity kept for the next query
}

// stubsUnder appends the elements of every stub below hat node v of tree
// id (inclusive) — the expansion Report mode uses when a hat-internal node
// is selected: all forest elements below it are selected whole. The
// descent is iterative over a reused stack, emitting in left-to-right
// order.
func (ps *procState) stubsUnder(id int32, v int, out []ElemID) []ElemID {
	ht := ps.hat[id]
	stack := ps.stubStack[:0]
	stack = append(stack, int32(v))
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd, ok := ht.Node(int(v))
		if !ok {
			continue
		}
		if nd.Elem >= 0 {
			out = append(out, nd.Elem)
			continue
		}
		stack = append(stack, int32(segtree.Right(int(v))), int32(segtree.Left(int(v))))
	}
	ps.stubStack = stack
	return out
}

// shippedElem is one element copy in flight. By value it carries the
// replicated metadata plus the element's point block; a reference (Ref)
// carries only Info.ID and resolves against the host's copy cache. Ref is
// an explicit flag, not a nil block.
type shippedElem struct {
	Info ElemInfo
	Pts  *geom.Block
	Ref  bool
}

// hostShip is one destination's share of an owner's phase-B deposit: the
// elements to ship, in increasing ID order, and for each whether it goes
// as a reference.
type hostShip struct {
	Host  int32
	Elems []ElemID
	Refs  []bool
}

// hostSet holds one bitset of the p hosts per forest element, carved
// from the run arena: the hosts an owner ships each of its elements to.
type hostSet struct {
	words int
	bits  []uint64
}

func newHostSet(a *cgm.Arena, elems, p int) hostSet {
	w := (p + 63) / 64
	return hostSet{words: w, bits: cgm.Alloc[uint64](a, elems*w)}
}

// row returns element id's bitset.
func (hs hostSet) row(id ElemID) []uint64 { return hs.bits[int(id)*hs.words:][:hs.words] }

func (hs hostSet) add(id ElemID, host int) { hs.row(id)[host/64] |= 1 << (host % 64) }

// planShips is phase B's one shipping decision, on both residencies:
// every owned element (increasing) goes to each host of its set except
// the owner itself (the owner is its own copy) — as an ID-only reference
// where the host advertised the element in this batch's demand round, by
// value otherwise. The plan is built in arena a.
func planShips(a *cgm.Arena, p, rank int, owned []ElemID, hosts hostSet, adverts [][]elemDemand) []hostShip {
	byHost := cgm.Alloc[hostShip](a, p)
	for _, id := range owned {
		for w, word := range hosts.row(id) {
			for ; word != 0; word &= word - 1 {
				host := w*64 + bits.TrailingZeros64(word)
				if host == rank {
					continue
				}
				hs := &byHost[host]
				if hs.Elems == nil {
					hs.Host = int32(host)
					hs.Elems = cgm.Alloc[ElemID](a, len(owned))[:0]
					hs.Refs = cgm.Alloc[bool](a, len(owned))[:0]
				}
				_, cached := slices.BinarySearchFunc(adverts[host], id,
					func(d elemDemand, id ElemID) int { return cmp.Compare(d.Elem, id) })
				hs.Elems = append(hs.Elems, id)
				hs.Refs = append(hs.Refs, cached)
			}
		}
	}
	return slices.DeleteFunc(byHost, func(hs hostShip) bool { return len(hs.Elems) == 0 })
}

// copyNote is the ship side's volume: points that travelled and points a
// reference stood in for.
type copyNote struct {
	CopiedPts int
	RefPts    int
}

// routeRow is one row of phase C's superstep, which carries Search steps
// 3 and 4 at once: an element copy (Copy, pointing into one slab per row
// block), or a routed subquery (Copy nil). Every row is one element of
// the round, as it was in separate copies and route rounds; a row block
// to one host lists its copies before its subqueries. A subquery row
// carries no copy inline: subqueries are most of a batch's rows.
type routeRow struct {
	Copy *shippedElem
	Sub  subquery
}

// shipRoute materializes a rank's phase-C deposit from its part (the
// resident emit step passes a nil arena): the planned copies of the owned
// elements, then the routed subqueries. Every planned copy is one row
// whether it goes by value or by reference, so the round's h and volume
// do not depend on the caches. A by-value row carries the owner's
// element block itself, never a view of the row buffer, so what a host
// installs from it outlives the arena: an in-process host builds its copy
// over the owner's block, which no tree writes. The ship note waits on
// the part for the same superstep's collect, which returns it.
func (part *forestPart) shipRoute(a *cgm.Arena, ships []hostShip, routed [][]subquery, p int) ([][]routeRow, error) {
	if len(routed) != p {
		return nil, fmt.Errorf("core: %d routed subquery blocks for p=%d", len(routed), p)
	}
	sizes := cgm.Alloc[int](a, p)
	for _, hs := range ships {
		if hs.Host < 0 || int(hs.Host) >= p || len(hs.Refs) != len(hs.Elems) {
			return nil, fmt.Errorf("core: malformed ship plan for host %d (%d elements, %d flags, p=%d)",
				hs.Host, len(hs.Elems), len(hs.Refs), p)
		}
		sizes[hs.Host] += len(hs.Elems)
	}
	out := cgm.Alloc[[]routeRow](a, p)
	copies := 0
	for j, subs := range routed {
		out[j] = cgm.Alloc[routeRow](a, sizes[j]+len(subs))[:0]
		copies += sizes[j]
	}
	slab := cgm.Alloc[shippedElem](a, copies)[:0]
	var note copyNote
	for _, hs := range ships {
		for i, id := range hs.Elems {
			el, ok := part.elems[id]
			if !ok {
				return nil, fmt.Errorf("core: asked to ship element %d this rank does not own", id)
			}
			if hs.Refs[i] {
				slab = append(slab, shippedElem{Info: ElemInfo{ID: id}, Ref: true})
				note.RefPts += int(el.info.Count)
			} else {
				slab = append(slab, shippedElem{Info: el.info, Pts: el.tree.Points()})
				note.CopiedPts += int(el.info.Count)
			}
			out[hs.Host] = append(out[hs.Host], routeRow{Copy: &slab[len(slab)-1]})
		}
	}
	for j, subs := range routed {
		for _, s := range subs {
			out[j] = append(out[j], routeRow{Sub: s})
		}
	}
	part.shipped = note
	return out, nil
}

// installCopiesReply is what installing one batch's copies reports back:
// the statistics phase B feeds into SearchStats, and the host cache's
// changes for the coordinator-side mirror.
type installCopiesReply struct {
	Held         int
	CacheHits    int
	ByRef        int
	InstallNanos int64
	Ops          []cacheOp
}

// installCopies is the host half of phase C's superstep before any
// subquery is served, the one body for both residencies: the copy rows of
// the column replace the last batch's copies, and each is annotated for
// agg when the batch serves an aggregate (nil otherwise). References
// resolve first — against the cache as the host advertised it, before
// any by-value row can evict — and a reference the cache cannot resolve
// is a diagnostic error, never a silently missing copy. By-value rows are
// then built as layered trees and cached for later batches, bounded
// by cap, and both caches end trimmed to cap. The reply carries the
// rank's ship note too.
func (part *forestPart) installCopies(host, cap int, agg aggPart, incoming [][]routeRow) (installServeReply, error) {
	rep := installServeReply{Note: part.shipped}
	in := &rep.Install
	start := time.Now()
	cache := part.copyCache
	cache.begin()
	clear(part.copies)
	if agg != nil {
		agg.begin()
	}
	install := func(id ElemID, el *element) {
		part.copies[id] = el
		if agg != nil {
			agg.annotateCopy(el, cap)
		}
	}
	for _, col := range incoming {
		for i := range col {
			sh := col[i].Copy
			if sh == nil || !sh.Ref {
				continue
			}
			el, ok := cache.get(sh.Info.ID)
			if !ok {
				return rep, fmt.Errorf("core: phase-B reference to element %d missed on host %d: not among the %d copies its cache holds",
					sh.Info.ID, host, cache.len())
			}
			in.CacheHits++
			in.ByRef++
			install(sh.Info.ID, el)
		}
	}
	for _, col := range incoming {
		for i := range col {
			sh := col[i].Copy
			if sh == nil || sh.Ref {
				continue
			}
			el, ok := cache.get(sh.Info.ID)
			if ok {
				in.CacheHits++
			} else {
				if sh.Pts == nil || sh.Pts.Len() == 0 || sh.Info.Dim < 0 || int(sh.Info.Dim) >= sh.Pts.Dims {
					return rep, fmt.Errorf("core: phase-B copy of element %d for dimension %d holds no point block of that many dimensions",
						sh.Info.ID, sh.Info.Dim)
				}
				el = &element{info: sh.Info, tree: layered.BuildFrom(*sh.Pts, int(sh.Info.Dim))}
				in.Ops = cache.insert(sh.Info.ID, el, cap, in.Ops)
			}
			install(sh.Info.ID, el)
		}
	}
	// A cap lowered below what the cache holds takes hold here, after the
	// batch's references resolved: the evictions ride the ops, so the
	// mirror stops advertising them before the next demand round.
	in.Ops = cache.trim(cap, in.Ops)
	if agg != nil {
		agg.trim(cap)
	}
	in.Held = len(part.copies)
	in.InstallNanos = time.Since(start).Nanoseconds()
	return rep, nil
}

// partitionSubs buckets the subqueries by destination: dest is resolved
// in a first pass (called once per subquery, in order — it may be
// stateful) so the buckets are carved from the arena at their exact final
// size.
func partitionSubs(a *cgm.Arena, p int, subs []subquery, dest func(i int, s subquery) int) [][]subquery {
	counts := cgm.Alloc[int](a, p)
	dests := cgm.Alloc[int32](a, len(subs))
	for i, s := range subs {
		d := dest(i, s)
		dests[i] = int32(d)
		counts[d]++
	}
	routed := cgm.Alloc[[]subquery](a, p)
	for d, c := range counts {
		routed[d] = cgm.Alloc[subquery](a, c)[:0]
	}
	for i, s := range subs {
		routed[dests[i]] = append(routed[dests[i]], s)
	}
	return routed
}

// phaseB implements Algorithm Search steps 2–4 up to the exchange.
// Step 2 all-gathers every rank's demand per forest element; each rank
// sums the rows per owner into the paper's demand vector |QF_j| (group j
// is the part F_j) and plans c_j copies of each part (balance.NewPlan).
// Group j's subqueries are ranked by source rank, then by element, and
// the r-th goes to the host of copy ⌊r·c_j/d_j⌋ (step 4). A copy of F_j
// needs only the elements whose subqueries it serves, so the owner ships
// each element to just those copies' hosts (step 3): the copies are a
// subset of the paper's and the served load is exactly the paper's. It
// returns the owner's ship plan and the partitioned subqueries, which
// phase C's one superstep carries (shipRoute). Every vector and row of
// the phase lives in the rank's run arena; only the balance plan is
// reused procState storage.
//
// The demand all-gather also carries every rank's cached element IDs
// (advertised), so an owner ships points only to hosts that do not
// already hold the copy — no extra round.
func (t *Tree) phaseB(pr *cgm.Proc, ps *procState, subs []subquery) ([]hostShip, [][]subquery) {
	p, a, rank := pr.P(), pr.Arena(), pr.Rank()

	// Step 2: this rank's demand per element as sparse rows in increasing
	// element order, then its advertised IDs. perElem[e] counts this
	// rank's subqueries of e here, and is their next routing rank below.
	perElem := cgm.Alloc[int](a, t.ElemCount())
	touched := cgm.Alloc[ElemID](a, len(subs))[:0]
	for _, s := range subs {
		if perElem[s.Elem] == 0 {
			touched = append(touched, s.Elem)
		}
		perElem[s.Elem]++
	}
	slices.Sort(touched)
	advertised := ps.cached
	local := cgm.Alloc[elemDemand](a, len(touched)+len(advertised))[:0]
	for _, id := range touched {
		local = append(local, elemDemand{Elem: id, Count: int32(perElem[id])})
	}
	for _, id := range advertised {
		local = append(local, elemDemand{Elem: id, Count: advertRow})
	}
	rows := comm.AllGather(pr, searchLabels.demand, local)
	demand := cgm.Alloc[int](a, p)
	adverts := cgm.Alloc[[]elemDemand](a, p)
	for src, row := range rows {
		k := 0
		for ; k < len(row) && row[k].Count != advertRow; k++ {
			demand[ps.info[row[k].Elem].Owner] += int(row[k].Count)
		}
		rows[src], adverts[src] = row[:k], row[k:]
	}
	ps.plan = balance.NewPlan(p, demand, ps.plan)
	plan := ps.plan
	if rank == 0 {
		t.keepDemand(demand) // identical on every processor; keep one
	}

	// Steps 3 and 4: a (source, element) row holds the ranks [lo, next)
	// of its group's subqueries. This rank's own rows give its routing
	// ranks; the rows of the elements it owns mark the hosts of the
	// copies those ranks fall in.
	next := cgm.Alloc[int](a, p)
	hosts := newHostSet(a, t.ElemCount(), p)
	for src, row := range rows {
		for _, d := range row {
			j := int(ps.info[d.Elem].Owner)
			lo := next[j]
			next[j] += int(d.Count)
			if src == rank {
				perElem[d.Elem] = lo
			}
			if j == rank {
				for k, last := plan.Copy(j, lo), plan.Copy(j, next[j]-1); k <= last; k++ {
					hosts.add(d.Elem, plan.CopyHost(j, k))
				}
			}
		}
	}
	dest := func(_ int, s subquery) int {
		r := perElem[s.Elem]
		perElem[s.Elem]++
		return plan.Route(int(ps.info[s.Elem].Owner), r)
	}
	return planShips(a, p, rank, ps.ownedIDs(), hosts, adverts), partitionSubs(a, p, subs, dest)
}

// keepDemand records the batch's per-owner demand vector in tree-owned
// storage (the run's own copy lives in an arena).
func (t *Tree) keepDemand(demand []int) { t.lastDemand = append(t.lastDemand[:0], demand...) }

// bookCopies books one rank's outcome of phase C's copies: the ship note
// and the install reply into the rank's SearchStats and the tree's
// cumulative series, its cache ops keeping ps.cached equal to the cache's
// ID set.
func (t *Tree) bookCopies(ps *procState, rep installServeReply) {
	st := &t.lastStats[ps.rank]
	st.CopiesHeld = rep.Install.Held
	st.CopyCacheHits += rep.Install.CacheHits
	st.CopiesByRef += rep.Install.ByRef
	st.InstallNanos += rep.Install.InstallNanos
	st.CopiedPoints += rep.Note.CopiedPts
	st.ByRefPoints += rep.Note.RefPts
	t.copyShipped.Add(int64(rep.Note.CopiedPts))
	t.copyByRef.Add(int64(rep.Note.RefPts))
	t.copyHits.Add(int64(rep.Install.CacheHits))
	t.installNs.Add(rep.Install.InstallNanos)
	ps.cached = applyCacheOps(ps.cached, rep.Install.Ops)
}

// elemDemand is one row of phase B's demand all-gather: an element's
// sparse demand count, or — Count == advertRow — an element the sending
// rank advertises as cached.
type elemDemand struct {
	Elem  ElemID
	Count int32
}

// advertRow marks an elemDemand row as an advertisement. A rank sends
// its demand rows first, then its advertised IDs in increasing order.
const advertRow int32 = -1
