package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"
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

// BalanceMode selects the granularity of Algorithm Search's replication.
type BalanceMode int

const (
	// GroupLevel is the paper's scheme: the demand unit is a whole
	// processor part F_j, and congested parts are copied wholesale
	// ("make c_j copies of F_j", Search step 3).
	GroupLevel BalanceMode = iota
	// ElementLevel is the finer ablation: demand is counted per forest
	// element and only demanded elements are copied — less shipping
	// volume for sparse demand, at the cost of a larger demand exchange.
	ElementLevel
)

// SetBalanceMode selects the balancing granularity for subsequent batches
// (default GroupLevel, the paper's algorithm).
func (t *Tree) SetBalanceMode(m BalanceMode) { t.balanceMode = m }

// LastCopiedPoints reports how many element points actually travelled as
// phase-B copies in the most recent batch (the E6 volume column): 0 on a
// warm batch, where every copy goes as an ID-only reference to the host's
// cache. The per-rank counters are atomics: processors publish them
// inside the machine run, and this reader may race a batch in flight (it
// then observes a mix of old and new per-rank values, each one coherent).
func (t *Tree) LastCopiedPoints() int { return sumCounters(t.lastCopied) }

// LastByRefPoints reports how many element points the most recent batch
// did NOT ship because the copy went by reference — what a by-value phase
// B would have added to LastCopiedPoints.
func (t *Tree) LastByRefPoints() int { return sumCounters(t.lastByRef) }

func sumCounters(cs []atomic.Int64) int {
	total := 0
	for i := range cs {
		total += int(cs[i].Load())
	}
	return total
}

// shippedElem is one element copy in flight. By value it carries the
// replicated metadata plus the points in leaf order; a reference (Ref)
// carries only Info.ID and resolves against the host's copy cache. Ref is
// an explicit flag, not len(Pts)==0: an empty element is a legal by-value
// copy.
type shippedElem struct {
	Info ElemInfo
	Pts  []geom.Point
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

// planShips is phase B's one shipping decision, shared by both balance
// granularities and both residency modes: every element of elems
// (increasing) goes to each of its hosts except the owner itself (the
// owner is its own copy) — as an ID-only reference where the host
// advertised the element in this batch's demand round, by value
// otherwise. The plan is built in arena a.
func planShips(a *cgm.Arena, p, rank int, elems []ElemID, hostsOf func(ElemID) []int, cached func(host int, id ElemID) bool) []hostShip {
	byHost := cgm.Alloc[hostShip](a, p)
	for _, id := range elems {
		for _, host := range hostsOf(id) {
			if host == rank {
				continue
			}
			hs := &byHost[host]
			if hs.Elems == nil {
				hs.Host = int32(host)
				hs.Elems = cgm.Alloc[ElemID](a, len(elems))[:0]
				hs.Refs = cgm.Alloc[bool](a, len(elems))[:0]
			}
			hs.Elems = append(hs.Elems, id)
			hs.Refs = append(hs.Refs, cached(host, id))
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
// 3 and 4 at once: an element copy, or (IsSub) a routed subquery. Every
// row is one element of the round, as it was in separate copies and route
// rounds; a row block to one host lists its copies before its subqueries.
type routeRow struct {
	Copy  shippedElem
	Sub   subquery
	IsSub bool
}

// shipRoute materializes a rank's phase-C deposit from its part (the
// resident emit step passes a nil arena): the planned copies of the owned
// elements, then the routed subqueries. Every planned copy is one row
// whether it goes by value or by reference, so the round's h and volume
// do not depend on the caches. A by-value row aliases the owner's el.pts,
// never the row buffer, so what a host installs from it outlives the
// arena. The ship note waits on the part for the same superstep's collect,
// which returns it.
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
	for j, subs := range routed {
		out[j] = cgm.Alloc[routeRow](a, sizes[j]+len(subs))[:0]
	}
	var note copyNote
	for _, hs := range ships {
		for i, id := range hs.Elems {
			el, ok := part.elems[id]
			if !ok {
				return nil, fmt.Errorf("core: asked to ship element %d this rank does not own", id)
			}
			var row routeRow
			if hs.Refs[i] {
				row.Copy = shippedElem{Info: ElemInfo{ID: id}, Ref: true}
				note.RefPts += len(el.pts)
			} else {
				row.Copy = shippedElem{Info: el.info, Pts: el.pts}
				note.CopiedPts += len(el.pts)
			}
			out[hs.Host] = append(out[hs.Host], row)
		}
	}
	for j, subs := range routed {
		for _, s := range subs {
			out[j] = append(out[j], routeRow{Sub: s, IsSub: true})
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
// by cap. The reply carries the rank's ship note too.
func (part *forestPart) installCopies(host int, epoch uint64, cap int, agg aggPart, incoming [][]routeRow) (installServeReply, error) {
	rep := installServeReply{Note: part.shipped}
	in := &rep.Install
	start := time.Now()
	cache := part.copyCache
	prior := cache.epoch
	cache.begin(epoch)
	clear(part.copies)
	if agg != nil {
		agg.begin(epoch)
	}
	install := func(id ElemID, el *element) {
		part.copies[id] = el
		if agg != nil {
			agg.annotateCopy(el, cap)
		}
	}
	for _, col := range incoming {
		for i := range col {
			sh := &col[i].Copy
			if col[i].IsSub || !sh.Ref {
				continue
			}
			el, ok := cache.get(sh.Info.ID)
			if !ok {
				return rep, fmt.Errorf("core: phase-B reference to element %d missed on host %d: not among the %d copies cached at batch epoch %d (the cache was at epoch %d before this batch)",
					sh.Info.ID, host, cache.len(), epoch, prior)
			}
			in.CacheHits++
			in.ByRef++
			install(sh.Info.ID, el)
		}
	}
	for _, col := range incoming {
		for i := range col {
			sh := &col[i].Copy
			if col[i].IsSub || sh.Ref {
				continue
			}
			el, ok := cache.get(sh.Info.ID)
			if ok {
				in.CacheHits++
			} else {
				el = &element{info: sh.Info, pts: sh.Pts, tree: layered.BuildFrom(sh.Pts, int(sh.Info.Dim))}
				in.Ops = cache.insert(sh.Info.ID, el, cap, in.Ops)
			}
			install(sh.Info.ID, el)
		}
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

// phaseB implements Algorithm Search steps 2–4 up to the exchange:
// globally count the demand |QF_j| per forest group, plan c_j copies of
// each congested group and their even distribution, and partition Q″ so
// every subquery goes to a processor holding a copy of the element it
// visits. It returns the owner's ship plan, the partitioned subqueries
// and the label of phase C's superstep, which carries both (shipRoute).
// Every vector and row of the phase lives in the rank's run arena; only
// the balance plan is reused procState storage.
//
// The demand all-gather also carries every rank's cached element IDs
// (advertised), so an owner ships points only to hosts that do not
// already hold the copy — no extra round.
func (t *Tree) phaseB(pr *cgm.Proc, ps *procState, subs []subquery) (ships []hostShip, routed [][]subquery, label string) {
	if t.balanceMode == ElementLevel {
		return t.phaseBElement(pr, ps, subs)
	}
	p, a, lbl := pr.P(), pr.Arena(), searchLabels

	// Step 2: globally compute c_j = |QF_j| / (|Q″|/p). The group of a
	// subquery is the owner of its element (the part F_j). A rank's row is
	// its p demand counts, then its advertised IDs in increasing order.
	advertised := ps.advertised(t.batchEpoch)
	local := cgm.Alloc[int](a, p+len(advertised))
	for _, s := range subs {
		local[ps.info[int(s.Elem)].Owner]++
	}
	for i, id := range advertised {
		local[p+i] = int(id)
	}
	matrix := comm.AllGather(pr, lbl.demand, local)
	demand := cgm.Alloc[int](a, p)
	for _, row := range matrix {
		for j, c := range row[:p] {
			demand[j] += c
		}
	}
	ps.plan = balance.NewPlan(p, demand, ps.plan)
	plan := ps.plan
	if pr.Rank() == 0 {
		t.keepDemand(demand) // identical on every processor; keep one
	}

	// Step 3: make c_j copies of F_j and distribute them evenly: the owner
	// ships its whole part to every host of one of its slots.
	hosts := plan.GroupHosts(ps.rank, cgm.Alloc[int](a, p)[:0])
	ships = planShips(a, p, ps.rank, ps.ownedIDs(),
		func(ElemID) []int { return hosts },
		func(host int, id ElemID) bool {
			_, ok := slices.BinarySearch(matrix[host][p:], int(id))
			return ok
		})

	// Step 4: redistribute Q″ so every query sits with a copy of the part
	// it visits; the r-th subquery of group j goes to the host of copy
	// ⌊r·c_j/d_j⌋.
	rankOffset := cgm.Alloc[int](a, p)
	for src := 0; src < pr.Rank(); src++ {
		for j := 0; j < p; j++ {
			rankOffset[j] += matrix[src][j]
		}
	}
	seen := cgm.Alloc[int](a, p)
	dest := func(_ int, s subquery) int {
		j := int(ps.info[int(s.Elem)].Owner)
		r := rankOffset[j] + seen[j]
		seen[j]++
		return plan.Route(j, r)
	}
	return ships, partitionSubs(a, p, subs, dest), lbl.route
}

// keepDemand records the batch's per-owner demand vector in tree-owned
// storage (the run's own copy lives in an arena).
func (t *Tree) keepDemand(demand []int) { t.lastDemand = append(t.lastDemand[:0], demand...) }

// bookCopies books one rank's outcome of phase C's copies: the ship note
// into the copy counters and the install reply into the rank's
// SearchStats, its cache ops keeping ps.cached equal to the cache's ID
// set.
func (t *Tree) bookCopies(ps *procState, rep installServeReply) {
	t.lastCopied[ps.rank].Store(int64(rep.Note.CopiedPts))
	t.lastByRef[ps.rank].Store(int64(rep.Note.RefPts))
	t.copyShipped.Add(int64(rep.Note.CopiedPts))
	t.copyByRef.Add(int64(rep.Note.RefPts))
	st := &t.lastStats[ps.rank]
	st.CopiesHeld = rep.Install.Held
	st.CopyCacheHits += rep.Install.CacheHits
	st.CopiesByRef += rep.Install.ByRef
	st.InstallNanos += rep.Install.InstallNanos
	ps.cached = applyCacheOps(ps.cached, rep.Install.Ops)
}

// elemDemand is one row of the ElementLevel demand all-gather: an
// element's sparse demand count, or — Count == advertRow — an element the
// sending rank advertises as cached.
type elemDemand struct {
	Elem  ElemID
	Count int32
}

// advertRow marks an elemDemand row as an advertisement. A rank sends
// its demand rows first, then its advertised IDs in increasing order.
const advertRow int32 = -1

// phaseBElement is the ElementLevel variant of phaseB: demand, copies and
// routing all work per forest element.
func (t *Tree) phaseBElement(pr *cgm.Proc, ps *procState, subs []subquery) (ships []hostShip, routed [][]subquery, label string) {
	p, a, lbl := pr.P(), pr.Arena(), searchLabels

	// Demand per element, exchanged sparsely, then the advertised IDs.
	// perElem[e] is this rank's demand for e first and its routing offset
	// later; touched lists the demanded elements.
	perElem := cgm.Alloc[int](a, t.ElemCount())
	touched := cgm.Alloc[ElemID](a, len(subs))[:0]
	for _, s := range subs {
		if perElem[s.Elem] == 0 {
			touched = append(touched, s.Elem)
		}
		perElem[s.Elem]++
	}
	slices.Sort(touched)
	advertised := ps.advertised(t.batchEpoch)
	local := cgm.Alloc[elemDemand](a, len(touched)+len(advertised))[:0]
	for _, id := range touched {
		local = append(local, elemDemand{Elem: id, Count: int32(perElem[id])})
		perElem[id] = 0
	}
	for _, id := range advertised {
		local = append(local, elemDemand{Elem: id, Count: advertRow})
	}
	perSrc := comm.AllGather(pr, lbl.edemand, local)
	demand := cgm.Alloc[int](a, t.ElemCount())
	adverts := cgm.Alloc[[]elemDemand](a, p)
	for src, row := range perSrc {
		k := 0
		for ; k < len(row) && row[k].Count != advertRow; k++ {
			demand[int(row[k].Elem)] += int(row[k].Count)
		}
		perSrc[src], adverts[src] = row[:k], row[k:]
	}
	ps.plan = balance.NewPlan(p, demand, ps.plan)
	plan := ps.plan
	if pr.Rank() == 0 {
		// Aggregate to owner granularity so LastDemand stays comparable.
		byOwner := cgm.Alloc[int](a, p)
		for e, d := range demand {
			byOwner[int(ps.info[e].Owner)] += d
		}
		t.keepDemand(byOwner)
	}

	// Ship only demanded elements, each to the hosts of its slots (an
	// undemanded element has none). The fan-out is derived from the
	// replicated metadata, so the resident coordinator can plan it
	// without holding the elements.
	hosts := cgm.Alloc[int](a, p)
	ships = planShips(a, p, ps.rank, ps.ownedIDs(),
		func(id ElemID) []int { return plan.GroupHosts(int(id), hosts[:0]) },
		func(host int, id ElemID) bool {
			_, ok := slices.BinarySearchFunc(adverts[host], id,
				func(d elemDemand, id ElemID) int { return cmp.Compare(d.Elem, id) })
			return ok
		})

	// Route the r-th subquery of element e to the host of copy ⌊r·c_e/d_e⌋:
	// perElem[e] starts at the demand of the ranks before this one and
	// counts this rank's subqueries of e as they are routed.
	for src := 0; src < pr.Rank(); src++ {
		for _, d := range perSrc[src] {
			perElem[d.Elem] += int(d.Count)
		}
	}
	dest := func(_ int, s subquery) int {
		r := perElem[s.Elem]
		perElem[s.Elem]++
		return plan.Route(int(s.Elem), r)
	}
	return ships, partitionSubs(a, p, subs, dest), lbl.eroute
}
