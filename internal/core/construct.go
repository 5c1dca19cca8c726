package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/cgm"
	"repro/internal/comm"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/psort"
	"repro/internal/segtree"
)

// srec is a record of the paper's set S^j: a leaf of a dimension-j segment
// tree that still has to be constructed, carrying the full point and the
// label (PathKey) of the tree it belongs to (Construct step 1/7).
type srec struct {
	Pt  geom.Point
	Key segtree.PathKey
}

// epoint is an element-routed point (Construct step 3).
type epoint struct {
	Elem ElemID
	Pt   geom.Point
}

// elemMeta is the stub metadata broadcast in Construct steps 4–5 so every
// processor can finish its replica of the dimension-j hat trees.
type elemMeta struct {
	Elem     ElemID
	Min, Max geom.Coord
}

// treeSum summarises one dimension-j segment tree during construction.
type treeSum struct {
	Key   segtree.PathKey
	M     int // leaf count
	Start int // global offset of its first leaf in the sorted S^j
	Elem0 ElemID
}

// runSum is a per-processor run of equal-keyed records in the sorted S^j.
type runSum struct {
	Key   segtree.PathKey
	Count int
}

// Build runs Algorithm Construct (§3) on mach with the default element
// backend (the layered tree): it distributes pts in blocks of n/p, then
// constructs the distributed range tree in d phases, each phase sorting
// the segment-tree leaves S^j, routing forest-element groups to their
// owners (k mod p), building forest elements sequentially, broadcasting
// the stub roots, and rebuilding the dimension-j hat layer on every
// processor.
func Build(mach *cgm.Machine, pts []geom.Point) *Tree {
	return BuildBackend(mach, pts, BackendLayered)
}

// BuildBackend runs Algorithm Construct with an explicit element backend
// (forest elements and their phase-B copies are built on it).
func BuildBackend(mach *cgm.Machine, pts []geom.Point, be Backend) *Tree {
	n := len(pts)
	if n == 0 {
		panic("core: empty point set")
	}
	dims := pts[0].Dims()
	if dims < 1 {
		panic("core: points need at least one dimension")
	}
	for i, p := range pts {
		if p.Dims() != dims {
			panic(fmt.Sprintf("core: point %d has %d dims, want %d", i, p.Dims(), dims))
		}
	}
	return BuildFromSource(mach, sliceSource{pts: pts, dims: dims}, be)
}

// BuildWorkerFed builds from a coordinator-held slice but feeds the
// workers directly when the machine is resident: the canonical blocks are
// staged into the ranks' parts first, then construction runs as the
// resident program with only sampling traffic transiting the coordinator.
// On a fabric machine it is exactly BuildBackend. Canonical staging keeps
// the round/h/volume metrics identical to BuildBackend's, which is what
// lets the store compactor switch paths without perturbing measurements.
func BuildWorkerFed(mach *cgm.Machine, pts []geom.Point, be Backend) *Tree {
	if !mach.Resident() {
		return BuildBackend(mach, pts, be)
	}
	src, err := StageBlocks(mach, CanonicalBlocks(pts, mach.P()))
	if err != nil {
		panic(fmt.Sprintf("core: staging worker blocks: %v", err))
	}
	return BuildFromSource(mach, src, be)
}

// newTreeShell allocates the Tree scaffolding every build path shares.
func newTreeShell(mach *cgm.Machine, n, dims int, be Backend) *Tree {
	p := mach.P()
	t := &Tree{
		mach:       mach,
		n:          n,
		dims:       dims,
		resident:   mach.Resident(),
		grain:      (n + p - 1) / p,
		backend:    be,
		procs:      make([]*procState, p),
		lastStats:  make([]SearchStats, p),
		lastCopied: make([]atomic.Int64, p),
		lastByRef:  make([]atomic.Int64, p),

		copyShipped: new(obs.Counter),
		copyByRef:   new(obs.Counter),
	}
	if reg := mach.Obs(); reg != nil {
		t.copyShipped = reg.Counter(`core_phaseb_copy_points_total{how="shipped"}`)
		t.copyByRef = reg.Counter(`core_phaseb_copy_points_total{how="by_ref"}`)
	}
	return t
}

// BuildOn runs Algorithm Construct on a machine supplied by the provider
// — the seam that lets the same construction run on the in-process
// simulator (cgm.LocalProvider) or on a TCP worker cluster
// (transport.Cluster) without the caller holding a machine.
func BuildOn(pv cgm.Provider, pts []geom.Point, be Backend) (*Tree, error) {
	mach, err := pv.NewMachine()
	if err != nil {
		return nil, fmt.Errorf("core: provider machine: %w", err)
	}
	return BuildBackend(mach, pts, be), nil
}

// construct is the per-processor body of Algorithm Construct.
func (t *Tree) construct(pr *cgm.Proc, src PointSource, seeded []int) {
	rank, p := pr.Rank(), pr.P()
	ps := &procState{
		rank:      rank,
		hatByKey:  make(map[segtree.PathKey]int32),
		elems:     make(map[ElemID]*element),
		copies:    make(map[ElemID]*element),
		copyCache: newCopyCache[*element](),
	}
	t.procs[rank] = ps
	if t.resident {
		// Reset the rank's resident part: this machine's forest is about
		// to be built into it (a reused session must not merge forests).
		// Staged ingest blocks survive the reset — they are this build's
		// input.
		cgm.CallResident[beginArgs, bool](pr, fref("construct/begin"), beginArgs{Backend: t.backend})
	}

	if t.resident && src.Held() {
		// The rank's block is already staged worker-side: seed the S^0
		// records where the points live and run the held phases — the
		// point payloads never visit the coordinator.
		seeded[rank] = cgm.CallResident[seedArgs, int](pr, fref("construct/seed"),
			seedArgs{Dims: int8(t.dims)})
		var nextElem ElemID
		for j := 0; j < t.dims; j++ {
			nextElem = t.constructPhaseHeld(pr, ps, j, nextElem)
		}
		return
	}

	// Step 1: each processor starts with an arbitrary block of n/p points;
	// every initial record belongs to the primary tree (index nil).
	block := src.Block(rank, p)
	recs := make([]srec, 0, len(block))
	for _, pt := range block {
		recs = append(recs, srec{Pt: pt, Key: segtree.RootPathKey})
	}

	var nextElem ElemID
	for j := 0; j < t.dims; j++ {
		recs, nextElem = t.constructPhase(pr, ps, recs, j, nextElem)
	}
}

// srecLess orders the S^j records: primary key index (tree label), then
// x_j, ties by point ID for determinism. Shared by the coordinator-side
// sort and the worker-side held-sort steps so the orders cannot drift.
func srecLess(j int) func(a, b srec) bool {
	return func(a, b srec) bool {
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		if a.Pt.X[j] != b.Pt.X[j] {
			return a.Pt.X[j] < b.Pt.X[j]
		}
		return a.Pt.ID < b.Pt.ID
	}
}

// constructPhase builds all dimension-j segment trees: the hat layer
// replicated everywhere and the forest elements at their owners. It
// returns the records of S^(j+1).
func (t *Tree) constructPhase(pr *cgm.Proc, ps *procState, recs []srec, j int, nextElem ElemID) ([]srec, ElemID) {
	p := pr.P()
	lbl := func(step string) string { return fmt.Sprintf("construct/d%d/%s", j, step) }

	// Step 2: globally sort S^j by primary key index (tree label) and
	// secondary key x_j (ties by point ID for determinism). The phase owns
	// recs, so the sort works in it without a defensive copy.
	sorted := psort.SortInPlace(pr, lbl("sort"), recs, srecLess(j))

	// Tree discovery: exchange per-processor runs of equal keys; all
	// processors derive the identical, label-ordered tree summary list.
	allRuns := comm.AllGatherFlat(pr, lbl("runs"), keyRuns(sorted))
	trees := deriveTrees(allRuns)

	nStubs, myInfos := t.enumerateStubs(pr, ps, trees, j, nextElem)

	// Step 3: route every record to the owner of the element containing
	// its global position.
	myOffset, _ := comm.CountScan(pr, lbl("offset"), len(sorted))
	out, err := routeRecords(sorted, trees, t.grain, myOffset, p)
	if err != nil {
		panic(err.Error())
	}
	// Step 4: sequentially construct the owned forest elements. Records
	// arrive rank-major and sorted within each source; element point sets
	// occupy contiguous global ranges, so concatenation is leaf order.
	// On a resident machine the same route superstep delivers its column
	// to the construct/install step instead: the elements are built
	// directly into the rank's resident state (worker memory over TCP)
	// and only the stub metadata comes back.
	var metas []elemMeta
	var grouped map[ElemID][]geom.Point
	if t.resident {
		metas = cgm.ExchangeCollect[epoint, constructInstallArgs, []elemMeta](
			pr, lbl("route"), out, fref("construct/install"),
			constructInstallArgs{Backend: t.backend, Infos: myInfos})
	} else {
		incoming := cgm.Exchange(pr, lbl("route"), out)
		var err error
		grouped, metas, err = buildForestElements(t.backend,
			func(id ElemID) (ElemInfo, bool) { return ps.info[int(id)], true }, // dense ids: index == id
			incoming, func(el *element) { ps.elems[el.info.ID] = el })
		if err != nil {
			panic(err.Error())
		}
	}

	// Steps 4–5: all-to-all broadcast of the forest roots (the hat's
	// leaves); every processor completes its dimension-j hat trees.
	t.finishPhase(pr, ps, trees, metas, j, lbl)

	// Step 7: create S^(j+1): every record walks from its stub's parent to
	// the root of its segment tree, creating one record per hat-internal
	// ancestor u with index path(u). Resident machines compute the records
	// where the points live and return them for the next phase's sort.
	var next []srec
	if j+1 < t.dims {
		if t.resident {
			next = cgm.CallResident[nextArgs, []srec](pr, fref("construct/next"), nextArgs{Dim: int8(j)})
		} else {
			for _, id := range sortedElemIDs(grouped) {
				next = nextDimRecords(ps.elems[id], next)
			}
		}
	}
	return next, nextElem + ElemID(nStubs)
}

// constructPhaseHeld is constructPhase with the S^j records held in the
// ranks' resident parts: the sample sort's local phases, the record
// exchanges and the element routing all run as registered program steps,
// while the coordinator's collectives carry only the p² regular samples,
// the splitters, the run/offset counts and the replicated stub metadata —
// O(p²) per phase, independent of n. The label sequence and per-rank
// element counts are identical to constructPhase's, so a canonically
// staged build produces byte-identical Metrics.
func (t *Tree) constructPhaseHeld(pr *cgm.Proc, ps *procState, j int, nextElem ElemID) ElemID {
	p := pr.P()
	lbl := func(step string) string { return fmt.Sprintf("construct/d%d/%s", j, step) }
	dim := dimArgs{Dim: int8(j)}

	// Step 2 (sample sort, records held): local sort and sample selection
	// run worker-side; only the samples are gathered, every rank derives
	// the identical splitters, and the partition/merge and rebalance
	// supersteps move the records worker-to-worker.
	sl := cgm.CallResident[dimArgs, sortLocalReply](pr, fref("construct/sortLocal"), dim)
	allSamples := comm.AllGatherFlat(pr, lbl("sort")+"/sample", sl.Samples)
	splitters := psort.Splitters(allSamples, p, srecLess(j))
	_, merged := cgm.ExchangeSteps[wsortPartArgs, dimArgs, lenReply](pr, lbl("sort")+"/route",
		fref("construct/wsortPart"), wsortPartArgs{Dim: int8(j), Splitters: splitters},
		fref("construct/wsortMerge"), dim)
	offset, total := comm.CountScan(pr, lbl("sort")+"/balance/count", merged.Len)
	_, bal := cgm.ExchangeSteps[wsortBalanceArgs, bool, balanceReply](pr, lbl("sort")+"/balance",
		fref("construct/wsortSplit"), wsortBalanceArgs{Offset: offset, Total: total},
		fref("construct/wsortGather"), false)

	// Tree discovery from the worker-computed key runs; stub enumeration
	// stays replicated coordinator-side (it is metadata, not points).
	allRuns := comm.AllGatherFlat(pr, lbl("runs"), bal.Runs)
	trees := deriveTrees(allRuns)
	nStubs, myInfos := t.enumerateStubs(pr, ps, trees, j, nextElem)

	// Step 3–4: the routing loop runs where the records live; the routed
	// points go worker-to-worker into the install collect.
	myOffset, _ := comm.CountScan(pr, lbl("offset"), bal.Len)
	_, metas := cgm.ExchangeSteps[routeHeldArgs, constructInstallArgs, []elemMeta](pr, lbl("route"),
		fref("construct/routeHeld"), routeHeldArgs{Trees: trees, Grain: t.grain, Offset: myOffset},
		fref("construct/install"), constructInstallArgs{Backend: t.backend, Infos: myInfos})

	t.finishPhase(pr, ps, trees, metas, j, lbl)

	// Step 7: the S^(j+1) records are computed AND kept worker-side; only
	// their count returns.
	if j+1 < t.dims {
		cgm.CallResident[nextArgs, int](pr, fref("construct/nextHeld"), nextArgs{Dim: int8(j)})
	}
	return nextElem + ElemID(nStubs)
}

// keyRuns summarises the locally sorted records as runs of equal keys —
// the tree-discovery rows of Construct step 2.
func keyRuns(sorted []srec) []runSum {
	var runs []runSum
	for i := 0; i < len(sorted); {
		k := sorted[i].Key
		c := 0
		for i < len(sorted) && sorted[i].Key == k {
			i++
			c++
		}
		runs = append(runs, runSum{Key: k, Count: c})
	}
	return runs
}

// deriveTrees merges the gathered runs (rank-major, each rank's runs in
// key order) into the label-ordered tree summary list with global start
// offsets — identical on every processor.
func deriveTrees(allRuns []runSum) []treeSum {
	var trees []treeSum
	for _, r := range allRuns {
		if len(trees) > 0 && trees[len(trees)-1].Key == r.Key {
			trees[len(trees)-1].M += r.Count
		} else {
			trees = append(trees, treeSum{Key: r.Key, M: r.Count})
		}
	}
	start := 0
	for i := range trees {
		trees[i].Start = start
		start += trees[i].M
	}
	return trees
}

// enumerateStubs performs the replicated, deterministic stub enumeration:
// elements are numbered in (tree label, position) order and owned by
// P_(id mod p) — Construct step 3's "route the k-th group to processor
// P_(k mod p)". It assigns every tree's Elem0, appends the phase's
// ElemInfo records to ps.info, and returns the stub count plus this
// rank's owned share (the resident install metadata).
func (t *Tree) enumerateStubs(pr *cgm.Proc, ps *procState, trees []treeSum, j int, nextElem ElemID) (int, []ElemInfo) {
	p := pr.P()
	type stubRef struct {
		tree int
		stub segtree.Stub
	}
	var stubs []stubRef
	for ti := range trees {
		shape := segtree.NewShape(trees[ti].M)
		trees[ti].Elem0 = nextElem + ElemID(len(stubs))
		for _, st := range shape.Stubs(t.grain) {
			stubs = append(stubs, stubRef{tree: ti, stub: st})
		}
	}
	var myInfos []ElemInfo // this rank's share of the phase (resident install)
	for si, sr := range stubs {
		id := nextElem + ElemID(si)
		info := ElemInfo{
			ID:    id,
			Owner: int32(int(id) % p),
			Count: int32(sr.stub.Count),
			Dim:   int8(j),
			Key:   trees[sr.tree].Key.Extend(sr.stub.Node),
		}
		ps.info = append(ps.info, info)
		if t.resident && int(info.Owner) == ps.rank {
			myInfos = append(myInfos, info)
		}
	}
	return len(stubs), myInfos
}

// routeRecords is Construct step 3's routing loop, shared by the
// coordinator-side phase and the resident routeHeld emit: every globally
// sorted record (this rank's run starting at global position offset) goes
// to the owner of the element whose stub contains its position. The
// elements are resolved first and counted per owner, so the buckets are
// carved at their final sizes from one array.
func routeRecords(sorted []srec, trees []treeSum, grain, offset, p int) ([][]epoint, error) {
	ids := make([]ElemID, len(sorted))
	counts := make([]int, p)
	ti := 0
	var treeStubs []segtree.Stub
	loadStubs := func(ti int) {
		treeStubs = segtree.NewShape(trees[ti].M).Stubs(grain)
	}
	if len(trees) > 0 {
		loadStubs(0)
	}
	for i, r := range sorted {
		g := offset + i
		for g >= trees[ti].Start+trees[ti].M {
			ti++
			loadStubs(ti)
		}
		if r.Key != trees[ti].Key {
			return nil, fmt.Errorf("core: construct routing lost tree alignment")
		}
		pos := g - trees[ti].Start
		ids[i] = trees[ti].Elem0 + ElemID(segtree.StubContaining(treeStubs, pos))
		counts[int(ids[i])%p]++
	}
	out := make([][]epoint, p)
	buf := make([]epoint, len(sorted))
	for owner, c := range counts {
		out[owner], buf = buf[:0:c], buf[c:]
	}
	for i, r := range sorted {
		owner := int(ids[i]) % p
		out[owner] = append(out[owner], epoint{Elem: ids[i], Pt: r.Pt})
	}
	return out, nil
}

// finishPhase is Construct steps 4–5's tail: all-to-all broadcast of the
// forest roots (the hat's leaves), span fill-in, and the replicated
// dimension-j hat build.
func (t *Tree) finishPhase(pr *cgm.Proc, ps *procState, trees []treeSum, metas []elemMeta, j int, lbl func(string) string) {
	allMetas := comm.AllGatherFlat(pr, lbl("roots"), metas)
	for _, mt := range allMetas {
		ps.info[int(mt.Elem)].Min = mt.Min
		ps.info[int(mt.Elem)].Max = mt.Max
	}
	for _, el := range ps.elems { // owner's own replica also needs spans
		el.info = ps.info[int(el.info.ID)]
	}
	for ti := range trees {
		t.buildHatTree(ps, trees[ti], j)
	}
}

// buildForestElements is Construct step 4's body, shared by the fabric
// branch and the resident install step (one policy, one source of
// truth): group the phase's routed records by element, validate counts
// against the replicated metadata, build the sequential trees, and
// return the grouped points plus the stub metadata sorted by element.
// Records arrive rank-major and sorted within each source; element
// point sets occupy contiguous global ranges, so concatenation is leaf
// order. Each element's points go into a slice of the capacity its
// metadata declares, one map update per run of equal elements.
func buildForestElements(be Backend, infoOf func(ElemID) (ElemInfo, bool), incoming [][]epoint,
	install func(*element)) (map[ElemID][]geom.Point, []elemMeta, error) {
	grouped := make(map[ElemID][]geom.Point)
	for _, part := range incoming {
		for i := 0; i < len(part); {
			id := part[i].Elem
			epts, ok := grouped[id]
			if !ok {
				info, _ := infoOf(id) // an unknown element is reported below
				epts = make([]geom.Point, 0, info.Count)
			}
			for ; i < len(part) && part[i].Elem == id; i++ {
				epts = append(epts, part[i].Pt)
			}
			grouped[id] = epts
		}
	}
	var metas []elemMeta
	for id, epts := range grouped {
		info, ok := infoOf(id)
		if !ok {
			return nil, nil, fmt.Errorf("core: routed points for element %d this rank does not own", id)
		}
		if int32(len(epts)) != info.Count {
			return nil, nil, fmt.Errorf("core: element %d received %d points, expected %d", id, len(epts), info.Count)
		}
		j := int(info.Dim)
		install(&element{info: info, pts: epts, tree: buildElemTree(be, epts, j)})
		metas = append(metas, elemMeta{Elem: id, Min: epts[0].X[j], Max: epts[len(epts)-1].X[j]})
	}
	slices.SortFunc(metas, func(a, b elemMeta) int { return cmp.Compare(a.Elem, b.Elem) })
	return grouped, metas, nil
}

// nextDimRecords is Construct step 7's per-element walk, shared by the
// fabric branch and the resident step: the element's points ascend from
// the stub's parent to its segment tree's root, one S^(j+1) record per
// hat-internal ancestor. next grows once per element: the stub has
// Depth(stub) ancestors.
func nextDimRecords(el *element, next []srec) []srec {
	key := el.info.Key
	comps := key.Components()
	stubNode := int(comps[len(comps)-1])
	treeKey := parentKey(key)
	next = slices.Grow(next, segtree.Depth(stubNode)*len(el.pts))
	for u := segtree.Parent(stubNode); u >= 1; u = segtree.Parent(u) {
		anchor := treeKey.Extend(u)
		for _, pt := range el.pts {
			next = append(next, srec{Pt: pt, Key: anchor})
		}
	}
	return next
}

// sortedElemIDs returns the map keys in increasing order (deterministic
// record emission).
func sortedElemIDs(m map[ElemID][]geom.Point) []ElemID {
	ids := make([]ElemID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, func(a, b ElemID) int { return cmp.Compare(a, b) })
	return ids
}

// parentKey strips the last chain component of a PathKey.
func parentKey(k segtree.PathKey) segtree.PathKey {
	comps := k.Components()
	out := segtree.RootPathKey
	for _, c := range comps[:len(comps)-1] {
		out = out.Extend(int(c))
	}
	return out
}

// buildHatTree assembles one replicated dimension-j hat tree from the
// element metadata: stubs become hat leaves, their hat-internal ancestors
// get counts from the shape and spans from their children, and the tree is
// linked to its anchor node in the previous dimension.
func (t *Tree) buildHatTree(ps *procState, ts treeSum, j int) {
	shape := segtree.NewShape(ts.M)
	stubs := shape.Stubs(t.grain)
	// Every hat node is a stub or a stub's ancestor (smaller heap index),
	// so the dense node store only spans [0, max stub index].
	limit := shape.Root() + 1
	for _, st := range stubs {
		if st.Node >= limit {
			limit = st.Node + 1
		}
	}
	ht := newHatTree(int32(len(ps.hat)), ts.Key, int8(j), shape, limit)
	for si, st := range stubs {
		info := ps.info[int(ts.Elem0)+si]
		ht.setNode(st.Node, HatNode{
			Count: int32(st.Count),
			Min:   info.Min,
			Max:   info.Max,
			Elem:  info.ID,
			Desc:  -1,
		})
	}
	// Hat-internal ancestors, bottom-up from the stubs.
	var fill func(v int) (geom.Coord, geom.Coord)
	fill = func(v int) (geom.Coord, geom.Coord) {
		if nd, ok := ht.Node(v); ok { // stub
			return nd.Min, nd.Max
		}
		var mn, mx geom.Coord
		first := true
		for _, c := range []int{segtree.Left(v), segtree.Right(v)} {
			if shape.Count(c) == 0 {
				continue
			}
			cmn, cmx := fill(c)
			if first {
				mn, mx = cmn, cmx
				first = false
			} else {
				if cmn < mn {
					mn = cmn
				}
				if cmx > mx {
					mx = cmx
				}
			}
		}
		ht.setNode(v, HatNode{Count: int32(shape.Count(v)), Min: mn, Max: mx, Elem: -1, Desc: -1})
		return mn, mx
	}
	fill(shape.Root())
	ps.hat = append(ps.hat, ht)
	ps.hatByKey[ts.Key] = ht.ID

	// Link to the anchor node of the previous dimension's hat.
	if ts.Key != segtree.RootPathKey {
		comps := ts.Key.Components()
		anchorNode := int(comps[len(comps)-1])
		parent := parentKey(ts.Key)
		pid, ok := ps.hatByKey[parent]
		if !ok {
			panic(fmt.Sprintf("core: hat tree %v has no parent %v", ts.Key, parent))
		}
		pt := ps.hat[pid]
		nd, ok := pt.Node(anchorNode)
		if !ok {
			panic(fmt.Sprintf("core: anchor node %d missing in %v", anchorNode, parent))
		}
		nd.Desc = ht.ID
		pt.setNode(anchorNode, nd)
	}
}
