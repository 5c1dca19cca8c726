package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/cgm"
	"repro/internal/comm"
	"repro/internal/exec"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/psort"
	"repro/internal/segtree"
)

// srec is a record of the paper's set S^j: a leaf of a dimension-j segment
// tree that still has to be constructed, carrying the full point and the
// ordinal of the tree it belongs to (Construct step 1/7). Ordinals index
// the phase's key table (nextTreeKeys), which lists the tree labels in
// PathKey byte order, so ordering by ordinal is ordering by label.
type srec struct {
	Ord uint32
	Pt  geom.Point
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
	Ord   uint32          // the tree's ordinal in the phase's key table
	Key   segtree.PathKey // its label, as ElemInfo and the hat name it
	M     int             // leaf count
	Start int             // global offset of its first leaf in the sorted S^j
	Elem0 ElemID
}

// runSum is a per-processor run of one tree's records in the sorted S^j.
type runSum struct {
	Ord   uint32
	Count int
}

// Build runs Algorithm Construct (§3) on mach: it distributes pts in
// blocks of n/p, then constructs the distributed range tree in d phases,
// each phase sorting the segment-tree leaves S^j, routing forest-element
// groups to their owners (k mod p), building forest elements sequentially
// as layered trees, broadcasting the stub roots, and rebuilding the
// dimension-j hat layer on every processor. Each rank starts from its
// canonical block of n/p points (CanonicalBlocks). On a resident machine
// the blocks are staged into the ranks' parts first, over the same rank
// feeds BulkLoad streams through, so each point leaves the coordinator
// once, on its way in. A bad point set or a
// machine abort panics; BuildOn returns them as errors.
func Build(mach *cgm.Machine, pts []geom.Point) *Tree {
	t, err := buildPoints(mach, pts)
	if err != nil {
		panic(err.Error())
	}
	return t
}

// buildPoints is the one build of a point slice: check the points, cut
// the canonical blocks, stage them into the ranks' parts over the rank
// feeds on a resident machine (a fabric construct takes each rank's
// block from blocks), and run the construction. A bad point set, a
// failed stage and a machine abort return as errors.
func buildPoints(mach *cgm.Machine, pts []geom.Point) (*Tree, error) {
	dims, err := checkPoints(pts)
	if err != nil {
		return nil, err
	}
	blocks := CanonicalBlocks(pts, mach.P())
	if mach.Resident() {
		// Rank r receives its block in order, in DefaultChunk pieces, so
		// its staged input is exactly its canonical block; the ranks'
		// chunks interleave so every feed streams at once.
		err := feedRanks(mach, IngestConfig{}, func(send func(int, []geom.Point)) {
			for off, more := 0, true; more; off += DefaultChunk {
				more = false
				for rank, blk := range blocks {
					if off < len(blk) {
						send(rank, blk[off:min(len(blk), off+DefaultChunk)])
						more = true
					}
				}
			}
		})
		if err != nil {
			return nil, fmt.Errorf("core: staging worker blocks: %w", err)
		}
	}
	return buildStaged(mach, dims, len(pts), blocks)
}

// checkPoints validates a build's input and returns its dimensionality.
func checkPoints(pts []geom.Point) (int, error) {
	if len(pts) == 0 {
		return 0, errors.New("core: empty point set")
	}
	dims := pts[0].Dims()
	if dims < 1 {
		return 0, errors.New("core: points need at least one dimension")
	}
	for i, p := range pts {
		if p.Dims() != dims {
			return 0, fmt.Errorf("core: point %d has %d dims, want %d", i, p.Dims(), dims)
		}
	}
	return dims, nil
}

// CanonicalBlocks splits pts into the p contiguous blocks Construct step 1
// assigns: the block each rank starts from.
func CanonicalBlocks(pts []geom.Point, p int) [][]geom.Point {
	blocks := make([][]geom.Point, p)
	for rank := range blocks {
		lo, hi := queryBlock(rank, len(pts), p)
		blocks[rank] = pts[lo:hi]
	}
	return blocks
}

// build runs Algorithm Construct over n points of dims dimensions: on a
// fabric machine rank i starts from blocks[i]; on a resident machine
// every rank starts from the input staged in its part (blocks is unused).
// Either way the seeded counts must add up to n.
func build(mach *cgm.Machine, n, dims int, blocks [][]geom.Point) *Tree {
	p := mach.P()
	t := &Tree{
		mach:      mach,
		n:         n,
		dims:      dims,
		resident:  mach.Resident(),
		grain:     (n + p - 1) / p,
		procs:     make([]*procState, p),
		lastStats: make([]SearchStats, p),
	}
	counter := func(name string) *obs.Counter {
		if reg := mach.Obs(); reg != nil {
			return reg.Counter(name)
		}
		return new(obs.Counter)
	}
	t.copyShipped = counter(`core_phaseb_copy_points_total{how="shipped"}`)
	t.copyByRef = counter(`core_phaseb_copy_points_total{how="by_ref"}`)
	t.copyHits = counter("core_phaseb_copy_cache_hits_total")
	t.installNs = counter("core_phaseb_install_ns_total")
	seeded := make([]int, p)
	mach.Run(func(pr *cgm.Proc) { t.construct(pr, blocks, seeded) })
	// Construct exchanged every record d times over; the columns it
	// received must not keep those rows reachable from the run arenas.
	mach.ReleaseArenas()
	got := 0
	for _, c := range seeded {
		got += c
	}
	if got != n {
		panic(fmt.Sprintf("core: the ranks staged %d points, the build declared %d", got, n))
	}
	return t
}

// BuildOn runs Algorithm Construct on a machine supplied by the provider
// — the seam that lets the same construction run on the in-process
// simulator (cgm.LocalProvider) or on a TCP worker cluster
// (transport.Cluster) without the caller holding a machine. An empty or
// mixed-dimensional point set, and a machine abort (a worker lost
// mid-build), return as errors. be must be BackendLayered, the only
// element structure; any other value is refused. The parameter remains
// only because the benchmark harness (bench/) passes it, and goes with
// the next change to the benchmark.
func BuildOn(pv cgm.Provider, pts []geom.Point, be Backend) (*Tree, error) {
	if be != BackendLayered {
		return nil, fmt.Errorf("core: element backend %d; forest elements are layered trees (backend %d) only", be, BackendLayered)
	}
	mach, err := pv.NewMachine()
	if err != nil {
		return nil, fmt.Errorf("core: provider machine: %w", err)
	}
	return buildPoints(mach, pts)
}

// construct is the per-processor body of Algorithm Construct, one program
// for both residencies. Step 1: each processor starts with an arbitrary
// block of n/p points. A fabric rank's part is made here around its block;
// a resident rank's block was staged into its part before the run, and
// the part is reset for the build (a machine rebuilt on must not merge two
// forests; the staged input survives). Seeding turns the block into the
// S^1 records, all in the primary tree (ordinal 0), where the points live,
// and the d phases run on the part: on a resident tree no point payload
// visits the coordinator.
func (t *Tree) construct(pr *cgm.Proc, blocks [][]geom.Point, seeded []int) {
	rank := pr.Rank()
	ps := &procState{rank: rank, hatByKey: make(map[segtree.PathKey]int32)}
	t.procs[rank] = ps
	if t.resident {
		cgm.CallResident[bool, bool](pr, fref("construct/begin"), true)
	} else {
		ps.part = newForestPart()
		ps.part.ctx = exec.Ctx{Rank: rank, P: pr.P()}
		ps.part.staged = blocks[rank]
	}
	seeded[rank] = onPartIn(pr, ps.part, "construct/seed", seedArgs{Dims: int8(t.dims)}, constructSeedStep)
	var nextElem ElemID
	keys := []segtree.PathKey{segtree.RootPathKey} // phase 0's table: the primary tree
	for j := 0; j < t.dims; j++ {
		keys, nextElem = t.constructPhase(pr, ps, keys, j, nextElem)
	}
}

// srecLess orders the S^j records: primary key index (tree label, by its
// ordinal), then x_j, ties by point ID for determinism. It is the order of
// the sample sort's splitters, partition and merge; sortRecs produces the
// same order for the local sort without it.
func srecLess(j int) func(a, b srec) bool {
	return func(a, b srec) bool {
		if a.Ord != b.Ord {
			return a.Ord < b.Ord
		}
		if a.Pt.X[j] != b.Pt.X[j] {
			return a.Pt.X[j] < b.Pt.X[j]
		}
		return a.Pt.ID < b.Pt.ID
	}
}

// sortRecs is the sample sort's local phase for S^j records. It packs
// each record's srecLess(j) key into a psort.Key2: Hi holds the tree
// ordinal over the sign-flipped x_j, Lo the sign-flipped point ID over the
// record's index in the unsorted block. Flipping the sign bit makes the
// unsigned order of a coordinate its signed order (layered.sortedBy's
// trick). The radix kernel sorts on Hi and Lo's upper half, so the index
// is the payload that tells the permutation where each record is and,
// being distinct and increasing, makes the result the one srecLess order.
// Then every record moves once, cycle by cycle in place, so the sort
// neither calls a comparator on records nor allocates a second record
// block. scratch is the caller's key buffer: it is grown to 2·len(recs)
// keys when shorter, and returned for the next phase.
func sortRecs(recs []srec, j int, scratch []psort.Key2) []psort.Key2 {
	n := len(recs)
	if cap(scratch) < 2*n {
		scratch = make([]psort.Key2, 2*n)
	}
	keys := scratch[:n]
	for i, r := range recs {
		keys[i] = psort.Key2{
			Hi: uint64(r.Ord)<<32 | uint64(uint32(r.Pt.X[j])^1<<31),
			Lo: uint64(uint32(r.Pt.ID)^1<<31)<<32 | uint64(i),
		}
	}
	keys = psort.RadixKey2(keys, scratch[n:2*n], 32)
	// Position k takes the record at from(k), the index in keys[k].Lo; a
	// placed position's index is rewritten to itself, so every cycle of
	// the permutation is walked once.
	const idx = 1<<32 - 1
	for k := range keys {
		if int(keys[k].Lo&idx) == k {
			continue
		}
		held, at := recs[k], k
		for {
			from := int(keys[at].Lo & idx)
			keys[at].Lo = uint64(at) // the ID half is spent
			if from == k {
				recs[at] = held
				break
			}
			recs[at] = recs[from]
			at = from
		}
	}
	return scratch
}

// constructPhase builds all dimension-j segment trees, whose labels keys
// lists by ordinal: the hat layer replicated everywhere and the forest
// elements at their owners. The S^j records stay in the rank's part: the
// sample sort's local phases, the record exchanges, the element routing
// and the install run on the part (by direct call on a fabric tree, as
// registered steps on a resident one), while the coordinator's
// collectives carry only the p² regular samples, the splitters, the
// run/offset counts and the replicated stub metadata — O(p²) per phase,
// independent of n. It returns the key table of phase j+1, whose records
// the part now holds.
func (t *Tree) constructPhase(pr *cgm.Proc, ps *procState, keys []segtree.PathKey, j int, nextElem ElemID) ([]segtree.PathKey, ElemID) {
	p := pr.P()
	lbl := func(step string) string { return fmt.Sprintf("construct/d%d/%s", j, step) }
	dim, sortLbl := dimArgs{Dim: int8(j)}, lbl("sort")

	// Step 2: globally sort S^j by primary key index (tree label) and
	// secondary key x_j (ties by point ID for determinism) — psort's
	// phases around the keyed local sort. Only the samples are gathered;
	// every rank derives the identical splitters, and the partition/merge
	// and rebalance supersteps move the records part to part.
	sl := onPartIn(pr, ps.part, "construct/sortLocal", dim, sortLocalStep)
	allSamples := comm.AllGatherFlat(pr, sortLbl+"/sample", sl.Samples)
	splitters := psort.Splitters(allSamples, p, srecLess(j))
	merged := exchangeOnPart(pr, ps.part, sortLbl+"/route",
		"construct/wsortPart", wsortPartArgs{Dim: int8(j), Splitters: splitters}, wsortPartStep,
		"construct/wsortMerge", dim, wsortMergeStep)
	offset, total := comm.CountScan(pr, sortLbl+"/balance/count", merged.Len)
	bal := exchangeOnPart(pr, ps.part, sortLbl+"/balance",
		"construct/wsortSplit", wsortBalanceArgs{Offset: offset, Total: total}, wsortSplitStep,
		"construct/wsortGather", false, wsortGatherStep)

	// Tree discovery: exchange per-processor runs of equal ordinals; all
	// processors derive the identical, label-ordered tree summary list.
	// Stub enumeration is replicated (it is metadata, not points).
	allRuns := comm.AllGatherFlat(pr, lbl("runs"), bal.Runs)
	trees, err := deriveTrees(allRuns, keys)
	if err != nil {
		panic(err.Error())
	}
	nStubs, myInfos := t.enumerateStubs(pr, ps, trees, j, nextElem)

	// Steps 3–4: route every record to the owner of the element containing
	// its global position; the owners build their elements sequentially
	// from the routed points.
	myOffset, _ := comm.CountScan(pr, lbl("offset"), bal.Len)
	metas := exchangeOnPart(pr, ps.part, lbl("route"),
		"construct/routeHeld", routeHeldArgs{Trees: trees, Grain: t.grain, Offset: myOffset}, routeHeldStep,
		"construct/install", constructInstallArgs{Infos: myInfos}, constructInstallStep)

	// Steps 4–5: all-to-all broadcast of the forest roots (the hat's
	// leaves); every processor completes its dimension-j hat trees.
	t.finishPhase(pr, ps, trees, metas, j, lbl)

	// Step 7: create S^(j+1): every record walks from its stub's parent to
	// the root of its segment tree, creating one record per hat-internal
	// ancestor u with index path(u). The records stay in the part; the
	// next phase's key table names their trees by ordinal.
	if j+1 == t.dims {
		return nil, nextElem + ElemID(nStubs)
	}
	nextKeys := nextTreeKeys(ps.hat, j)
	onPartIn(pr, ps.part, "construct/nextHeld", nextHeldArgs{Dim: int8(j), Keys: nextKeys}, constructNextHeldStep)
	return nextKeys, nextElem + ElemID(nStubs)
}

// keyRuns summarises the locally sorted records as runs of equal tree
// ordinals — the tree-discovery rows of Construct step 2.
func keyRuns(sorted []srec) []runSum {
	var runs []runSum
	if len(sorted) > 0 { // the ordinals a sorted block spans bound its runs
		runs = make([]runSum, 0, min(int(sorted[len(sorted)-1].Ord-sorted[0].Ord)+1, len(sorted)))
	}
	for i := 0; i < len(sorted); {
		ord := sorted[i].Ord
		c := 0
		for i < len(sorted) && sorted[i].Ord == ord {
			i++
			c++
		}
		runs = append(runs, runSum{Ord: ord, Count: c})
	}
	return runs
}

// deriveTrees merges the gathered runs (rank-major, each rank's runs in
// ordinal order) into the label-ordered tree summary list with global
// start offsets — identical on every processor — naming each tree from
// the phase's key table. An ordinal outside the table, or runs out of
// order, is an error.
func deriveTrees(allRuns []runSum, keys []segtree.PathKey) ([]treeSum, error) {
	trees := make([]treeSum, 0, min(len(allRuns), len(keys)))
	for _, r := range allRuns {
		if int64(r.Ord) >= int64(len(keys)) {
			return nil, fmt.Errorf("core: construct run names tree %d of a %d-tree phase", r.Ord, len(keys))
		}
		if len(trees) > 0 {
			last := &trees[len(trees)-1]
			if last.Ord == r.Ord {
				last.M += r.Count
				continue
			}
			if last.Ord > r.Ord {
				return nil, fmt.Errorf("core: construct runs out of order: tree %d after tree %d", r.Ord, last.Ord)
			}
		}
		trees = append(trees, treeSum{Ord: r.Ord, Key: keys[r.Ord], M: r.Count})
	}
	start := 0
	for i := range trees {
		trees[i].Start = start
		start += trees[i].M
	}
	return trees, nil
}

// nextTreeKeys is the key table of phase j+1: one segment tree per
// hat-internal node v of the dimension-j hats, labelled ht.Key.Extend(v)
// and numbered in PathKey byte order — the order the labels sort in,
// which is not heap order once an index takes a two-byte varint, so the
// labels sort as strings. Every rank holds the same hat after phase j,
// so every rank derives the same table without a round.
func nextTreeKeys(hat []*HatTree, j int) []segtree.PathKey {
	internal := func(visit func(ht *HatTree, v int)) {
		for _, ht := range hat {
			if int(ht.Dim) == j {
				ht.each(func(v int, nd HatNode) {
					if nd.Elem < 0 {
						visit(ht, v)
					}
				})
			}
		}
	}
	// Size the labels, write them into one string, then cut the table
	// from it: two allocations, whatever the hat's size.
	n, size := 0, 0
	internal(func(ht *HatTree, v int) { n, size = n+1, size+len(ht.Key)+uvarintLen(uint64(v)) })
	var sb strings.Builder
	sb.Grow(size)
	internal(func(ht *HatTree, v int) {
		var b [binary.MaxVarintLen64]byte
		sb.WriteString(string(ht.Key))
		sb.Write(binary.AppendUvarint(b[:0], uint64(v)))
	})
	all, keys := sb.String(), make([]segtree.PathKey, 0, n)
	internal(func(ht *HatTree, v int) {
		l := len(ht.Key) + uvarintLen(uint64(v))
		keys, all = append(keys, segtree.PathKey(all[:l])), all[l:]
	})
	slices.Sort(keys)
	return keys
}

// enumerateStubs performs the replicated, deterministic stub enumeration:
// elements are numbered in (tree label, position) order and owned by
// P_(id mod p) — Construct step 3's "route the k-th group to processor
// P_(k mod p)". It assigns every tree's Elem0, appends the phase's
// ElemInfo records to ps.info, and returns the stub count plus this
// rank's owned share (what the rank's part installs).
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
	var myInfos []ElemInfo
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
		if int(info.Owner) == ps.rank {
			myInfos = append(myInfos, info)
		}
	}
	return len(stubs), myInfos
}

// routeRecords is Construct step 3's routing loop, the routeHeld emit's
// body: every globally sorted record (this rank's run starting at global position offset) goes
// to the owner of the element whose stub contains its position. The
// elements are resolved first and counted per owner, so the buckets are
// carved at their final sizes from one array. A record outside the trees'
// leaves, or in a tree other than its own, is an error.
func routeRecords(sorted []srec, trees []treeSum, grain, offset, p int) ([][]epoint, error) {
	ids := make([]ElemID, len(sorted))
	counts := make([]int, p)
	ti, loaded := 0, -1
	var treeStubs []segtree.Stub
	for i, r := range sorted {
		g := offset + i
		for ti < len(trees) && g >= trees[ti].Start+trees[ti].M {
			ti++
		}
		if ti == len(trees) || g < trees[ti].Start {
			return nil, fmt.Errorf("core: construct record at global position %d lies outside the %d trees' leaves", g, len(trees))
		}
		if r.Ord != trees[ti].Ord {
			return nil, fmt.Errorf("core: construct routing lost tree alignment: a tree %d record at tree %d's position %d", r.Ord, trees[ti].Ord, g)
		}
		if loaded != ti {
			treeStubs, loaded = segtree.NewShape(trees[ti].M).Stubs(grain), ti
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
	for ti := range trees {
		t.buildHatTree(ps, trees[ti], j)
	}
}

// nextDimRecords is Construct step 7's per-element walk: the element's
// points ascend from the stub's parent to its segment tree's root, one
// S^(j+1) record per hat-internal ancestor, under that ancestor's tree
// ordinal in keys, the next phase's sorted key table (looked up once per
// ancestor). next grows once per element: the stub has Depth(stub)
// ancestors.
func nextDimRecords(el *element, next []srec, keys []segtree.PathKey) ([]srec, error) {
	key := el.info.Key
	comps := key.Components()
	stubNode := int(comps[len(comps)-1])
	treeKey := parentKey(key)
	blk := el.tree.Points()
	next = slices.Grow(next, segtree.Depth(stubNode)*blk.Len())
	for u := segtree.Parent(stubNode); u >= 1; u = segtree.Parent(u) {
		ord, ok := slices.BinarySearch(keys, treeKey.Extend(u))
		if !ok {
			return nil, fmt.Errorf("core: element %d's ancestor %d names no tree of the next phase", el.info.ID, u)
		}
		for i := range blk.Len() {
			next = append(next, srec{Ord: uint32(ord), Pt: blk.Point(i)})
		}
	}
	return next, nil
}

// parentKey strips the last chain component of a PathKey: a uvarint, so
// the parent's label is a prefix of the key.
func parentKey(k segtree.PathKey) segtree.PathKey {
	comps := k.Components()
	return k[:len(k)-uvarintLen(comps[len(comps)-1])]
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
