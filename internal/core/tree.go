// Package core implements the paper's primary contribution: the
// distributed range tree on a coarse-grained multicomputer (§3–4).
//
// The d-dimensional range tree T over n points is partitioned by the hat
// cut (Definition 3): every node whose canonical point set holds more than
// g = ⌈n/p⌉ points is part of the hat H, replicated on all processors; the
// maximal subtrees below the cut (each a range tree of some dimension
// j ≤ d over at most g points — the forest F) are distributed over the
// processors round-robin in global label order (Construct step 3), so
// every part F_i has size O(s/p) (Theorem 1).
//
// Queries advance through the locally replicated hat without
// communication; the subqueries that must continue into the forest are
// load-balanced by replicating congested forest parts (Algorithm Search),
// and the three result modes of §4.2 — counting, associative function and
// report — finish with a constant number of additional h-relations.
package core

import (
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"

	"repro/internal/balance"
	"repro/internal/cgm"
	"repro/internal/geom"
	"repro/internal/layered"
	"repro/internal/obs"
	"repro/internal/segtree"
)

// ElemID identifies a forest element (one subtree hanging below the hat)
// globally; IDs are dense and assigned in deterministic label order.
type ElemID int32

// ElemInfo is the replicated metadata of one forest element: enough for
// any processor to route queries to it and to account for its size.
type ElemInfo struct {
	ID    ElemID
	Owner int32 // processor storing the element (ID mod p)
	Count int32 // number of points
	Dim   int8  // first dimension the element discriminates (0-based)
	// Key identifies the element's root stub: the PathKey of its segment
	// tree extended by the stub's heap index (Definition 2 / Lemma 1).
	Key segtree.PathKey
	// Min and Max span the element's points in dimension Dim.
	Min, Max geom.Coord
}

// HatNode is one replicated node of the hat. Stub nodes (Elem ≥ 0) are the
// hat's leaves: roots of forest elements. Internal nodes may carry a
// descendant hat tree for the next dimension (Desc ≥ 0).
type HatNode struct {
	Count    int32
	Min, Max geom.Coord
	Elem     ElemID // forest element rooted here, -1 for internal nodes
	Desc     int32  // hat tree id of descendant(v), -1 if none
}

// HatTree is one segment tree of the hat, truncated at the stub cut.
// Nodes live in a dense slice indexed by heap index with a presence
// bitmap: every hat node is an ancestor of (or is) a stub, and stubs sit
// within O(log) levels of the root, so the occupied index range is O(p)
// regardless of the shape's full 2·Cap node space — dense probing replaces
// map hashing in the descent's innermost loop.
type HatTree struct {
	ID      int32
	Key     segtree.PathKey // names the tree (Lemma 1); primary = RootPathKey
	Dim     int8            // 0-based dimension discriminated
	Shape   segtree.Shape
	nodes   []HatNode
	present []uint64
}

// newHatTree allocates the dense node store for heap indices [0, limit).
func newHatTree(id int32, key segtree.PathKey, dim int8, shape segtree.Shape, limit int) *HatTree {
	return &HatTree{
		ID: id, Key: key, Dim: dim, Shape: shape,
		nodes:   make([]HatNode, limit),
		present: make([]uint64, (limit+63)/64),
	}
}

// Node returns the hat node at heap index v; ok is false for indices
// below the stub cut or over padding (the map-miss of the old layout).
func (ht *HatTree) Node(v int) (HatNode, bool) {
	if uint(v) >= uint(len(ht.nodes)) || ht.present[v>>6]&(1<<(uint(v)&63)) == 0 {
		return HatNode{}, false
	}
	return ht.nodes[v], true
}

// setNode stores the hat node at heap index v (construction and tests).
func (ht *HatTree) setNode(v int, nd HatNode) {
	ht.nodes[v] = nd
	ht.present[v>>6] |= 1 << (uint(v) & 63)
}

// NodeCount reports the number of present nodes.
func (ht *HatTree) NodeCount() int {
	total := 0
	for _, w := range ht.present {
		total += bits.OnesCount64(w)
	}
	return total
}

// each visits every present node in increasing heap-index order.
func (ht *HatTree) each(visit func(v int, nd HatNode)) {
	for v := range ht.nodes {
		if ht.present[v>>6]&(1<<(uint(v)&63)) != 0 {
			visit(v, ht.nodes[v])
		}
	}
}

// element is an owned (or copied) forest element: the layered tree over
// dimensions Dim..d-1 built from its points (Construct step 4 builds
// forest elements sequentially). The tree's block is the element's point
// set in leaf order, and there is no other copy of it.
type element struct {
	info ElemInfo
	tree *layered.Tree
}

// copyCacheCapFor resolves the per-processor copy-cache entry bound:
// an explicit SetCopyCacheCap wins, otherwise a few times this
// processor's fair share of the forest — enough to hold every element a
// balanced skew ships here, while keeping worst-case cache memory within
// a constant factor of the Theorem 1 space bound.
func (t *Tree) copyCacheCapFor(ps *procState) int {
	if cap := t.copyCacheCap.Load(); cap != 0 {
		return int(cap)
	}
	return 4 * (len(ps.info)/t.P() + 1)
}

// hatFrame is one pending node of the iterative hat descent.
type hatFrame struct {
	tree, node int32
}

// procState is one processor's coordinator-side state: its replica of
// the hat and the element metadata, the mirror of its copy cache, and the
// batch path's scratch.
type procState struct {
	rank     int
	hat      []*HatTree
	hatByKey map[segtree.PathKey]int32
	info     []ElemInfo

	// part is the rank's forest part — its elements, the copies it hosts
	// during a search batch, and its copy cache — on a fabric tree. On a
	// resident tree the part lives in the machine's exec store (worker
	// memory over TCP) and part is nil.
	part *forestPart

	// cached mirrors the ID set of the rank's element cache, wherever it
	// lives, as a sorted list: what the rank advertises in phase B's
	// demand round. Every install returns the cache's changes
	// (installCopiesReply.Ops), so the mirror follows a worker-held cache
	// without a round trip.
	cached []ElemID
	// owned lists the IDs of the elements this rank owns, increasing
	// (derived from info on first use; info is immutable after Build).
	owned []ElemID
	// plan is the rank's phase-B replication plan, recomputed in place
	// every batch (its vectors are sized by the tree, not by the batch).
	plan *balance.Plan

	// reused scratch: the explicit stacks of the iterative hat descent
	// and stub expansion, so the per-query hot path allocates nothing.
	// They make the batch-path descents non-reentrant per procState; the
	// single-query wrappers (hatSearchFunc) use local stacks instead so
	// callers outside a machine run never touch this state.
	hatStack  []hatFrame
	stubStack []int32
}

// ownedIDs returns the IDs of the elements this rank owns, increasing.
func (ps *procState) ownedIDs() []ElemID {
	if ps.owned == nil {
		for _, info := range ps.info {
			if int(info.Owner) == ps.rank {
				ps.owned = append(ps.owned, info.ID)
			}
		}
	}
	return ps.owned
}

// Tree is the distributed range tree handle. All batch operations run SPMD
// programs on the machine the tree was built on.
type Tree struct {
	mach *cgm.Machine
	n    int
	dims int
	// resident marks worker-resident execution: the forest elements (and
	// phase-B copies) live in the machine's transport-resident state —
	// worker memory over TCP — and every element access dispatches
	// registered steps (resident.go). The hat replicas, element metadata
	// and batch statistics stay coordinator-side either way.
	resident   bool
	grain      int
	procs      []*procState
	lastStats  []SearchStats
	lastDemand []int
	// frame is the kept run frame of the serving path (*mixedFrame[T] for
	// the T last served): the caller-side state a MixedBatch would otherwise
	// rebuild identically every run.
	frame any
	// copyShipped, copyByRef, copyHits and installNs accumulate the
	// SearchStats copy fields over all batches: the core_phaseb_* series
	// of the machine's registry (unregistered counters without one).
	copyShipped, copyByRef, copyHits, installNs *obs.Counter
	// copyCacheCap overrides the per-processor copy-cache entry bound:
	// 0 = derived default, negative = caching disabled.
	copyCacheCap atomic.Int64
}

// SetCopyCacheCap bounds each processor's cross-batch copy cache to at
// most perProc entries (0 restores the derived default of a few times
// the processor's forest share; negative disables copy caching). Takes
// effect at the next batch's installs: that batch still serves by
// reference what its hosts advertised, then each cache evicts down to the
// bound (a negative one empties it), so the batch after it ships every
// copy it needs by value. A tree set to −1 before its first batch runs
// every phase B cold.
func (t *Tree) SetCopyCacheCap(perProc int) { t.copyCacheCap.Store(int64(perProc)) }

// prepBatch resets the per-batch statistics before a machine run.
func (t *Tree) prepBatch() { clear(t.lastStats) }

// Resident reports whether the forest lives in transport-resident state
// (worker memory over TCP) rather than coordinator memory.
func (t *Tree) Resident() bool { return t.resident }

// LastDemand returns the demand vector |QF_j| of the most recent batch:
// for each rank j, the subqueries that visit elements j owns, summed from
// phase B's per-element demand rows. It is what a no-replication strawman
// would load each owner with (E6's baseline). The returned slice is the
// caller's: the tree overwrites its own copy every batch.
func (t *Tree) LastDemand() []int { return slices.Clone(t.lastDemand) }

// N reports the number of points.
func (t *Tree) N() int { return t.n }

// Dims reports the dimensionality.
func (t *Tree) Dims() int { return t.dims }

// P reports the machine width.
func (t *Tree) P() int { return t.mach.P() }

// Grain reports the hat cut g = ⌈n/p⌉.
func (t *Tree) Grain() int { return t.grain }

// Machine returns the underlying machine (for metrics).
func (t *Tree) Machine() *cgm.Machine { return t.mach }

// SetTrace stamps the tree's machine so its next batch's supersteps —
// coordinator exchanges and worker-side spans alike — land under the
// given trace ID (0 clears). Must not overlap a running batch, the same
// exclusive-run contract the machine itself has.
func (t *Tree) SetTrace(id uint64) { t.mach.SetTrace(id) }

// Info returns the replicated element metadata (processor 0's copy; all
// replicas are identical).
func (t *Tree) Info() []ElemInfo { return t.procs[0].info }

// HatNodeCount reports the number of nodes in one hat replica — the
// quantity Theorem 1(i) bounds by O(p·log^(d-1) p).
func (t *Tree) HatNodeCount() int {
	total := 0
	for _, ht := range t.procs[0].hat {
		total += ht.NodeCount()
	}
	return total
}

// HatTreeCount reports the number of segment trees in the hat.
func (t *Tree) HatTreeCount() int { return len(t.procs[0].hat) }

// ForestPartNodes reports, per processor, the total node count of the
// owned forest elements — the |F_i| of Theorem 1(ii). It reads each
// rank's part (onPart), so on a resident tree it must not overlap a
// machine run, and a lost worker is an error naming its rank.
func (t *Tree) ForestPartNodes() ([]int, error) {
	nodes := make([]int, t.P())
	for rank := range nodes {
		stats, err := onPart(t, rank, "stats/elems", false, elemStatsStep)
		if err != nil {
			return nil, fmt.Errorf("core: element stats: %w", err)
		}
		for _, st := range stats {
			nodes[rank] += st.Nodes
		}
	}
	return nodes, nil
}

// ElemCount reports the number of forest elements.
func (t *Tree) ElemCount() int { return len(t.procs[0].info) }

// AllPoints returns the stored point set in deterministic order. The
// dimension-0 forest elements partition the input, so concatenating them
// in element order recovers it (sorted by the first coordinate). The
// points are read from the owning ranks' parts (one read per rank), and
// on a resident tree a lost worker is an error naming its rank.
func (t *Tree) AllPoints() ([]geom.Point, error) {
	byOwner := make([][]ElemID, t.P())
	for _, info := range t.procs[0].info {
		if info.Dim == 0 {
			byOwner[info.Owner] = append(byOwner[info.Owner], info.ID)
		}
	}
	fetched := make(map[ElemID]geom.Block, t.ElemCount())
	for rank, ids := range byOwner {
		parts, err := onPart(t, rank, "points/fetch", fetchArgs{Elems: ids}, fetchPointsStep)
		if err != nil {
			return nil, fmt.Errorf("core: point fetch: %w", err)
		}
		for i, id := range ids {
			fetched[id] = parts[i]
		}
	}
	out := make([]geom.Point, 0, t.n)
	for _, info := range t.procs[0].info {
		if info.Dim == 0 {
			blk := fetched[info.ID]
			for i := range blk.Len() {
				out = append(out, blk.Point(i))
			}
		}
	}
	return out, nil
}

// homeOf maps a query id to the processor that initially holds it (block
// distribution over m queries).
func homeOf(qid int32, m, p int) int {
	g := int(qid)
	j := g * p / m
	if j > p-1 {
		j = p - 1
	}
	for j > 0 && g < j*m/p {
		j--
	}
	for j < p-1 && g >= (j+1)*m/p {
		j++
	}
	return j
}

// queryBlock returns the query index interval [lo, hi) processor rank
// starts with.
func queryBlock(rank, m, p int) (int, int) {
	return rank * m / p, (rank + 1) * m / p
}
