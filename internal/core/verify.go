package core

import (
	"fmt"
	"reflect"

	"repro/internal/geom"
	"repro/internal/segtree"
)

// Verify checks the structural invariants of the distributed range tree —
// the properties Definitions 2–3 and Theorem 1 rely on — and returns the
// first violation found, or nil. It is exercised after every construction
// in the test suite and exposed through `treedump -check`.
//
// Checked invariants:
//  1. every processor's hat replica and element metadata are identical;
//  2. element ownership: stored exactly at Owner == ID mod p;
//  3. the dimension-0 elements partition the input (n points, unique IDs);
//  4. hat stubs have count ≤ grain, hat-internal nodes > grain;
//  5. hat node counts are consistent bottom-up and stub metadata matches
//     the owned elements (count, span);
//  6. every hat-internal node of a non-final dimension has a descendant
//     tree anchored back at it (Definition 1 / Lemma 1);
//  7. element point sets are sorted by their first discriminated dimension
//     (leaf order).
//
// The element checks run against points read from the owning ranks'
// parts (on a resident tree, fetched from worker memory); the hat and
// metadata are coordinator-side replicas either way.
func (t *Tree) Verify() error {
	ref := t.procs[0]
	p := t.P()

	// (1) replicas identical.
	for rank := 1; rank < p; rank++ {
		ps := t.procs[rank]
		if len(ps.hat) != len(ref.hat) {
			return fmt.Errorf("replica %d has %d hat trees, replica 0 has %d", rank, len(ps.hat), len(ref.hat))
		}
		for i := range ps.hat {
			a, b := ps.hat[i], ref.hat[i]
			if a.Key != b.Key || a.Dim != b.Dim || a.Shape != b.Shape ||
				!reflect.DeepEqual(a.nodes, b.nodes) || !reflect.DeepEqual(a.present, b.present) {
				return fmt.Errorf("replica %d hat tree %d differs from replica 0", rank, i)
			}
		}
		if !reflect.DeepEqual(ps.info, ref.info) {
			return fmt.Errorf("replica %d element metadata differs from replica 0", rank)
		}
	}

	// Materialize the per-rank element views (read from each rank's part).
	elems, err := t.elemPtsView()
	if err != nil {
		return err
	}

	// (2) ownership.
	for rank, held := range elems {
		for id := range held {
			if int(id)%p != rank || int(ref.info[int(id)].Owner) != rank {
				return fmt.Errorf("element %d stored at processor %d, owner field %d", id, rank, ref.info[int(id)].Owner)
			}
		}
	}
	for _, info := range ref.info {
		if _, ok := elems[info.Owner][info.ID]; !ok {
			return fmt.Errorf("element %d missing at its owner %d", info.ID, info.Owner)
		}
	}

	// (3) dimension-0 partition.
	seen := make(map[int32]bool)
	total := 0
	for _, held := range elems {
		for id, blk := range held {
			if ref.info[int(id)].Dim != 0 {
				continue
			}
			total += blk.Len()
			for _, pid := range blk.IDs {
				if seen[pid] {
					return fmt.Errorf("point %d appears in two dimension-0 elements", pid)
				}
				seen[pid] = true
			}
		}
	}
	if total != t.n {
		return fmt.Errorf("dimension-0 forest covers %d points, want %d", total, t.n)
	}

	// (4)–(6) per hat tree.
	for _, ht := range ref.hat {
		var violation error
		ht.each(func(v int, nd HatNode) {
			if violation != nil {
				return
			}
			violation = t.verifyHatNode(ref, elems, ht, v, nd)
		})
		if violation != nil {
			return violation
		}
	}
	return nil
}

// elemPtsView collects every rank's stored elements as ID → block: what
// the rank's part actually holds (catching stray and missing elements
// alike), then the points themselves.
func (t *Tree) elemPtsView() ([]map[ElemID]geom.Block, error) {
	out := make([]map[ElemID]geom.Block, t.P())
	for rank := range out {
		stats, err := onPart(t, rank, "stats/elems", false, elemStatsStep)
		if err != nil {
			return nil, fmt.Errorf("element stats of rank %d: %w", rank, err)
		}
		ids := make([]ElemID, len(stats))
		for i, st := range stats {
			ids[i] = st.ID
		}
		parts, err := onPart(t, rank, "points/fetch", fetchArgs{Elems: ids}, fetchPointsStep)
		if err != nil {
			return nil, fmt.Errorf("element fetch of rank %d: %w", rank, err)
		}
		held := make(map[ElemID]geom.Block, len(ids))
		for i, id := range ids {
			held[id] = parts[i]
		}
		out[rank] = held
	}
	return out, nil
}

// verifyHatNode checks invariants (4)–(6) for one hat node.
func (t *Tree) verifyHatNode(ref *procState, elems []map[ElemID]geom.Block, ht *HatTree, v int, nd HatNode) error {
	if int(nd.Count) != ht.Shape.Count(v) {
		return fmt.Errorf("hat tree %v node %d count %d, shape says %d", ht.Key, v, nd.Count, ht.Shape.Count(v))
	}
	if nd.Elem >= 0 {
		if int(nd.Count) > t.grain {
			return fmt.Errorf("stub %d of %v has count %d > grain %d", v, ht.Key, nd.Count, t.grain)
		}
		info := ref.info[int(nd.Elem)]
		if info.Count != nd.Count || info.Min != nd.Min || info.Max != nd.Max {
			return fmt.Errorf("stub %d of %v disagrees with element %d metadata", v, ht.Key, nd.Elem)
		}
		blk := elems[info.Owner][info.ID]
		if int32(blk.Len()) != info.Count {
			return fmt.Errorf("element %d holds %d points, metadata says %d", info.ID, blk.Len(), info.Count)
		}
		dim := int(info.Dim)
		for i := 1; i < blk.Len(); i++ {
			if blk.Point(i).X[dim] < blk.Point(i - 1).X[dim] {
				return fmt.Errorf("element %d points unsorted in dim %d", info.ID, dim)
			}
		}
		return nil
	}
	if int(nd.Count) <= t.grain {
		return fmt.Errorf("hat-internal node %d of %v has count %d ≤ grain %d", v, ht.Key, nd.Count, t.grain)
	}
	if int(ht.Dim) < t.dims-1 {
		if nd.Desc < 0 {
			return fmt.Errorf("hat-internal node %d of %v (dim %d) lacks a descendant", v, ht.Key, ht.Dim)
		}
		dt := ref.hat[nd.Desc]
		if dt.Key != ht.Key.Extend(v) {
			return fmt.Errorf("descendant of node %d of %v has key %v (Lemma 1 violated)", v, ht.Key, dt.Key)
		}
		if int(dt.Dim) != int(ht.Dim)+1 || dt.Shape.M != int(nd.Count) {
			return fmt.Errorf("descendant of node %d of %v has dim %d / %d leaves, want %d / %d",
				v, ht.Key, dt.Dim, dt.Shape.M, ht.Dim+1, nd.Count)
		}
	}
	// Children consistency: counts of present children sum up.
	sum := int32(0)
	for _, c := range []int{segtree.Left(v), segtree.Right(v)} {
		if cnd, ok := ht.Node(c); ok {
			sum += cnd.Count
		}
	}
	if sum != nd.Count {
		return fmt.Errorf("node %d of %v: children sum %d != count %d", v, ht.Key, sum, nd.Count)
	}
	// Span covers children spans.
	for _, c := range []int{segtree.Left(v), segtree.Right(v)} {
		if cnd, ok := ht.Node(c); ok {
			if cnd.Min < nd.Min || cnd.Max > nd.Max {
				return fmt.Errorf("node %d of %v: child span exceeds parent", v, ht.Key)
			}
		}
	}
	return nil
}
