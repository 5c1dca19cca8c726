package layered

import (
	"repro/internal/geom"
	"repro/internal/segtree"
	"repro/internal/semigroup"
)

// Agg annotates a layered range tree with bottom-up semigroup values,
// mirroring rangetree.Agg for the cascaded structure (the paper's
// associative-function mode, §4.2). The search selects contiguous runs of
// y-sorted arrays, so every stored array carries a table laid out like it:
// a cascade's sampled levels (see stride) have tables, and a contained node
// between them folds its descendants' runs.
// For a group (m.Inverse set) the table holds one inclusive prefix per
// entry and a run [lo, hi) folds in O(1) as pre[hi-1] ⊗ Inverse(pre[lo-1]);
// any other monoid gets a 2n-slot implicit segment tree per array and an
// O(log) fold per run. Either way the whole query costs O(log^(d-1) n), a
// log factor below the plain tree's annotation.
//
// Integer groups are exact. Float prefixes add in another order: with g
// the tree's point count, k the runs and values a query combines and Σ|f|
// over the tree's points, the error is at most (2g + k)·ε·Σ|f| (ε = 2⁻⁵³,
// first order; TestAggFloatSumErrorBound sees ≈ 20·ε·Σ|f| at g = 16 384).
// Inverse is exact only on finite values, so every f must be finite.
type Agg[T any] struct {
	t   *Tree
	m   semigroup.Monoid[T]
	val func(geom.Point) T
	// one aggregates a one-dimensional tree's sorted block.
	one []T
	// tabs[c.ord] aggregates cascade c's sampled levels, laid out like c.idx:
	// the node whose run is c.idx[i:j] owns tabs[c.ord][w·i:w·j], w = slots().
	tabs [][]T
}

// NewAgg computes the annotation for monoid m with per-point value val,
// which sees each point as a read-only view into the tree's block.
func NewAgg[T any](t *Tree, m semigroup.Monoid[T], val func(geom.Point) T) *Agg[T] {
	a := &Agg[T]{t: t, m: m, val: val}
	n := t.blk.Len()
	if t.oneDim() {
		a.one = make([]T, a.slots()*n)
		for i := range n {
			a.one[len(a.one)-n+i] = val(t.blk.Point(i))
		}
		a.combine(a.one, n)
		return a
	}
	// The cascades index one shared block, each point ≈ log^(d−1) n
	// times: evaluating f once per point, not once per cascade entry,
	// takes the indirect call and the random point read out of the walk.
	vals := make([]T, n)
	for i := range vals {
		vals[i] = val(t.blk.Point(i))
	}
	a.tabs = make([][]T, t.blk.cascades)
	a.walk(t, vals)
	return a
}

// slots is the table width per array entry: a group's prefix table needs
// one, a segment tree two.
func (a *Agg[T]) slots() int {
	if a.m.Inverse != nil {
		return 1
	}
	return 2
}

// walk fills the table of every cascade under t from vals, f of each
// point of the block by index.
func (a *Agg[T]) walk(t *Tree, vals []T) {
	c := t.two
	if c == nil {
		t.eachDesc(func(d *Tree) { a.walk(d, vals) })
		return
	}
	m, w := c.shape.M, a.slots()
	tab := make([]T, w*len(c.idx))
	for k := 0; k <= c.depth; k++ {
		if !c.sampled(k) {
			continue
		}
		for lo, span := 0, c.shape.Cap>>k; lo < m; lo += span {
			at := slot(k)*m + lo
			run := c.idx[at : at+min(span, m-lo)]
			node := tab[w*at : w*(at+len(run))]
			for i, pi := range run {
				node[len(node)-len(run)+i] = vals[pi]
			}
			a.combine(node, len(run))
		}
	}
	a.tabs[c.ord] = tab
}

// combine finishes the table over one sorted array of n points, whose
// last n slots already hold f(point i): a group turns them into inclusive
// prefixes, any other monoid fills the implicit segment tree's inner
// slots v < n from their children.
func (a *Agg[T]) combine(tab []T, n int) {
	if a.m.Inverse != nil {
		for i := 1; i < n; i++ {
			tab[i] = a.m.Combine(tab[i-1], tab[i])
		}
		return
	}
	for v := n - 1; v >= 1; v-- {
		tab[v] = a.m.Combine(tab[2*v], tab[2*v+1])
	}
}

// fold combines tab's values over the non-empty index range [lo, hi) of
// the underlying n-point array into acc: one prefix difference for a group,
// otherwise the standard iterative segment-tree fold (the monoid is
// commutative, so combine order is free).
func (a *Agg[T]) fold(acc T, tab []T, n, lo, hi int) T {
	if a.m.Inverse != nil {
		run := tab[hi-1]
		if lo > 0 {
			run = a.m.Combine(run, a.m.Inverse(tab[lo-1]))
		}
		return a.m.Combine(acc, run)
	}
	for l, r := lo+n, hi+n; l < r; l, r = l>>1, r>>1 {
		if l&1 == 1 {
			acc = a.m.Combine(acc, tab[l])
			l++
		}
		if r&1 == 1 {
			r--
			acc = a.m.Combine(acc, tab[r])
		}
	}
	return acc
}

// Query evaluates ⊗_{l∈R(q)} f(l) for box b. The descent mirrors
// Tree.scan but threads the accumulator through return values, so a
// prepared Agg answers queries with zero heap allocations (the phase-C
// serving requirement).
func (a *Agg[T]) Query(b geom.Box) T {
	if b.Dims() != a.t.Dims {
		panic("layered: query dimensionality mismatch")
	}
	return a.scanTree(a.t, b, a.m.Identity)
}

func (a *Agg[T]) scanTree(t *Tree, b geom.Box, acc T) T {
	switch {
	case t.oneDim():
		if lo, hi := t.oneRange(b); lo < hi {
			acc = a.fold(acc, a.one, t.blk.Len(), lo, hi)
		}
		return acc
	case t.two != nil:
		c := t.two
		ivx := b.Dim(c.x)
		if pLo, pHi := c.rootRange(b.Dim(c.y)); pLo < pHi && !ivx.Empty() {
			acc = a.descendCascade(c, a.tabs[c.ord], 0, 0, pLo, pHi, ivx, acc)
		}
		return acc
	default:
		iv := b.Dim(t.StartDim)
		if iv.Empty() {
			return acc
		}
		if pLo, pHi := t.rootRun(b); pLo < pHi {
			acc = a.descendUpper(t, t.shape.Root(), b, iv, pLo, pHi, acc)
		}
		return acc
	}
}

func (a *Agg[T]) descendUpper(t *Tree, v int, b geom.Box, iv geom.Interval, pLo, pHi int, acc T) T {
	c, lo, hi := t.classify(v, iv)
	switch c {
	case upperBucket:
		for at := lo; at < hi; at++ {
			if !iv.Contains(t.keys[at]) {
				continue
			}
			if p := t.blk.Point(int(t.idx[at])); b.ContainsFrom(p, t.StartDim+1) {
				acc = a.m.Combine(acc, a.val(p))
			}
		}
	case upperWhole:
		if d := t.desc[v]; d.two != nil {
			acc = a.descendCascade(d.two, a.tabs[d.two.ord], 0, 0, pLo, pHi, b.Dim(d.two.x), acc)
		} else {
			acc = a.scanTree(d, b, acc)
		}
	case upperSplit:
		lLo, lHi, rLo, rHi := t.bridge(v, pLo, pHi)
		if lLo < lHi {
			acc = a.descendUpper(t, segtree.Left(v), b, iv, lLo, lHi, acc)
		}
		if rLo < rHi {
			acc = a.descendUpper(t, segtree.Right(v), b, iv, rLo, rHi, acc)
		}
	}
	return acc
}

func (a *Agg[T]) descendCascade(c *cascade, tab []T, k, lo, pLo, pHi int, ivx geom.Interval, acc T) T {
	hi, span := c.span(k, lo)
	if !ivx.Overlaps(span) {
		return acc
	}
	switch {
	case ivx.ContainsInterval(span):
		acc = a.whole(c, tab, k, lo, hi-lo, pLo, pHi, acc)
	case k == c.depth:
		for _, i := range c.level(k)[lo+pLo : lo+pHi] {
			if ivx.Contains(c.blk.coord(i, c.x)) {
				acc = a.m.Combine(acc, a.val(c.blk.Point(int(i))))
			}
		}
	default:
		mid, lLo, lHi, rLo, rHi := c.children(k, lo, hi-lo, pLo, pHi)
		if lLo < lHi {
			acc = a.descendCascade(c, tab, k+1, lo, lLo, lHi, ivx, acc)
		}
		if rLo < rHi {
			acc = a.descendCascade(c, tab, k+1, mid, rLo, rHi, ivx, acc)
		}
	}
	return acc
}

// whole folds the non-empty run [pLo, pHi) of the n-entry node (k, lo),
// which the query contains, as cascade.whole visits it.
func (a *Agg[T]) whole(c *cascade, tab []T, k, lo, n, pLo, pHi int, acc T) T {
	if c.sampled(k) {
		return a.fold(acc, tab[a.slots()*(slot(k)*c.shape.M+lo):], n, pLo, pHi)
	}
	mid, lLo, lHi, rLo, rHi := c.children(k, lo, n, pLo, pHi)
	if lLo < lHi {
		acc = a.whole(c, tab, k+1, lo, min(mid-lo, n), lLo, lHi, acc)
	}
	if rLo < rHi {
		acc = a.whole(c, tab, k+1, mid, lo+n-mid, rLo, rHi, acc)
	}
	return acc
}
