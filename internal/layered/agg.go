package layered

import (
	"repro/internal/geom"
	"repro/internal/segtree"
	"repro/internal/semigroup"
)

// Agg annotates a layered range tree with bottom-up semigroup values,
// mirroring rangetree.Agg for the cascaded structure (the paper's
// associative-function mode, §4.2). The search selects contiguous runs of
// y-sorted arrays, so a cascade's sampled levels (see stride) carry tables
// over their arrays, and a contained node between them folds its
// descendants' runs. vals keeps f of every point of the block, which the
// bucket scans read in place of calling f.
//
// For a group (m.Inverse set) a sampled level's table is one row of
// ⌊M/prefixStride⌋ samples: slot q/prefixStride holds its node's inclusive
// prefix through level position q, for each q with (q+1) a multiple of
// prefixStride. A run end x is finished from vals: P(x) is the sample
// through the last whole block before x ⊗ the fewer than prefixStride
// values after it, and a run [lo, hi) folds as P(hi) ⊗ Inverse(P(lo)),
// or as a direct sum when that reads no more values (always when it lies
// inside one block). Any other monoid gets a 2n-slot implicit segment tree
// per array and an O(log) fold per run. Either way the whole query costs
// O(log^(d-1) n), a log factor below the plain tree's annotation.
//
// Integer groups are exact. Float prefixes add in another order: with g
// the tree's point count, k the runs and values a query combines and Σ|f|
// over the tree's points, the error is at most (2g + k)·ε·Σ|f| (ε = 2⁻⁵³,
// first order; TestAggFloatSumErrorBound sees ≈ 20·ε·Σ|f| at g = 16 384).
// A finished end continues its sample's left-to-right sum, so P(x) is the
// same sum of at most g values a prefix on every entry would store, and a
// run summed directly adds at most 2·prefixStride of its own values: the
// bound is that of the unsampled table. Inverse is exact only on finite
// values, so every f must be finite.
type Agg[T any] struct {
	t *Tree
	m semigroup.Monoid[T]
	// one aggregates a one-dimensional tree's sorted block.
	one []T
	// vals[i] is f of the block's point i (cascaded trees only).
	vals []T
	// tabs[c.ord] aggregates cascade c's sampled levels: a group's is one
	// row a level (see row); any other monoid's is laid out like c.idx, the
	// node whose run is c.idx[i:j] owning tabs[c.ord][2i:2j].
	tabs [][]T
}

// prefixStride is a group table's sampling within a level: one inclusive
// prefix every prefixStride entries. Every stored node starts at a
// multiple of bucket, so prefixStride must divide bucket: then no block
// of prefixStride entries straddles two nodes.
const prefixStride = 4

// NewAgg computes the annotation for monoid m with per-point value val,
// which sees each point as a read-only view into the tree's block.
func NewAgg[T any](t *Tree, m semigroup.Monoid[T], val func(geom.Point) T) *Agg[T] {
	a := &Agg[T]{t: t, m: m}
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
	// takes the indirect call and the random point read out of the walk
	// and the scans.
	a.vals = make([]T, n)
	for i := range a.vals {
		a.vals[i] = val(t.blk.Point(i))
	}
	a.tabs = make([][]T, t.blk.cascades)
	a.walk(t)
	return a
}

// slots is the one-dimensional table's width per entry: a group's prefix
// table needs one, a segment tree two.
func (a *Agg[T]) slots() int {
	if a.m.Inverse != nil {
		return 1
	}
	return 2
}

// row is a group's prefix samples of cascade c's sampled level k.
func (a *Agg[T]) row(c *cascade, k int) []T {
	w := c.shape.M / prefixStride
	return a.tabs[c.ord][slot(k)*w:][:w]
}

// walk fills the table of every cascade under t from vals.
func (a *Agg[T]) walk(t *Tree) {
	c := t.two
	if c == nil {
		t.eachDesc(a.walk)
		return
	}
	m := c.shape.M
	if a.m.Inverse != nil {
		a.tabs[c.ord] = make([]T, (slot(c.depth)+1)*(m/prefixStride))
	} else {
		a.tabs[c.ord] = make([]T, 2*len(c.idx))
	}
	for k := 0; k <= c.depth; k++ {
		if !c.sampled(k) {
			continue
		}
		lv := c.level(k)
		for lo, span := 0, c.shape.Cap>>k; lo < m; lo += span {
			hi := min(lo+span, m)
			if a.m.Inverse == nil {
				at := slot(k)*m + lo
				node := a.tabs[c.ord][2*at : 2*(at+hi-lo)]
				for i, pi := range lv[lo:hi] {
					node[hi-lo+i] = a.vals[pi]
				}
				a.combine(node, hi-lo)
				continue
			}
			row, acc := a.row(c, k), a.m.Identity
			for at := lo; at < hi; at++ {
				acc = a.m.Combine(acc, a.vals[lv[at]])
				if (at+1)%prefixStride == 0 {
					row[at/prefixStride] = acc
				}
			}
		}
	}
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
// the underlying n-point array into acc: one prefix difference for a
// group's one-dimensional table, otherwise the standard iterative
// segment-tree fold (the monoid is commutative, so combine order is free).
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
			if i := t.idx[at]; b.ContainsFrom(t.blk.Point(int(i)), t.StartDim+1) {
				acc = a.m.Combine(acc, a.vals[i])
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
				acc = a.m.Combine(acc, a.vals[i])
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
		if a.m.Inverse != nil {
			return a.m.Combine(acc, a.run(c, k, lo, lo+pLo, lo+pHi))
		}
		return a.fold(acc, tab[2*(slot(k)*c.shape.M+lo):], n, pLo, pHi)
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

// run folds positions [from, to) of sampled level k, from < to, which lie
// in the node whose first position is lo: a prefix difference, or a
// direct sum when the run is no longer than the values finishing its two
// ends would be (a run inside one block of prefixStride entries always).
func (a *Agg[T]) run(c *cascade, k, lo, from, to int) T {
	lv := c.level(k)
	ends := to % prefixStride
	if from > lo {
		ends += from%prefixStride + 2 // and the Inverse and its Combine
	}
	if to-from <= ends {
		return a.sum(a.vals[lv[from]], lv[from+1:to])
	}
	row := a.row(c, k)
	run := a.prefix(row, lv, lo, to)
	if from > lo {
		run = a.m.Combine(run, a.m.Inverse(a.prefix(row, lv, lo, from)))
	}
	return run
}

// prefix is the node's prefix through level position at−1, at > lo: the
// sample through the last whole block before at, if the node has one,
// ⊗ the values after it.
func (a *Agg[T]) prefix(row []T, lv []int32, lo, at int) T {
	if base := at - at%prefixStride; base > lo {
		return a.sum(row[base/prefixStride-1], lv[base:at])
	}
	return a.sum(a.vals[lv[lo]], lv[lo+1:at])
}

// sum combines the values of the block indices idx into acc, in order.
func (a *Agg[T]) sum(acc T, idx []int32) T {
	for _, i := range idx {
		acc = a.m.Combine(acc, a.vals[i])
	}
	return acc
}
