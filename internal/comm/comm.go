// Package comm implements the paper's "small set of standard
// communications operations" (§1): segmented broadcast, segmented gather,
// all-to-all broadcast, personalized all-to-all broadcast, partial sum —
// and supporting collectives — each realized as a constant number of
// cgm.Exchange h-relations (usually one). Sort, the sixth operation, lives
// in package psort.
//
// Every collective builds its deposit row (and the scratch it needs on the
// way) in the rank's run arena, so the collectives themselves allocate
// nothing on a warm machine. What a collective returns follows the arena's
// lifetime rule where noted — valid until the machine's next Run — and is
// an ordinary heap slice everywhere else.
package comm

import (
	"fmt"
	"slices"

	"repro/internal/cgm"
	"repro/internal/semigroup"
)

// AllGather is the paper's all-to-all broadcast: every processor
// contributes local and receives every processor's contribution, indexed
// by source rank. One h-relation with h = (p-1)·max|local|. The returned
// column is arena-backed (valid until the machine's next Run).
func AllGather[T any](pr *cgm.Proc, label string, local []T) [][]T {
	p := pr.P()
	out := cgm.Alloc[[]T](pr.Arena(), p)
	for j := 0; j < p; j++ {
		out[j] = local
	}
	return cgm.Exchange(pr, label, out)
}

// AllGatherFlat gathers and concatenates in rank order.
func AllGatherFlat[T any](pr *cgm.Proc, label string, local []T) []T {
	parts := AllGather(pr, label, local)
	total := 0
	for _, s := range parts {
		total += len(s)
	}
	flat := make([]T, 0, total)
	for _, s := range parts {
		flat = append(flat, s...)
	}
	return flat
}

// Gather collects every processor's local data at root (indexed by source
// rank); other processors receive nil.
func Gather[T any](pr *cgm.Proc, label string, root int, local []T) [][]T {
	p := pr.P()
	out := cgm.Alloc[[]T](pr.Arena(), p)
	out[root] = local
	in := cgm.Exchange(pr, label, out)
	if pr.Rank() != root {
		return nil
	}
	return in
}

// Scan is the paper's partial-sum operation over processor ranks: it
// returns the exclusive prefix (fold of the values of ranks < mine) and
// the grand total. Monoid commutativity is not required here; values are
// folded in rank order.
func Scan[T any](pr *cgm.Proc, label string, m semigroup.Monoid[T], local T) (prefix, total T) {
	vals := AllGatherFlat(pr, label, []T{local})
	prefix = m.Identity
	total = m.Identity
	for i, v := range vals {
		if i < pr.Rank() {
			prefix = m.Combine(prefix, v)
		}
		total = m.Combine(total, v)
	}
	return prefix, total
}

// CountScan is the common integer special case of Scan for slice lengths:
// it returns this processor's exclusive global offset and the global total.
func CountScan(pr *cgm.Proc, label string, localLen int) (offset, total int) {
	local := cgm.Alloc[int](pr.Arena(), 1)
	local[0] = localLen
	for i, l := range AllGather(pr, label, local) {
		if i < pr.Rank() {
			offset += l[0]
		}
		total += l[0]
	}
	return offset, total
}

// SegItem is one item of a segmented broadcast: Val must reach every
// processor in [DstLo, DstHi].
type SegItem[T any] struct {
	Val          T
	DstLo, DstHi int
}

// SegmentedBroadcast is the paper's segmented broadcast: every processor
// contributes items addressed to processor intervals; each processor
// receives (in deterministic source-rank order) every item whose interval
// covers it. Algorithm Report uses it to spread query copies across the
// processors responsible for slices of a selected segment tree.
func SegmentedBroadcast[T any](pr *cgm.Proc, label string, items []SegItem[T]) []T {
	p := pr.P()
	out := cgm.Alloc[[]T](pr.Arena(), p)
	for _, it := range items {
		lo, hi := it.DstLo, it.DstHi
		if lo < 0 {
			lo = 0
		}
		if hi > p-1 {
			hi = p - 1
		}
		for j := lo; j <= hi; j++ {
			out[j] = append(out[j], it.Val)
		}
	}
	in := cgm.Exchange(pr, label, out)
	var flat []T
	for _, s := range in {
		flat = append(flat, s...)
	}
	return flat
}

// SegmentedGather is the inverse operation: every processor contributes
// items tagged with a destination processor; each destination receives its
// items in source-rank order. (A restricted personalized all-to-all, kept
// for completeness with the paper's operation list.) dest is called once
// per item, in order. The result is arena-backed: valid until the
// machine's next Run.
func SegmentedGather[T any](pr *cgm.Proc, label string, items []T, dest func(T) int) []T {
	p, a := pr.P(), pr.Arena()
	// Resolve the destinations first so every row is carved once at its
	// final size.
	dests := cgm.Alloc[int32](a, len(items))
	counts := cgm.Alloc[int](a, p)
	for i, it := range items {
		d := dest(it)
		if d < 0 || d >= p {
			panic(fmt.Sprintf("comm: %s: destination %d out of range", label, d))
		}
		dests[i] = int32(d)
		counts[d]++
	}
	out := cgm.Alloc[[]T](a, p)
	for d, c := range counts {
		out[d] = cgm.Alloc[T](a, c)[:0]
	}
	for i, it := range items {
		out[dests[i]] = append(out[dests[i]], it)
	}
	in := cgm.Exchange(pr, label, out)
	total := 0
	for _, s := range in {
		total += len(s)
	}
	flat := cgm.Alloc[T](a, total)[:0]
	for _, s := range in {
		flat = append(flat, s...)
	}
	return flat
}

// Rebalance redistributes the globally ordered data (processor rank major,
// local order minor) so every processor ends with a contiguous block of
// ⌈N/p⌉ or ⌊N/p⌋ elements, preserving global order. One h-relation with
// h ≤ ⌈N/p⌉ plus the counting round.
func Rebalance[T any](pr *cgm.Proc, label string, local []T) []T {
	p := pr.P()
	offset, total := CountScan(pr, label+"/count", len(local))
	in := cgm.Exchange(pr, label, BlockPartition(local, offset, total, p))
	return slices.Concat(in...)
}

// BlockPartition cuts a run of globally ordered items (this processor's
// run starts at global position offset of total items) at the block
// boundaries — the emit half of Rebalance, exported so the
// worker-resident construct can run it worker-side. Block j is one
// contiguous stretch of local, so the result is views into it, each
// capacity-clipped so an append to one block cannot write into the next.
// Positions at or past total belong to the last block.
func BlockPartition[T any](local []T, offset, total, p int) [][]T {
	out := make([][]T, p)
	lo := 0
	for j := range out {
		// Block boundaries: processor j owns [j*total/p, (j+1)*total/p).
		hi := len(local)
		if j < p-1 {
			hi = min(max(blockStart(j+1, total, p)-offset, lo), hi)
		}
		out[j] = local[lo:hi:hi]
		lo = hi
	}
	return out
}

// blockStart is the first global position of processor j's block.
func blockStart(j, n, p int) int { return j * n / p }
