// Package psort implements the sixth of the paper's standard operations:
// parallel sort, used as a black box ("Goodrich's communication-efficient
// sort can realize the communication operations in a constant number of
// h-relations", §1). The implementation is deterministic sample sort with
// regular sampling: a constant number of exchanges, each an h-relation
// with h = O(N/p) once N/p ≥ p² (the coarse-grained assumption s/p ≥ p the
// paper also makes).
//
// The phases — local sort, sample selection, splitter derivation,
// partition, merge — are exported individually. core's construct runs them
// around its own keyed local sort of the S^j records, on the rank's forest
// part (worker-side steps on a resident machine), with only the p² samples
// and splitters crossing the coordinator.
//
// Every less a caller passes must be a strict total order: no two distinct
// elements compare equal (break ties — e.g. by point ID). Under that
// contract a sorted sequence is unique, so SortLocal may use an unstable
// sort (pdqsort) and still return exactly what any stable sort would:
// splitters, partitions and the result do not depend on which sorting
// algorithm ran or on the order of its input.
//
// Keys already packed into machine words take the package's radix kernel
// instead (RadixWords, RadixKey2: construct's local sort, the layered
// tree's per-dimension orders, the report grouping). It is a stable LSD
// radix over the bits the caller names, and its contract is the same
// uniqueness by other means: the caller keeps an index that increases
// with input position in the bits the kernel does not sort on, so every
// key is distinct and the kernel returns the one sorted sequence of the
// whole keys, whether it runs its passes or, on a short input, pdqsort.
package psort

import (
	"math/bits"
	"slices"
	"sort"

	"repro/internal/cgm"
	"repro/internal/comm"
)

// cmpOf adapts a less into the three-way comparison slices.SortFunc
// wants. slices sorting is generic — no reflect.Swapper, no per-element
// interface boxing.
func cmpOf[T any](less func(a, b T) bool) func(a, b T) int {
	return func(a, b T) int {
		switch {
		case less(a, b):
			return -1
		case less(b, a):
			return 1
		default:
			return 0
		}
	}
}

// SortLocal sorts one processor's block in place — the local phase of the
// sample sort, and Splitters' sort of the gathered samples. pdqsort
// makes O(n log n) element moves where a stable sort's symMerge rotations
// make O(n log² n); it is deterministic, so even a less with ties orders a
// given input the same way on every rank and every run.
func SortLocal[T any](local []T, less func(a, b T) bool) {
	slices.SortFunc(local, cmpOf(less))
}

// Samples selects p evenly spaced regular samples from a locally sorted
// block: exactly p for any non-empty block, repeating elements when the
// block is shorter than p (one element and p = 4 give four copies of
// it), and none when it is empty.
func Samples[T any](own []T, p int) []T {
	samples := make([]T, 0, p)
	for k := 0; k < p; k++ {
		if len(own) == 0 {
			break
		}
		idx := (k*len(own) + len(own)/2) / p
		if idx >= len(own) {
			idx = len(own) - 1
		}
		samples = append(samples, own[idx])
	}
	return samples
}

// Splitters sorts the gathered samples and derives the p-1 regular
// splitters every processor agrees on. allSamples is sorted in place.
func Splitters[T any](allSamples []T, p int, less func(a, b T) bool) []T {
	SortLocal(allSamples, less)
	splitters := make([]T, 0, p-1)
	if len(allSamples) > 0 {
		for k := 1; k < p; k++ {
			idx := k * len(allSamples) / p
			if idx >= len(allSamples) {
				idx = len(allSamples) - 1
			}
			splitters = append(splitters, allSamples[idx])
		}
	}
	return splitters
}

// Partition splits a locally sorted block into p destination slots by the
// splitters (views into own, no copies). With no splitters everything
// lands in slot 0.
func Partition[T any](own []T, splitters []T, p int, less func(a, b T) bool) [][]T {
	out := make([][]T, p)
	if len(splitters) == 0 {
		out[0] = own
		return out
	}
	start := 0
	for j := 0; j < p; j++ {
		end := len(own)
		if j < len(splitters) {
			sp := splitters[j]
			end = start + sort.Search(len(own)-start, func(i int) bool {
				return !less(own[start+i], sp)
			})
		}
		out[j] = own[start:end]
		start = end
	}
	return out
}

// Sort globally sorts the distributed data: processor i contributes local
// and receives the i-th block of the sorted sequence, rebalanced to
// ⌈N/p⌉/⌊N/p⌋ elements. less must be a strict total order (break ties —
// e.g. by point ID — to keep the result deterministic). The caller's
// slice is left untouched; use SortInPlace to cede ownership and skip the
// defensive copy.
func Sort[T any](pr *cgm.Proc, label string, local []T, less func(a, b T) bool) []T {
	own := make([]T, len(local))
	copy(own, local)
	return SortInPlace(pr, label, own, less)
}

// SortInPlace is Sort without the defensive copy: the caller cedes
// ownership of local, which is sorted and partitioned in place (its
// contents after the call are unspecified).
func SortInPlace[T any](pr *cgm.Proc, label string, local []T, less func(a, b T) bool) []T {
	p := pr.P()
	SortLocal(local, less)
	// p == 1 still performs the (empty) collective sequence below so that
	// the number of communication rounds is identical for every machine
	// width — the invariant the round-count experiments verify.

	// Regular sampling: p evenly spaced local samples each, gathered
	// everywhere; every processor deterministically derives p-1 splitters.
	allSamples := comm.AllGatherFlat(pr, label+"/sample", Samples(local, p))
	splitters := Splitters(allSamples, p, less)

	// Partition the locally sorted run by the splitters and exchange.
	parts := cgm.Exchange(pr, label+"/route", Partition(local, splitters, p, less))

	// p-way merge of the sorted incoming runs (under a strict total order
	// no two elements tie, so the merge has no choice to make).
	merged := MergeRuns(parts, less)

	// Exact rebalance so every processor holds a same-sized block.
	return comm.Rebalance(pr, label+"/balance", merged)
}

// MergeRuns merges sorted runs stably (earlier runs win ties) into one
// new slice. Pairwise merge passes alternate between the result and one
// scratch array, the first pass reading the runs themselves; the pass
// count's parity picks which buffer the first pass writes, so the last
// one lands in the result and nothing is copied at the end.
func MergeRuns[T any](runs [][]T, less func(a, b T) bool) []T {
	total := 0
	live := make([][]T, 0, len(runs))
	for _, r := range runs {
		if len(r) > 0 {
			live = append(live, r)
			total += len(r)
		}
	}
	out := make([]T, total)
	if len(live) < 2 {
		for _, r := range live {
			copy(out, r)
		}
		return out
	}
	dst, spare := out, make([]T, total)
	if bits.Len(uint(len(live)-1))%2 == 0 { // ⌈log₂ runs⌉ passes
		dst, spare = spare, dst
	}
	for len(live) > 1 {
		next, at := live[:0], 0
		for i := 0; i < len(live); i += 2 {
			run := dst[at:]
			if i+1 == len(live) {
				run = run[:copy(run, live[i])]
			} else {
				run = run[:len(live[i])+len(live[i+1])]
				merge2(run, live[i], live[i+1], less)
			}
			next = append(next, run)
			at += len(run)
		}
		live, dst, spare = next, spare, dst
	}
	return out
}

// merge2 merges a and b into dst, which has exactly their combined length.
func merge2[T any](dst, a, b []T, less func(x, y T) bool) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if less(b[j], a[i]) {
			dst[k] = b[j]
			j++
		} else {
			dst[k] = a[i]
			i++
		}
		k++
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}

// boundary carries a processor's first and last element for the global
// sortedness check.
type boundary[T any] struct {
	Has         bool
	LocalOK     bool
	First, Last T
}

// IsGloballySorted verifies (with one all-gather of boundary elements)
// that the distributed data is globally sorted; tests and assertions use
// it.
func IsGloballySorted[T any](pr *cgm.Proc, label string, local []T, less func(a, b T) bool) bool {
	// The collective must run unconditionally (SPMD), so fold the local
	// verdict into the exchanged boundary record.
	e := boundary[T]{LocalOK: true}
	for i := 1; i < len(local); i++ {
		if less(local[i], local[i-1]) {
			e.LocalOK = false
		}
	}
	if len(local) > 0 {
		e.Has = true
		e.First, e.Last = local[0], local[len(local)-1]
	}
	edges := comm.AllGatherFlat(pr, label, []boundary[T]{e})
	ok := true
	var prev *T
	for i := range edges {
		if !edges[i].LocalOK {
			ok = false
		}
		if !edges[i].Has {
			continue
		}
		if prev != nil && less(edges[i].First, *prev) {
			ok = false
		}
		last := edges[i].Last
		prev = &last
	}
	return ok
}
