package segtree

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// This file implements the node labeling of Definition 2 and Lemma 1.
//
// Within one segment tree, Index follows heap arithmetic: the root of the
// primary tree T' has Index 1; a left child doubles its parent's Index, a
// right child doubles it and adds one; and the root of any non-primary
// segment tree inherits Index(ancestor(v)) — the Index of the node whose
// descendant tree it roots.
//
// Because the absolute Index grows like (2n)^d it can overflow machine
// words for large inputs, so production code identifies nodes by Path — the
// chain ⟨(index, level)⟩ of heap positions along the ancestor chain across
// dimensions — encoded compactly as a byte string (PathKey). The numeric
// Index is still provided for small trees and for the tests that verify
// Definition 2 literally.

// Index computes the paper's absolute Index of a node whose segment tree
// is anchored at a node of absolute index anchor: descending δ levels from
// the tree root multiplies the anchor by 2^δ and adds the heap offset.
// Definition 2(ii): the root of a descendant tree inherits the anchor's
// Index, and each child step doubles (+1 for right children).
func Index(anchor uint64, heap int) uint64 {
	d := uint(Depth(heap))
	return anchor<<d + uint64(heap) - 1<<d
}

// PathKey is the byte-encoded Path(v): the sequence of heap indices of the
// ancestor chain from dimension 1 down to v's own segment tree, followed by
// v's heap index. Two nodes share a PathKey prefix exactly when one's
// segment tree contains the other's anchor chain; the full PathKey uniquely
// identifies a node of the range tree (Lemma 1).
type PathKey string

// RootPathKey is the PathKey of the primary tree's anchor (the empty
// chain).
const RootPathKey PathKey = ""

// Extend appends the heap index of one more chain element to a PathKey.
// Appending the anchor node u of a descendant tree to Path(u)'s own key
// yields the key that names that descendant tree (Lemma 1: path(ancestor)
// uniquely identifies the tree).
func (k PathKey) Extend(heap int) PathKey {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(heap))
	return k + PathKey(buf[:n])
}

// Components decodes the chain of heap indices in the key.
func (k PathKey) Components() []uint64 {
	var out []uint64
	b := []byte(k)
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			panic("segtree: corrupt PathKey")
		}
		out = append(out, v)
		b = b[n:]
	}
	return out
}

// String renders the key human-readably, e.g. "⟨1.5.12⟩".
func (k PathKey) String() string {
	comps := k.Components()
	if len(comps) == 0 {
		return "⟨root⟩"
	}
	parts := make([]string, len(comps))
	for i, c := range comps {
		parts[i] = fmt.Sprintf("%d", c)
	}
	return "⟨" + strings.Join(parts, ".") + "⟩"
}

// Dim reports which dimension a tree named by this key lives in: the
// primary tree (empty key) is dimension 1, and each chain element descends
// one dimension.
func (k PathKey) Dim() int { return len(k.Components()) + 1 }
