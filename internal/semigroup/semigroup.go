// Package semigroup provides the commutative-semigroup abstraction used by
// the associative-function search mode (§4.2 of the paper): the outcome of a
// query q is ⊗_{l∈R(q)} f(l) for a commutative operation ⊗.
//
// Implementations are expressed as monoids (a semigroup plus identity): the
// identity is what an empty query range evaluates to, and it also lets tree
// nodes over padding leaves carry a neutral annotation. Every classical
// semigroup used in range searching (count, sum, max, min, argmax) extends
// to a monoid, so no generality relevant to the paper is lost.
package semigroup

import "math"

// Monoid is a commutative monoid over T: Combine must be associative and
// commutative, and Combine(Identity, x) == x for all x.
type Monoid[T any] struct {
	// Identity is the neutral element (value of an empty range).
	Identity T
	// Combine folds two partial results into one.
	Combine func(a, b T) T
	// Inverse, when set, makes the monoid a commutative group:
	// Combine(x, Inverse(x)) == Identity for all x. It is what the paper's
	// footnote 2 calls "associative functions with inverses", the case
	// prefix differences answer: dominance counting, and layered.Agg's
	// prefix tables. nil means the monoid is not a group.
	Inverse func(T) T
}

// Fold combines all values with the monoid, returning Identity for an
// empty slice.
func (m Monoid[T]) Fold(vals ...T) T {
	acc := m.Identity
	for _, v := range vals {
		acc = m.Combine(acc, v)
	}
	return acc
}

// IntSum is the (ℤ, +) group; with the constant-1 value function it
// realises the paper's counting mode.
func IntSum() Monoid[int64] {
	return Monoid[int64]{
		Identity: 0,
		Combine:  func(a, b int64) int64 { return a + b },
		Inverse:  func(x int64) int64 { return -x },
	}
}

// FloatSum is the (ℝ, +) group for weighted aggregation. Its inverse is
// exact only on finite values: an infinite or NaN weight makes prefix
// differences NaN.
func FloatSum() Monoid[float64] {
	return Monoid[float64]{
		Identity: 0,
		Combine:  func(a, b float64) float64 { return a + b },
		Inverse:  func(x float64) float64 { return -x },
	}
}

// MaxFloat is the (ℝ ∪ {-∞}, max) monoid.
func MaxFloat() Monoid[float64] {
	return Monoid[float64]{Identity: math.Inf(-1), Combine: math.Max}
}
