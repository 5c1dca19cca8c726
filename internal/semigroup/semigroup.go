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

// MinFloat is the (ℝ ∪ {+∞}, min) monoid.
func MinFloat() Monoid[float64] {
	return Monoid[float64]{Identity: math.Inf(1), Combine: math.Min}
}

// MaxInt is the (int64, max) monoid with identity math.MinInt64.
func MaxInt() Monoid[int64] {
	return Monoid[int64]{Identity: math.MinInt64, Combine: func(a, b int64) int64 {
		if a > b {
			return a
		}
		return b
	}}
}

// MinInt is the (int64, min) monoid with identity math.MaxInt64.
func MinInt() Monoid[int64] {
	return Monoid[int64]{Identity: math.MaxInt64, Combine: func(a, b int64) int64 {
		if a < b {
			return a
		}
		return b
	}}
}

// Arg is a value tagged with the identity of the point that produced it,
// for argmax/argmin style aggregates.
type Arg struct {
	ID  int32 // point ID, -1 for the identity element
	Val float64
}

// ArgMax is the monoid that tracks the maximum value together with the
// point that attains it (smallest ID wins ties, keeping it commutative).
func ArgMax() Monoid[Arg] {
	return Monoid[Arg]{
		Identity: Arg{ID: -1, Val: math.Inf(-1)},
		Combine: func(a, b Arg) Arg {
			switch {
			case a.Val > b.Val:
				return a
			case b.Val > a.Val:
				return b
			case a.ID == -1:
				return b
			case b.ID == -1 || a.ID < b.ID:
				return a
			default:
				return b
			}
		},
	}
}

// Stats accumulates count, sum, min and max in one pass; it shows that
// product monoids compose.
type Stats struct {
	Count    int64
	Sum      float64
	Min, Max float64
}

// StatsMonoid is the product monoid over Stats.
func StatsMonoid() Monoid[Stats] {
	return Monoid[Stats]{
		Identity: Stats{Min: math.Inf(1), Max: math.Inf(-1)},
		Combine: func(a, b Stats) Stats {
			return Stats{
				Count: a.Count + b.Count,
				Sum:   a.Sum + b.Sum,
				Min:   math.Min(a.Min, b.Min),
				Max:   math.Max(a.Max, b.Max),
			}
		},
	}
}

// One is a Stats observation for a single weighted point.
func One(w float64) Stats { return Stats{Count: 1, Sum: w, Min: w, Max: w} }
