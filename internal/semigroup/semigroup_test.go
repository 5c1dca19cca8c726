package semigroup

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIntSumBasics(t *testing.T) {
	m := IntSum()
	if got := m.Fold(1, 2, 3); got != 6 {
		t.Errorf("Fold = %d, want 6", got)
	}
	if got := m.Fold(); got != 0 {
		t.Errorf("empty Fold = %d, want identity 0", got)
	}
}

// TestOnlySumsAreGroups pins which monoids select the prefix-table layout
// of layered.Agg and which dominance.New accepts.
func TestOnlySumsAreGroups(t *testing.T) {
	if IntSum().Inverse == nil || FloatSum().Inverse == nil {
		t.Error("IntSum and FloatSum must carry an inverse")
	}
	if MaxFloat().Inverse != nil {
		t.Error("max has no inverse")
	}
}

func TestMinMaxIdentities(t *testing.T) {
	if !math.IsInf(MaxFloat().Fold(), -1) {
		t.Error("MaxFloat identity wrong")
	}
	if MaxFloat().Fold(3, -7, 5) != 5 {
		t.Error("MaxFloat combine wrong")
	}
}

// checkMonoidLaws verifies identity, associativity and commutativity on
// random triples drawn by gen, using eq for comparison, and the inverse law
// when the monoid is a group.
func checkMonoidLaws[T any](t *testing.T, name string, m Monoid[T], gen func(r *rand.Rand) T, eq func(a, b T) bool) {
	t.Helper()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := gen(r), gen(r), gen(r)
		if !eq(m.Combine(m.Identity, a), a) || !eq(m.Combine(a, m.Identity), a) {
			return false
		}
		if m.Inverse != nil && !eq(m.Combine(a, m.Inverse(a)), m.Identity) {
			return false
		}
		if !eq(m.Combine(a, b), m.Combine(b, a)) {
			return false
		}
		return eq(m.Combine(m.Combine(a, b), c), m.Combine(a, m.Combine(b, c)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Errorf("%s monoid laws violated: %v", name, err)
	}
}

func TestMonoidLaws(t *testing.T) {
	eqI := func(a, b int64) bool { return a == b }
	eqF := func(a, b float64) bool { return a == b }
	checkMonoidLaws(t, "IntSum", IntSum(), func(r *rand.Rand) int64 { return r.Int63n(1000) - 500 }, eqI)
	checkMonoidLaws(t, "FloatSum", FloatSum(), func(r *rand.Rand) float64 { return float64(r.Intn(1000)-500) / 4 }, eqF)
	checkMonoidLaws(t, "MaxFloat", MaxFloat(), func(r *rand.Rand) float64 { return float64(r.Intn(100)) }, eqF)
}
