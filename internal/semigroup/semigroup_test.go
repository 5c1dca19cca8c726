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
	if MaxFloat().Inverse != nil || MinFloat().Inverse != nil || MaxInt().Inverse != nil ||
		MinInt().Inverse != nil || ArgMax().Inverse != nil || StatsMonoid().Inverse != nil {
		t.Error("min, max, argmax and Stats have no inverse")
	}
}

func TestMinMaxIdentities(t *testing.T) {
	if MaxInt().Fold() != math.MinInt64 {
		t.Error("MaxInt identity wrong")
	}
	if MinInt().Fold() != math.MaxInt64 {
		t.Error("MinInt identity wrong")
	}
	if !math.IsInf(MaxFloat().Fold(), -1) {
		t.Error("MaxFloat identity wrong")
	}
	if !math.IsInf(MinFloat().Fold(), 1) {
		t.Error("MinFloat identity wrong")
	}
	if MaxInt().Fold(3, -7, 5) != 5 || MinInt().Fold(3, -7, 5) != -7 {
		t.Error("MaxInt/MinInt combine wrong")
	}
}

func TestArgMax(t *testing.T) {
	m := ArgMax()
	got := m.Fold(Arg{3, 1.5}, Arg{1, 2.5}, Arg{2, 2.5})
	if got.ID != 1 || got.Val != 2.5 {
		t.Errorf("ArgMax = %+v, want {1 2.5}", got)
	}
	if m.Fold().ID != -1 {
		t.Error("ArgMax identity should have ID -1")
	}
	// Commutativity on ties.
	a, b := Arg{5, 1.0}, Arg{9, 1.0}
	if m.Combine(a, b) != m.Combine(b, a) {
		t.Error("ArgMax not commutative on ties")
	}
}

func TestStatsMonoid(t *testing.T) {
	m := StatsMonoid()
	s := m.Fold(One(3), One(-1), One(7))
	if s.Count != 3 || s.Sum != 9 || s.Min != -1 || s.Max != 7 {
		t.Errorf("Stats = %+v", s)
	}
	id := m.Fold()
	if id.Count != 0 || id.Sum != 0 {
		t.Errorf("Stats identity = %+v", id)
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
	checkMonoidLaws(t, "MaxInt", MaxInt(), func(r *rand.Rand) int64 { return r.Int63n(1000) - 500 }, eqI)
	checkMonoidLaws(t, "MinInt", MinInt(), func(r *rand.Rand) int64 { return r.Int63n(1000) - 500 }, eqI)
	checkMonoidLaws(t, "MaxFloat", MaxFloat(), func(r *rand.Rand) float64 { return float64(r.Intn(100)) }, eqF)
	checkMonoidLaws(t, "MinFloat", MinFloat(), func(r *rand.Rand) float64 { return float64(r.Intn(100)) }, eqF)
	checkMonoidLaws(t, "ArgMax", ArgMax(),
		func(r *rand.Rand) Arg { return Arg{ID: int32(r.Intn(5)), Val: float64(r.Intn(4))} },
		func(a, b Arg) bool { return a == b })
	checkMonoidLaws(t, "Stats", StatsMonoid(),
		func(r *rand.Rand) Stats { return One(float64(r.Intn(9)) - 4) },
		func(a, b Stats) bool { return a == b })
}
