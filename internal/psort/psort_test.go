package psort

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/cgm"
)

type rec struct {
	Key, ID int
}

func lessRec(a, b rec) bool {
	if a.Key != b.Key {
		return a.Key < b.Key
	}
	return a.ID < b.ID
}

// runSort distributes vals round-robin over p procs, sorts, and returns
// the concatenation in rank order plus the per-proc block sizes.
func runSort(t *testing.T, p int, vals []rec) ([]rec, []int) {
	t.Helper()
	m := cgm.New(cgm.Config{P: p})
	blocks := make([][]rec, p)
	m.Run(func(pr *cgm.Proc) {
		var local []rec
		for i := pr.Rank(); i < len(vals); i += p {
			local = append(local, vals[i])
		}
		blocks[pr.Rank()] = Sort(pr, "sort", local, lessRec)
	})
	var flat []rec
	sizes := make([]int, p)
	for i, b := range blocks {
		sizes[i] = len(b)
		flat = append(flat, b...)
	}
	return flat, sizes
}

func TestSortMatchesSequential(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(8)
		n := rng.Intn(200)
		vals := make([]rec, n)
		for i := range vals {
			vals[i] = rec{Key: rng.Intn(20), ID: i}
		}
		got, sizes := runSort(t, p, vals)
		want := append([]rec(nil), vals...)
		sort.Slice(want, func(i, j int) bool { return lessRec(want[i], want[j]) })
		if !reflect.DeepEqual(got, want) {
			return false
		}
		// Balance: block sizes differ by at most one.
		mn, mx := n, 0
		for _, s := range sizes {
			if s < mn {
				mn = s
			}
			if s > mx {
				mx = s
			}
		}
		return mx-mn <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSortDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	vals := make([]rec, 500)
	for i := range vals {
		vals[i] = rec{Key: rng.Intn(10), ID: i}
	}
	a, _ := runSort(t, 5, vals)
	b, _ := runSort(t, 5, vals)
	if !reflect.DeepEqual(a, b) {
		t.Error("sort not deterministic across runs")
	}
}

func TestSortEmptyAndSingle(t *testing.T) {
	if got, _ := runSort(t, 4, nil); len(got) != 0 {
		t.Error("empty sort should stay empty")
	}
	got, _ := runSort(t, 4, []rec{{Key: 9, ID: 0}})
	if len(got) != 1 || got[0].Key != 9 {
		t.Errorf("single-element sort = %v", got)
	}
}

func TestSortAllEqualKeys(t *testing.T) {
	vals := make([]rec, 64)
	for i := range vals {
		vals[i] = rec{Key: 7, ID: i}
	}
	got, sizes := runSort(t, 4, vals)
	for i, v := range got {
		if v.ID != i {
			t.Fatalf("tie order broken at %d: %v", i, v)
		}
	}
	for _, s := range sizes {
		if s != 16 {
			t.Fatalf("unbalanced under equal keys: %v", sizes)
		}
	}
}

func TestSortDoesNotMutateInput(t *testing.T) {
	m := cgm.New(cgm.Config{P: 2})
	m.Run(func(pr *cgm.Proc) {
		local := []rec{{3, 0}, {1, 1}, {2, 2}}
		Sort(pr, "s", local, lessRec)
		if local[0].Key != 3 {
			t.Error("Sort mutated the caller's slice")
		}
	})
}

func TestSortConstantRounds(t *testing.T) {
	// The paper uses sort as a black box costing O(1) h-relations; verify
	// the round count is independent of n.
	rounds := func(n int) int {
		m := cgm.New(cgm.Config{P: 4})
		m.Run(func(pr *cgm.Proc) {
			local := make([]rec, n/4)
			for i := range local {
				local[i] = rec{Key: (i*7 + pr.Rank()) % 101, ID: pr.Rank()*n + i}
			}
			Sort(pr, "s", local, lessRec)
		})
		return m.Metrics().CommRounds()
	}
	r1, r2 := rounds(400), rounds(4000)
	if r1 != r2 {
		t.Errorf("rounds vary with n: %d vs %d", r1, r2)
	}
	if r1 > 5 {
		t.Errorf("sample sort uses %d rounds, want ≤ 5", r1)
	}
}

func TestSortHBound(t *testing.T) {
	// Regular sampling bounds every processor's receive volume by ~2N/p
	// once N/p ≥ p²; check a comfortable 3N/p.
	n, p := 8192, 8
	m := cgm.New(cgm.Config{P: p})
	rng := rand.New(rand.NewSource(1))
	all := make([]rec, n)
	for i := range all {
		all[i] = rec{Key: rng.Intn(1 << 20), ID: i}
	}
	m.Run(func(pr *cgm.Proc) {
		var local []rec
		for i := pr.Rank(); i < n; i += p {
			local = append(local, all[i])
		}
		Sort(pr, "s", local, lessRec)
	})
	if h := m.Metrics().MaxH(); h > 3*n/p {
		t.Errorf("MaxH = %d, want ≤ %d", h, 3*n/p)
	}
}

func TestIsGloballySorted(t *testing.T) {
	m := cgm.New(cgm.Config{P: 3})
	var ok1, ok2 [3]bool
	m.Run(func(pr *cgm.Proc) {
		sorted := []int{pr.Rank() * 10, pr.Rank()*10 + 5}
		ok1[pr.Rank()] = IsGloballySorted(pr, "chk1", sorted, func(a, b int) bool { return a < b })
		broken := []int{100 - pr.Rank()}
		ok2[pr.Rank()] = IsGloballySorted(pr, "chk2", broken, func(a, b int) bool { return a < b })
	})
	for i := 0; i < 3; i++ {
		if !ok1[i] {
			t.Error("sorted data reported unsorted")
		}
		if ok2[i] {
			t.Error("unsorted data reported sorted")
		}
	}
}

func TestIsGloballySortedLocalViolation(t *testing.T) {
	m := cgm.New(cgm.Config{P: 2})
	m.Run(func(pr *cgm.Proc) {
		bad := []int{2, 1}
		if IsGloballySorted(pr, "chk", bad, func(a, b int) bool { return a < b }) {
			t.Error("local violation missed")
		}
	})
}

// crec has the shape of core's construct records: a point (ID and
// coordinates, behind a slice header) and a tree label.
type crec struct {
	ID  int32
	X   []int32
	Key string
}

// TestSortLocalMatchesStableSort: on construct-shaped records with heavy
// key and coordinate ties but unique IDs, pdqsort under construct's
// (key, x_j, ID) order returns exactly what a stable sort returns — the
// order is total, so the sorted sequence is unique. Under an order that
// leaves ties (the key alone) it is still the same on every call.
func TestSortLocalMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(600)
		ids := rng.Perm(n)
		recs := make([]crec, n)
		for i := range recs {
			recs[i] = crec{
				ID:  int32(ids[i]),
				X:   []int32{int32(rng.Intn(4)), int32(rng.Intn(4))},
				Key: string(rune('a' + rng.Intn(3))),
			}
		}
		j := trial % 2
		less := func(a, b crec) bool {
			if a.Key != b.Key {
				return a.Key < b.Key
			}
			if a.X[j] != b.X[j] {
				return a.X[j] < b.X[j]
			}
			return a.ID < b.ID
		}
		got := slices.Clone(recs)
		SortLocal(got, less)
		want := slices.Clone(recs)
		sort.SliceStable(want, func(a, b int) bool { return less(want[a], want[b]) })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d): SortLocal differs from a stable sort", trial, n)
		}

		byKey := func(a, b crec) bool { return a.Key < b.Key }
		once, twice := slices.Clone(recs), slices.Clone(recs)
		SortLocal(once, byKey)
		SortLocal(twice, byKey)
		if !reflect.DeepEqual(once, twice) {
			t.Fatalf("trial %d: SortLocal with ties is not deterministic", trial)
		}
	}
}

// TestMergeRunsMatchesStableSort: merging 0–9 sorted runs, some of them
// empty, under an order with ties equals a stable sort of their
// concatenation — every pass count parity, earlier runs winning ties.
func TestMergeRunsMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	byKey := func(a, b rec) bool { return a.Key < b.Key }
	for trial := 0; trial < 500; trial++ {
		runs := make([][]rec, trial%10)
		var all []rec
		for i := range runs {
			if rng.Intn(3) > 0 {
				runs[i] = make([]rec, rng.Intn(30))
			}
			for k := range runs[i] {
				runs[i][k] = rec{Key: rng.Intn(8), ID: len(all) + k}
			}
			sort.SliceStable(runs[i], func(a, b int) bool { return byKey(runs[i][a], runs[i][b]) })
			all = append(all, runs[i]...)
		}
		before := slices.Concat(runs...)
		got := MergeRuns(runs, byKey)
		sort.SliceStable(all, func(a, b int) bool { return byKey(all[a], all[b]) })
		if len(got) != len(all) || (len(all) > 0 && !reflect.DeepEqual(got, all)) {
			t.Fatalf("trial %d (%d runs): MergeRuns = %v, want %v", trial, len(runs), got, all)
		}
		if !reflect.DeepEqual(slices.Concat(runs...), before) {
			t.Fatalf("trial %d: MergeRuns wrote into its input runs", trial)
		}
	}
}

func TestSortInPlaceMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	vals := make([]rec, 300)
	for i := range vals {
		vals[i] = rec{Key: rng.Intn(12), ID: i}
	}
	const p = 4
	run := func(inplace bool) []rec {
		m := cgm.New(cgm.Config{P: p})
		blocks := make([][]rec, p)
		m.Run(func(pr *cgm.Proc) {
			var local []rec
			for i := pr.Rank(); i < len(vals); i += p {
				local = append(local, vals[i])
			}
			if inplace {
				blocks[pr.Rank()] = SortInPlace(pr, "sort", local, lessRec)
			} else {
				blocks[pr.Rank()] = Sort(pr, "sort", local, lessRec)
			}
		})
		var flat []rec
		for _, b := range blocks {
			flat = append(flat, b...)
		}
		return flat
	}
	if !reflect.DeepEqual(run(false), run(true)) {
		t.Error("SortInPlace result differs from Sort")
	}
}
