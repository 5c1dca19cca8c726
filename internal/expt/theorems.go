package expt

import (
	"fmt"
	"math"
	"time"

	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/rangetree"
	"repro/internal/semigroup"
	"repro/internal/workload"
)

// Scale selects experiment sizes: Quick for CI-sized runs, Full for the
// sizes recorded in EXPERIMENTS.md.
type Scale int

const (
	Quick Scale = iota
	Full
)

func log2i(x int) int {
	l := 0
	for x > 1 {
		x >>= 1
		l++
	}
	return l
}

func powi(b, e int) int {
	r := 1
	for i := 0; i < e; i++ {
		r *= b
	}
	return r
}

// buildMeasured constructs a distributed tree on a Measured machine and
// returns it with its construction metrics snapshot.
func buildMeasured(n, d, p int, seed int64) (*core.Tree, cgm.Metrics) {
	pts := workload.Points(workload.PointSpec{N: n, Dims: d, Dist: workload.Uniform, Seed: seed})
	mach := cgm.New(cgm.Config{P: p, Mode: cgm.Measured})
	dt := core.Build(mach, pts)
	return dt, mach.Metrics()
}

// T1 measures Theorem 1: the hat has size O(p·log^(d-1) p) = O(s/p) and
// every forest part F_i has size O(s/p).
func T1(sc Scale) *Table {
	t := &Table{
		ID:    "T1",
		Title: "Distributed structure sizes (Theorem 1)",
		Note: "s is the sequential range tree size (nodes). Expect |H|/(p·log^(d-1)p) " +
			"and max|F_i|/(s/p) to stay O(1) across the sweep, and |H| ≤ s/p in the " +
			"coarse-grained regime n ≥ p².",
		Header: []string{"n", "d", "p", "s(seq nodes)", "|H|", "|H|/(p·lg^(d-1)p)", "max|F_i|", "max|F_i|/(s/p)"},
	}
	ns := []int{1 << 10, 1 << 12}
	ps := []int{4, 8}
	ds := []int{1, 2, 3}
	if sc == Full {
		ns = []int{1 << 10, 1 << 12, 1 << 14}
		ps = []int{4, 8, 16}
	}
	for _, d := range ds {
		for _, n := range ns {
			if d >= 3 && n > 1<<12 {
				continue // keep d=3 runs affordable
			}
			pts := workload.Points(workload.PointSpec{N: n, Dims: d, Dist: workload.Uniform, Seed: 1})
			s := rangetree.Build(pts).Nodes()
			for _, p := range ps {
				mach := cgm.New(cgm.Config{P: p})
				dt := core.Build(mach, pts)
				hat := dt.HatNodeCount()
				parts, err := dt.ForestPartNodes()
				if err != nil {
					panic(err)
				}
				mx := 0
				for _, x := range parts {
					if x > mx {
						mx = x
					}
				}
				denom := float64(p * powi(log2i(p)+1, d-1))
				t.AddRow(n, d, p, s, hat,
					float64(hat)/denom,
					mx,
					float64(mx)/(float64(s)/float64(p)))
			}
		}
	}
	return t
}

// T2 measures Theorem 2 / Corollary 1: construction runs in O(s/p) local
// computation plus a constant number of h-relations with h = O(s/p).
func T2(sc Scale) *Table {
	t := &Table{
		ID:    "T2",
		Title: "Algorithm Construct (Theorem 2 / Corollary 1)",
		Note: "Rounds must be constant in n and p (8 exchanges per dimension: 4 inside " +
			"the black-box sort, plus runs/offset/route/roots). h·p/s should stay O(1); " +
			"modelled speedup = T_model(1)/T_model(p) should grow with p until the fixed " +
			"round latency dominates.",
		Header: []string{"n", "d", "p", "rounds", "max h", "h·p/s", "T_model", "speedup", "efficiency"},
	}
	n, d := 1<<12, 2
	ps := []int{1, 2, 4, 8}
	if sc == Full {
		n = 1 << 14
		ps = []int{1, 2, 4, 8, 16}
	}
	var base time.Duration
	pts := workload.Points(workload.PointSpec{N: n, Dims: d, Dist: workload.Uniform, Seed: 2})
	s := rangetree.Build(pts).Nodes()
	for _, p := range ps {
		_, mt := buildMeasured(n, d, p, 2)
		model := mt.ModelTime(cgm.DefaultG, cgm.DefaultL)
		if p == 1 {
			base = model
		}
		speedup := float64(base) / float64(model)
		t.AddRow(n, d, p, mt.CommRounds(), mt.MaxH(),
			float64(mt.MaxH())*float64(p)/float64(s),
			model.Round(time.Microsecond).String(),
			speedup, speedup/float64(p))
	}
	return t
}

// T3 measures Theorem 3 / Corollary 2: n queries are answered with O(s·log
// n/p) local work and a constant number of h-relations.
func T3(sc Scale) *Table {
	t := &Table{
		ID:    "T3",
		Title: "Algorithm Search: n independent queries (Theorem 3 / Corollary 2)",
		Note: "Counting mode over a batch of m = n queries. Rounds are constant (3: " +
			"the demand all-gather, the copies with the routed subqueries, the " +
			"partials to their homes); modelled speedup grows with p.",
		Header: []string{"n", "d", "p", "m", "rounds", "max h", "T_model", "speedup"},
	}
	n, d := 1<<12, 2
	ps := []int{1, 2, 4, 8}
	if sc == Full {
		n = 1 << 14
		ps = []int{1, 2, 4, 8, 16}
	}
	boxes := workload.Boxes(workload.QuerySpec{M: n, Dims: d, N: n, Selectivity: 0.001, Seed: 3})
	var base time.Duration
	for _, p := range ps {
		dt, _ := buildMeasured(n, d, p, 3)
		dt.Machine().ResetMetrics()
		dt.CountBatch(boxes)
		mt := dt.Machine().Metrics()
		model := mt.ModelTime(cgm.DefaultG, cgm.DefaultL)
		if p == 1 {
			base = model
		}
		t.AddRow(n, d, p, len(boxes), mt.CommRounds(), mt.MaxH(),
			model.Round(time.Microsecond).String(),
			float64(base)/float64(model))
	}
	return t
}

// T4a measures the associative-function mode of Theorem 4 with the
// weighted-sum semigroup.
func T4a(sc Scale) *Table {
	t := &Table{
		ID:    "T4a",
		Title: "Associative-function mode (Theorem 4): weighted sum per query",
		Note: "Precomputation (f(v) bottom-up in dimension d + all-to-all broadcast of " +
			"forest roots) is one extra round; each batch then costs the Search bound. " +
			"Results are checked against the counting mode run on the same boxes.",
		Header: []string{"n", "d", "p", "m", "prep rounds", "batch rounds", "T_model(batch)", "checksum"},
	}
	n, d := 1<<11, 2
	ps := []int{2, 4, 8}
	if sc == Full {
		n = 1 << 13
		ps = []int{2, 4, 8, 16}
	}
	boxes := workload.Boxes(workload.QuerySpec{M: n / 2, Dims: d, N: n, Selectivity: 0.01, Seed: 4})
	for _, p := range ps {
		dt, _ := buildMeasured(n, d, p, 4)
		dt.Machine().ResetMetrics()
		h := core.PrepareAssociative(dt, semigroup.FloatSum(), workload.WeightOf)
		prep := dt.Machine().Metrics().CommRounds()
		dt.Machine().ResetMetrics()
		sums := h.Batch(boxes)
		mt := dt.Machine().Metrics()
		sum := 0.0
		for _, v := range sums {
			sum += v
		}
		t.AddRow(n, d, p, len(boxes), prep, mt.CommRounds(),
			mt.ModelTime(cgm.DefaultG, cgm.DefaultL).Round(time.Microsecond).String(),
			fmt.Sprintf("%.1f", sum))
	}
	return t
}

// T4b measures the report mode of Theorem 4: the extra O(k/p) term and the
// per-processor output balance.
func T4b(sc Scale) *Table {
	t := &Table{
		ID:    "T4b",
		Title: "Report mode (Theorem 4 / Corollary 3): output-sensitive cost and k/p balance",
		Note: "k is the total number of (query, point) pairs. Every processor must " +
			"materialize ≈ k/p of them: balance = max_i pairs_i / (k/p) should stay " +
			"near 1 as selectivity (and hence k) grows.",
		Header: []string{"n", "p", "selectivity", "k", "max pairs/proc", "balance", "T_model"},
	}
	n, d, p := 1<<11, 2, 8
	if sc == Full {
		n = 1 << 13
	}
	dt, _ := buildMeasured(n, d, p, 5)
	for _, sel := range []float64{0.001, 0.01, 0.05, 0.1} {
		boxes := workload.Boxes(workload.QuerySpec{M: 256, Dims: d, N: n, Selectivity: sel, Seed: 5})
		dt.Machine().ResetMetrics()
		results, perProc := dt.ReportBatchBalance(boxes)
		mt := dt.Machine().Metrics()
		k := 0
		for _, r := range results {
			k += len(r)
		}
		mx := 0
		for _, c := range perProc {
			if c > mx {
				mx = c
			}
		}
		balanceRatio := math.NaN()
		if k > 0 {
			balanceRatio = float64(mx) / (float64(k) / float64(p))
		}
		t.AddRow(n, p, sel, k, mx, balanceRatio,
			mt.ModelTime(cgm.DefaultG, cgm.DefaultL).Round(time.Microsecond).String())
	}
	return t
}
