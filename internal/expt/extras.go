package expt

import (
	"fmt"
	"time"

	"repro/internal/brute"
	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/kdtree"
	"repro/internal/rangetree"
	"repro/internal/workload"
)

// E5 compares the sequential baselines the paper positions the range tree
// against (§1): k-D tree (optimal space, weak worst-case search) and
// linear scan.
func E5(sc Scale) *Table {
	t := &Table{
		ID:    "E5",
		Title: "Sequential baselines: range tree vs k-D tree vs scan (paper §1)",
		Note: "The paper's trade-off: the range tree spends n·log^(d-1) n space for a " +
			"polylog worst-case query, the k-D tree keeps O(n) space but pays " +
			"O(d·n^(1-1/d)) worst case. Compact 'square' boxes are the k-D tree's " +
			"friendly case (expect kd/rt < 1); 'slab' boxes — thin in one dimension, " +
			"unbounded in the rest — realize its worst case (expect kd/rt > 1, growing " +
			"with n). Both shapes beat the scan.",
		Header: []string{"n", "d", "shape", "rt nodes", "kd nodes", "rt µs/q", "kd µs/q", "scan µs/q", "kd/rt"},
	}
	ns := []int{1 << 12}
	if sc == Full {
		ns = []int{1 << 12, 1 << 14}
	}
	for _, d := range []int{2, 3} {
		for _, n := range ns {
			if d == 3 && n > 1<<12 {
				continue
			}
			pts := workload.Points(workload.PointSpec{N: n, Dims: d, Dist: workload.Uniform, Seed: 6})
			square := workload.Boxes(workload.QuerySpec{M: 400, Dims: d, N: n, Selectivity: 0.0005, Seed: 6})
			slabs := workload.SlabBoxes(400, d, n, 0.002, 6)
			rt := rangetree.Build(pts)
			kd := kdtree.Build(pts)
			bf := brute.New(pts)
			for _, shape := range []struct {
				name  string
				boxes []geom.Box
			}{{"square", square}, {"slab", slabs}} {
				boxes := shape.boxes
				time1 := func(f func()) float64 {
					start := time.Now()
					f()
					return float64(time.Since(start).Nanoseconds()) / 1000 / float64(len(boxes))
				}
				var sink int
				rtT := time1(func() {
					for _, b := range boxes {
						sink += rt.Count(b)
					}
				})
				kdT := time1(func() {
					for _, b := range boxes {
						sink += kd.Count(b)
					}
				})
				bfT := time1(func() {
					for _, b := range boxes {
						sink += bf.Count(b)
					}
				})
				_ = sink
				t.AddRow(n, d, shape.name, rt.Nodes(), kd.Nodes(), rtT, kdT, bfT, kdT/rtT)
			}
		}
	}
	return t
}

// E6 is the load-balancing ablation: Zipf-skewed query foci congest a few
// forest groups; the paper's c_j replication keeps the served load
// balanced where a no-replication strawman concentrates it on one owner.
func E6(sc Scale) *Table {
	t := &Table{
		ID:    "E6",
		Title: "Load balancing under query skew (Algorithm Search steps 2-4)",
		Note: "strawman = max_j demand_j / (D/p): the load factor if every subquery " +
			"went to its owner (no copies). balanced = max served / (D/p) under the " +
			"paper's plan of c_j copies per part, each copy holding only the elements " +
			"whose subqueries it serves; copied points = points shipped by value, cold. " +
			"The strawman degrades towards p under heavy skew (foci=1); balanced stays " +
			"near 1.",
		Header: []string{"n", "p", "foci", "D (subqueries)", "strawman", "balanced", "copied points"},
	}
	n, d, p := 1<<11, 2, 8
	if sc == Full {
		n = 1 << 13
	}
	dt, _ := buildMeasured(n, d, p, 7)
	dt.SetCopyCacheCap(-1) // cold: the volume column counts points shipped by value
	for _, foci := range []int{0, 4, 1} {
		boxes := workload.Boxes(workload.QuerySpec{
			M: n, Dims: d, N: n, Selectivity: 0.0005, Foci: foci, Theta: 1.5, Seed: 7,
		})
		dt.CountBatch(boxes)
		D, maxServed, copied := 0, 0, 0
		for _, s := range dt.LastSearchStats() {
			D += s.Served
			maxServed = max(maxServed, s.Served)
			copied += s.CopiedPoints
		}
		maxDemand := 0
		for _, x := range dt.LastDemand() {
			maxDemand = max(maxDemand, x)
		}
		fociLabel := "uniform"
		if foci > 0 {
			fociLabel = fmt.Sprint(foci)
		}
		if D == 0 {
			t.AddRow(n, p, fociLabel, 0, "-", "-", copied)
			continue
		}
		avg := float64(D) / float64(p)
		t.AddRow(n, p, fociLabel, D, float64(maxDemand)/avg, float64(maxServed)/avg, copied)
	}
	return t
}

// E7 audits every communication round of one build+search cycle against
// the h = O(s/p) bound of Corollaries 1–3.
func E7(sc Scale) *Table {
	n, d, p := 1<<11, 2, 4
	if sc == Full {
		n = 1 << 13
	}
	pts := workload.Points(workload.PointSpec{N: n, Dims: d, Dist: workload.Uniform, Seed: 8})
	s := rangetree.Build(pts).Nodes()
	mach := cgm.New(cgm.Config{P: p})
	dt := core.Build(mach, pts)
	boxes := workload.Boxes(workload.QuerySpec{M: n, Dims: d, N: n, Selectivity: 0.001, Seed: 8})
	dt.CountBatch(boxes)
	t := &Table{
		ID:    "E7",
		Title: "h-relation audit: every round of construct + search (Corollaries 1-3)",
		Note: fmt.Sprintf("s/p = %d for n=%d, d=%d, p=%d. Every round's h must be O(s/p); "+
			"the table shows h·p/s per round (aggregated by collective label).", s/p, n, d, p),
		Header: []string{"round (collective)", "occurrences", "max h", "h·p/s"},
	}
	type agg struct {
		count, maxH int
	}
	order := []string{}
	byLabel := map[string]*agg{}
	for _, r := range mach.Metrics().Rounds {
		if r.Final {
			continue
		}
		a, ok := byLabel[r.Label]
		if !ok {
			a = &agg{}
			byLabel[r.Label] = a
			order = append(order, r.Label)
		}
		a.count++
		if r.MaxH > a.maxH {
			a.maxH = r.MaxH
		}
	}
	for _, label := range order {
		a := byLabel[label]
		t.AddRow(label, a.count, a.maxH, float64(a.maxH)*float64(p)/float64(s))
	}
	return t
}

// E8 sweeps the dimension: space and time grow by a log n factor per
// dimension (s = n·log^(d-1) n).
func E8(sc Scale) *Table {
	t := &Table{
		ID:    "E8",
		Title: "Dimension sweep: s = n·log^(d-1) n growth",
		Note: "ratio(d) = nodes(d)/nodes(d-1) should approach c·log n; construct and " +
			"search model times grow accordingly.",
		Header: []string{"d", "n", "seq nodes s", "s ratio", "construct T_model", "search T_model", "rounds"},
	}
	n := 1 << 10
	if sc == Full {
		n = 1 << 12
	}
	prev := 0
	for d := 1; d <= 4; d++ {
		pts := workload.Points(workload.PointSpec{N: n, Dims: d, Dist: workload.Uniform, Seed: 9})
		s := rangetree.Build(pts).Nodes()
		mach := cgm.New(cgm.Config{P: 4, Mode: cgm.Measured})
		dt := core.Build(mach, pts)
		buildModel := mach.Metrics().ModelTime(cgm.DefaultG, cgm.DefaultL)
		boxes := workload.Boxes(workload.QuerySpec{M: 512, Dims: d, N: n, Selectivity: 0.01, Seed: 9})
		mach.ResetMetrics()
		dt.CountBatch(boxes)
		mt := mach.Metrics()
		ratio := "-"
		if prev > 0 {
			ratio = fmt.Sprintf("%.2f", float64(s)/float64(prev))
		}
		t.AddRow(d, n, s, ratio,
			buildModel.Round(time.Microsecond).String(),
			mt.ModelTime(cgm.DefaultG, cgm.DefaultL).Round(time.Microsecond).String(),
			mt.CommRounds())
		prev = s
	}
	return t
}

// E9 is the speedup curve: modelled parallel time vs p for construction
// and search, the headline "T_seq/p + constant rounds" claim.
func E9(sc Scale) *Table {
	t := &Table{
		ID:    "E9",
		Title: "Modelled speedup vs p (optimality claim of Theorems 2-3)",
		Note: "Speedups are measured in Measured mode (processors time-sliced, BSP cost " +
			"Σ max_i w_i + g·h + L). Expect near-linear growth until p² approaches s, " +
			"then the constant rounds bite (the paper's s/p ≥ p coarse-grained regime).",
		Header: []string{"p", "construct T_model", "construct speedup", "search T_model", "search speedup"},
	}
	n, d := 1<<12, 2
	ps := []int{1, 2, 4, 8}
	if sc == Full {
		n = 1 << 14
		ps = []int{1, 2, 4, 8, 16}
	}
	boxes := workload.Boxes(workload.QuerySpec{M: n, Dims: d, N: n, Selectivity: 0.001, Seed: 10})
	var baseB, baseS time.Duration
	for _, p := range ps {
		dt, bm := buildMeasured(n, d, p, 10)
		buildModel := bm.ModelTime(cgm.DefaultG, cgm.DefaultL)
		dt.Machine().ResetMetrics()
		dt.CountBatch(boxes)
		searchModel := dt.Machine().Metrics().ModelTime(cgm.DefaultG, cgm.DefaultL)
		if p == 1 {
			baseB, baseS = buildModel, searchModel
		}
		t.AddRow(p,
			buildModel.Round(time.Microsecond).String(), float64(baseB)/float64(buildModel),
			searchModel.Round(time.Microsecond).String(), float64(baseS)/float64(searchModel))
	}
	return t
}

// E10 sweeps the batch size m: the paper answers batches of m = O(n)
// queries; per-query cost should flatten once m amortizes the fixed
// rounds.
func E10(sc Scale) *Table {
	t := &Table{
		ID:    "E10",
		Title: "Batch-size sweep: amortizing the constant rounds over m queries",
		Note: "Per-query modelled time falls as m grows (fixed superstep latency spread " +
			"over more queries) and flattens near m = n — the regime the paper " +
			"analyses. Rounds stay constant throughout.",
		Header: []string{"m/n", "m", "rounds", "T_model", "T_model/query"},
	}
	n, d, p := 1<<12, 2, 8
	if sc == Full {
		n = 1 << 13
	}
	dt, _ := buildMeasured(n, d, p, 11)
	for _, frac := range []float64{0.0625, 0.25, 1, 4} {
		m := int(float64(n) * frac)
		boxes := workload.Boxes(workload.QuerySpec{M: m, Dims: d, N: n, Selectivity: 0.001, Seed: 11})
		dt.Machine().ResetMetrics()
		dt.CountBatch(boxes)
		mt := dt.Machine().Metrics()
		model := mt.ModelTime(cgm.DefaultG, cgm.DefaultL)
		t.AddRow(frac, m, mt.CommRounds(),
			model.Round(time.Microsecond).String(),
			(model / time.Duration(m)).String())
	}
	return t
}
