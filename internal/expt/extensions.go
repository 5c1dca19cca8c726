package expt

import (
	"fmt"
	"time"

	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/layered"
	"repro/internal/rangetree"
	"repro/internal/store"
	"repro/internal/workload"
)

// E11 measures the layered range tree the paper cites in §1: fractional
// cascading removes a log n factor from the query.
func E11(sc Scale) *Table {
	t := &Table{
		ID:    "E11",
		Title: "Layered range tree (paper §1): the log n query saving",
		Note: "The layered tree replaces the final dimension's trees with cascaded " +
			"sorted arrays. The saved log factor materializes when the final " +
			"dimension's decomposition carries real work — moderate selectivity — " +
			"so both a 2% and a needle workload are shown: expect plain/layered > 1 " +
			"and growing with n at 2%, near parity for needles (plain's best case), " +
			"and strictly less space at d ≥ 3.",
		Header: []string{"n", "d", "selectivity", "plain nodes", "layered entries", "plain µs/q", "layered µs/q", "plain/layered"},
	}
	ns := []int{1 << 12}
	if sc == Full {
		ns = []int{1 << 12, 1 << 14, 1 << 16}
	}
	for _, d := range []int{2, 3} {
		for _, n := range ns {
			if d == 3 && n > 1<<14 {
				continue
			}
			pts := workload.Points(workload.PointSpec{N: n, Dims: d, Dist: workload.Uniform, Seed: 12})
			rt := rangetree.Build(pts)
			lt := layered.Build(pts)
			for _, sel := range []float64{0.0002, 0.02} {
				boxes := workload.Boxes(workload.QuerySpec{M: 1000, Dims: d, N: n, Selectivity: sel, Seed: 12})
				time1 := func(f func()) float64 {
					start := time.Now()
					f()
					return float64(time.Since(start).Nanoseconds()) / 1000 / float64(len(boxes))
				}
				sink := 0
				rtT := time1(func() {
					for _, b := range boxes {
						sink += rt.Count(b)
					}
				})
				ltT := time1(func() {
					for _, b := range boxes {
						sink += lt.Count(b)
					}
				})
				_ = sink
				t.AddRow(n, d, sel, rt.Nodes(), lt.Nodes(), rtT, ltT, rtT/ltT)
			}
		}
	}
	return t
}

// recordingProvider remembers every machine it hands out, so E12 can sum
// one query batch's rounds over all of the store's level machines.
type recordingProvider struct {
	cgm.Provider
	machs []*cgm.Machine
}

func (rp *recordingProvider) NewMachine() (*cgm.Machine, error) {
	m, err := rp.Provider.NewMachine()
	if err == nil {
		rp.machs = append(rp.machs, m)
	}
	return m, err
}

// E12 measures the dynamized distributed tree (the conclusion's first open
// issue) built with the logarithmic method: internal/store in Sync mode,
// fed memtable-sized batches so every flush is one binary-counter carry.
func E12(sc Scale) *Table {
	t := &Table{
		ID:    "E12",
		Title: "Dynamic distributed range tree via the logarithmic method (conclusion)",
		Note: "Batch inserts keep O(log n) static levels; each point is rebuilt " +
			"amortized O(log(n/base)) times, and a query batch pays the static round " +
			"cost once per occupied level — the measured price of dynamization the " +
			"paper anticipated. The delete phase charts the deletion shadow: it " +
			"taxes every query until it reaches 25% of the live set, where the " +
			"automatic fold resets it — shadow size is sawtooth-bounded, " +
			"rebuilds count the folds.",
		Header: []string{"phase", "live n", "levels", "rebuild mass/point", "query rounds", "query T_model", "static rounds", "shadow", "rebuilds"},
	}
	n, d, p := 1<<11, 2, 4
	if sc == Full {
		n = 1 << 13
	}
	base := 8 * p
	rp := &recordingProvider{Provider: cgm.NewLocalProvider(cgm.Config{P: p})}
	st, err := store.Open("", store.Config{Dims: d, Provider: rp, MemtableCap: base, Sync: true})
	if err != nil {
		panic(err)
	}
	defer st.Close()
	pts := workload.Points(workload.PointSpec{N: n, Dims: d, Dist: workload.Uniform, Seed: 13})
	boxes := workload.Boxes(workload.QuerySpec{M: 256, Dims: d, N: n, Selectivity: 0.01, Seed: 13})
	counts := make([]core.MixedOp, len(boxes)) // all OpCount
	// query runs one count batch and sums its cost over the level machines.
	query := func() (rounds int, model time.Duration) {
		for _, m := range rp.machs {
			m.ResetMetrics()
		}
		if _, err := st.CountBatch(boxes); err != nil {
			panic(err)
		}
		for _, m := range rp.machs {
			mt := m.Metrics()
			rounds += mt.CommRounds()
			model += mt.ModelTime(cgm.DefaultG, cgm.DefaultL)
		}
		return rounds, model
	}
	step := n / 4
	for inserted := 0; inserted < n; {
		for end := inserted + step; inserted < end; inserted += base {
			if _, err := st.InsertBatch(pts[inserted : inserted+base]); err != nil {
				panic(err)
			}
		}
		rounds, model := query()

		// Static comparison at the same size: the per-level call the
		// store makes, on one tree.
		statMach := cgm.New(cgm.Config{P: p})
		stat := core.Build(statMach, pts[:inserted])
		statMach.ResetMetrics()
		core.MixedBatch[struct{}](stat, nil, counts, boxes)
		ss := st.Stats()
		t.AddRow("insert", ss.Live, ss.Levels,
			fmt.Sprintf("%.2f", float64(ss.BuiltPoints)/float64(inserted)),
			rounds, model.Round(time.Microsecond).String(),
			statMach.Metrics().CommRounds(), ss.Shadow, ss.Compactions)
	}
	// Delete phase: walk the shadow up to (and across) the fold threshold.
	step = n / 10
	for deleted := 0; deleted < n/2; deleted += step {
		if _, err := st.DeleteBatch(pts[deleted : deleted+step]); err != nil {
			panic(err)
		}
		rounds, model := query()
		ss := st.Stats()
		t.AddRow("delete", ss.Live, ss.Levels,
			fmt.Sprintf("%.2f", float64(ss.BuiltPoints)/float64(n)),
			rounds, model.Round(time.Microsecond).String(),
			"", ss.Shadow, ss.Compactions)
	}
	return t
}

// E13 measures the paper's open problem: speeding up a single query. The
// ownership-partitioned algorithm gives parallelism bounded by how many
// distinct owners the query's forest elements touch.
func E13(sc Scale) *Table {
	t := &Table{
		ID:    "E13",
		Title: "Single-query parallelism (the conclusion's open problem)",
		Note: "One query is served by every processor on its own forest part after a " +
			"communication-free hat descent, plus one gather round. The speedup is " +
			"bounded by the number of distinct owners touched (≤ subquery count ≤ " +
			"O(log^d n)) — measured here as busy/idle processors and the serial-vs-max " +
			"work ratio. Wide queries parallelize; needle queries cannot, which is why " +
			"the general problem is open.",
		Header: []string{"n", "p", "query", "subqueries", "busy procs", "work ratio (Σ/max)", "rounds"},
	}
	n, d, p := 1<<12, 2, 8
	if sc == Full {
		n = 1 << 14
	}
	pts := workload.Points(workload.PointSpec{N: n, Dims: d, Dist: workload.Uniform, Seed: 14})
	mach := cgm.New(cgm.Config{P: p})
	dt := core.Build(mach, pts)
	// Queries chosen to straddle stub boundaries: partial stubs at both
	// interval ends spawn subqueries in every dimension-1 tree the x-range
	// opens, spreading work over owners.
	g := int32(dt.Grain())
	queries := []struct {
		name string
		box  func() []int32
	}{
		{"needle (inside one stub)", func() []int32 { return []int32{100, 108, 100, 108} }},
		{"band (x across stubs, y band)", func() []int32 {
			return []int32{g / 2, int32(n) - g/2, 100, 400}
		}},
		{"wide (hat absorbs it)", func() []int32 { return []int32{1, int32(n / 2), 1, int32(n)} }},
	}
	for _, q := range queries {
		c := q.box()
		b := boxFrom(c[0], c[2], c[1], c[3])
		work := dt.SingleQueryWork(b)
		busy, total, mx := 0, 0, 0
		for _, w := range work {
			if w > 0 {
				busy++
			}
			total += w
			if w > mx {
				mx = w
			}
		}
		mach.ResetMetrics()
		dt.SingleCount(b)
		rounds := mach.Metrics().CommRounds()
		ratio := "-"
		if mx > 0 {
			ratio = fmt.Sprintf("%.2f", float64(total)/float64(mx))
		}
		t.AddRow(n, p, q.name, total, busy, ratio, rounds)
	}
	return t
}

func boxFrom(loX, loY, hiX, hiY int32) geom.Box {
	return geom.Box{Lo: []geom.Coord{loX, loY}, Hi: []geom.Coord{hiX, hiY}}
}
