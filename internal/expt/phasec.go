package expt

import (
	"time"

	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/layered"
	"repro/internal/rangetree"
	"repro/internal/semigroup"
	"repro/internal/workload"
)

// E15 measures the phase B/C hot path: the layered (fractionally
// cascaded) element structure against the plain range tree on the
// element shape phase C serves, and the cross-batch copy cache on phase-B
// install time under a skewed (hot-element) workload.
func E15(sc Scale) *Table {
	n, q := 1<<14, 256
	if sc == Full {
		n, q = 1<<17, 512
	}
	const d, p, reps = 3, 8, 8
	tab := &Table{
		ID:    "E15",
		Title: "Element structures and the copy cache (phase B/C hot path)",
		Note: "Top: ns per subquery on one forest element of the shape phase C serves " +
			"(g = n/p points over dimensions 1..d-1), plain range tree against the layered " +
			"tree forest elements are built as; speedup is rangetree/layered. Bottom: " +
			"phase-B copy install time on a Zipf-skewed workload, cold versus warm cache — " +
			"batch 2 ships ID-only references and skips every rebuild, so expect ≥ 2×.",
		Header: []string{"section", "structure", "kind", "ns/query", "install µs", "speedup"},
	}

	// Serve: one element of g points, built from dimension 1 on, as
	// Construct's phase-1 elements are.
	g := n / p
	elem := workload.Points(workload.PointSpec{N: g, Dims: d, Dist: workload.Uniform, Seed: 15})
	boxes := workload.Boxes(workload.QuerySpec{M: q, Dims: d, N: g, Selectivity: 0.001, Seed: 15})
	perQuery := func(f func(b geom.Box)) float64 {
		start := time.Now()
		for range reps {
			for _, b := range boxes {
				f(b)
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(reps*len(boxes))
	}
	val := func(pt geom.Point) int64 { return int64(pt.ID) }
	rt := rangetree.BuildFrom(elem, 1)
	lt := layered.BuildFrom(elem, 1)
	rtAgg := rangetree.NewAgg(rt, semigroup.IntSum(), val)
	ltAgg := layered.NewAgg(lt, semigroup.IntSum(), val)
	var sink int64
	kinds := []struct {
		kind   string
		rt, lt func(b geom.Box)
	}{
		{"count", func(b geom.Box) { sink += int64(rt.Count(b)) }, func(b geom.Box) { sink += int64(lt.Count(b)) }},
		{"report", func(b geom.Box) { sink += int64(len(rt.Report(b))) }, func(b geom.Box) { sink += int64(len(lt.Report(b))) }},
		{"aggregate", func(b geom.Box) { sink += rtAgg.Query(b) }, func(b geom.Box) { sink += ltAgg.Query(b) }},
	}
	for _, k := range kinds {
		rtT, ltT := perQuery(k.rt), perQuery(k.lt)
		tab.AddRow("serve", "rangetree", k.kind, rtT, "", "")
		tab.AddRow("serve", "layered", k.kind, ltT, "", rtT/ltT)
	}
	_ = sink

	// Copy cache: a Zipf-focused batch congests few forest parts, so phase
	// B copies the same elements every batch.
	pts := workload.Points(workload.PointSpec{N: n, Dims: d, Dist: workload.Uniform, Seed: 15})
	skewed := workload.Boxes(workload.QuerySpec{M: q, Dims: d, N: n, Selectivity: 0.001, Foci: 2, Seed: 16})
	dt := core.Build(cgm.New(cgm.Config{P: p}), pts)
	dt.CountBatch(skewed)
	cold := float64(dt.LastPhaseBInstall().Microseconds())
	dt.CountBatch(skewed)
	warm := float64(dt.LastPhaseBInstall().Microseconds())
	speedup := 0.0
	if warm > 0 {
		speedup = cold / warm
	}
	tab.AddRow("copy-cache", "layered", "batch 1 (cold)", "", cold, "")
	tab.AddRow("copy-cache", "layered", "batch 2 (warm)", "", warm, speedup)
	return tab
}
