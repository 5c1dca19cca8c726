package expt

import (
	"time"

	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/workload"
)

// E15 measures the two hot-path changes of the element-backend work: the
// layered (fractionally cascaded) backend against the plain range tree on
// phase-C serving, and the cross-batch copy cache on phase-B install time
// under a skewed (hot-element) workload.
func E15(sc Scale) *Table {
	n, q := 1<<14, 256
	if sc == Full {
		n, q = 1<<17, 512
	}
	const d, p = 3, 8
	tab := &Table{
		ID:    "E15",
		Title: "Element backends and the copy cache (phase B/C hot path)",
		Note: "Top: µs/query of whole batches served on each element backend — the " +
			"layered backend must win on count and report (the §1 log-factor saving, " +
			"now on the distributed serving path). Bottom: phase-B copy install time " +
			"on a Zipf-skewed workload, cold versus warm cache — batch 2 ships ID-only " +
			"references and skips every rebuild, so expect ≥ 2×.",
		Header: []string{"section", "backend", "mode", "µs/query", "install µs", "speedup"},
	}

	pts := workload.Points(workload.PointSpec{N: n, Dims: d, Dist: workload.Uniform, Seed: 15})
	boxes := workload.Boxes(workload.QuerySpec{M: q, Dims: d, N: n, Selectivity: 0.001, Seed: 15})
	perQuery := func(f func()) float64 {
		start := time.Now()
		f()
		return float64(time.Since(start).Microseconds()) / float64(q)
	}
	for _, be := range []core.Backend{core.BackendRangeTree, core.BackendLayered} {
		dt := core.BuildBackend(cgm.New(cgm.Config{P: p}), pts, be)
		dt.CountBatch(boxes) // warm the copy cache so phase C dominates
		countT := perQuery(func() { dt.CountBatch(boxes) })
		reportT := perQuery(func() { dt.ReportBatch(boxes) })
		tab.AddRow("serve", be.String(), "count", countT, "", "")
		tab.AddRow("serve", be.String(), "report", reportT, "", "")
	}

	// Copy cache: a Zipf-focused batch congests few forest parts, so phase
	// B copies the same elements every batch.
	skewed := workload.Boxes(workload.QuerySpec{M: q, Dims: d, N: n, Selectivity: 0.001, Foci: 2, Seed: 16})
	dt := core.BuildBackend(cgm.New(cgm.Config{P: p}), pts, core.BackendLayered)
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
