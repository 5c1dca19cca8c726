package main

import (
	"fmt"
	"io"
	"math"
	"slices"
)

// side is one set's view of a (workload, metric) pair: the median over
// its runs, how far they spread as a share of it, and the lowest and
// highest sample. With one run per workload the samples are that run's
// trials and the spread is the one the run recorded around the trial it
// reported.
type side struct {
	med, spread float64
	lo, hi      float64
}

func sideOf(s *set, workload, metric string) (side, bool) {
	var runs, trials []float64
	var spread float64
	for _, r := range s.Results {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
			runs = append(runs, v)
			trials = append(trials, r.Trials[metric]...)
			spread = r.Spread[metric]
		}
	}
	if len(runs) == 0 {
		return side{}, false
	}
	sd := side{med: median(runs), spread: spread}
	samples := trials
	if len(runs) > 1 || len(trials) == 0 {
		samples = runs
	}
	sd.lo, sd.hi = slices.Min(samples), slices.Max(samples)
	if len(runs) > 1 && sd.med != 0 {
		sd.spread = (sd.hi - sd.lo) / sd.med
	}
	return sd, true
}

// compareSets prints one row per (metric, workload) of the end-to-end
// table and returns how many are worse. The ratio's base is a's median.
// A difference beyond the bound is improved or worse only when every
// sample of one side beats every sample of the other; otherwise, and
// whenever a side's spread is wider than the bound, the pair is
// unresolved rather than unchanged.
func compareSets(w io.Writer, a, b *set) int {
	worse := 0
	fmt.Fprintf(w, "%-22s %-18s %12s %12s %9s %7s  %s\n", "metric", "workload", "a", "b", "(b-a)/a", "bound", "verdict")
	for _, d := range endToEnd {
		for _, wl := range workloads {
			sa, okA := sideOf(a, wl.Name, d.Name)
			sb, okB := sideOf(b, wl.Name, d.Name)
			if !okA || !okB || sa.med == 0 {
				continue
			}
			delta := (sb.med - sa.med) / sa.med
			bad := delta // positive = worse
			if d.Better == "higher" {
				bad = -delta
			}
			wide := max(sa.spread, sb.spread) > d.Bound
			apart := sa.hi < sb.lo || sb.hi < sa.lo
			verdict := "unchanged"
			switch {
			case bad > d.Bound && apart:
				verdict = "WORSE"
				worse++
			case bad < -d.Bound && apart:
				verdict = "improved"
			case wide || math.Abs(bad) > d.Bound:
				verdict = fmt.Sprintf("unresolved (spread %.3f)", max(sa.spread, sb.spread))
			}
			fmt.Fprintf(w, "%-22s %-18s %12.5g %12.5g %+9.3f %7.2f  %s\n", d.Name, wl.Name, sa.med, sb.med, delta, d.Bound, verdict)
		}
	}
	return worse
}
