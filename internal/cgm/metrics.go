package cgm

import "time"

// nowAfterToken is time.Now, split out so the timing call sites read
// clearly: a processor's local segment starts only once it holds the run
// token again.
func nowAfterToken() time.Time { return time.Now() }

// RoundStat records one communication round (superstep boundary).
type RoundStat struct {
	// Label names the collective that closed the round.
	Label string
	// MaxWork is max_i w_i: the longest local computation segment any
	// processor spent since the previous round (meaningful in Measured
	// mode; wall-clock per goroutine in Concurrent mode).
	MaxWork time.Duration
	// MaxH is the round's h: the maximum over processors of
	// max(elements sent, elements received).
	MaxH int
	// TotalElems is the total number of elements exchanged in the round.
	TotalElems int
	// Final marks the trailing local-computation pseudo-round that closes
	// a Run (no communication).
	Final bool
}

// maxRoundLog bounds the per-round detail a Metrics retains: a serving
// machine folds three or four rounds per batch for as long as it lives, so
// the log is a window over the most recent rounds while the totals stay
// exact.
const maxRoundLog = 4096

// Metrics accumulates rounds and per-processor work across runs. The
// aggregate methods read exact running totals over every round folded
// since the last reset; Rounds keeps the detail of the most recent ones.
type Metrics struct {
	// Rounds is the per-round detail, oldest first, of at most the
	// maxRoundLog most recent rounds.
	Rounds []RoundStat
	// WorkByProc is each processor's total local computation time.
	WorkByProc []time.Duration
	// Runs counts completed Machine.Run calls.
	Runs int

	// Running totals over every folded round.
	commRounds int           // communication rounds (non-final)
	maxH       int           // largest h of any round
	elems      int           // Σ TotalElems
	sumH       int           // Σ MaxH over communication rounds
	work       time.Duration // Σ MaxWork
	// oldest indexes the oldest entry of Rounds once the log is full and
	// wraps (0 until then, and in every snapshot a caller sees).
	oldest int
}

// Fold accounts one round: into the running totals, and into the bounded
// per-round log.
func (mt *Metrics) Fold(rs RoundStat) {
	if !rs.Final {
		mt.commRounds++
		mt.sumH += rs.MaxH
	}
	mt.maxH = max(mt.maxH, rs.MaxH)
	mt.elems += rs.TotalElems
	mt.work += rs.MaxWork
	if len(mt.Rounds) < maxRoundLog {
		mt.Rounds = append(mt.Rounds, rs)
		return
	}
	mt.Rounds[mt.oldest] = rs
	mt.oldest = (mt.oldest + 1) % maxRoundLog
}

// clone snapshots the metrics with the round log in oldest-first order.
func (mt Metrics) clone() Metrics {
	c := mt
	c.Rounds = make([]RoundStat, 0, len(mt.Rounds))
	c.Rounds = append(append(c.Rounds, mt.Rounds[mt.oldest:]...), mt.Rounds[:mt.oldest]...)
	c.oldest = 0
	c.WorkByProc = append([]time.Duration(nil), mt.WorkByProc...)
	return c
}

// CommRounds counts the true communication rounds (excluding final
// pseudo-rounds) — the quantity Corollaries 1–3 bound by a constant.
func (mt Metrics) CommRounds() int { return mt.commRounds }

// MaxH returns the largest h over all rounds.
func (mt Metrics) MaxH() int { return mt.maxH }

// TotalComm returns the total exchanged element count.
func (mt Metrics) TotalComm() int { return mt.elems }

// LocalWork returns Σ_rounds max_i w_i — the modelled parallel local
// computation time (critical path across supersteps).
func (mt Metrics) LocalWork() time.Duration { return mt.work }

// TotalWork returns the summed local computation over all processors —
// the sequential-equivalent work, used for efficiency reporting.
func (mt Metrics) TotalWork() time.Duration {
	var w time.Duration
	for _, t := range mt.WorkByProc {
		w += t
	}
	return w
}

// MaxWorkByProc returns the largest per-processor total — the load-balance
// measure.
func (mt Metrics) MaxWorkByProc() time.Duration {
	var w time.Duration
	for _, t := range mt.WorkByProc {
		if t > w {
			w = t
		}
	}
	return w
}

// ModelTime evaluates the BSP cost Σ_steps (max_i w_i + g·h_step + L) with
// g in ns/element and L in ns/round.
func (mt Metrics) ModelTime(g, l float64) time.Duration {
	return time.Duration(float64(mt.work) + g*float64(mt.sumH) + l*float64(mt.commRounds))
}
