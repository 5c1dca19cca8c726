package store

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/geom"
)

// Version is one epoch-stamped, immutable snapshot of the store: a set
// of level trees plus the indexed runs of the memtable and the deletion
// shadow. Pinning a version keeps every level it references alive (and
// queryable) no matter how the store moves on — readers never block
// writers, and a query batch always sees one consistent state. Release
// the pin when done: levels a later compaction retired close their
// machines (TCP sessions, worker-resident state) as soon as the last
// reference drops, instead of leaking until Cluster.Close.
type Version struct {
	s      *Store
	seq    uint64
	levels []*core.Tree
	mem    runs
	shadow runs
	liveN  int

	// Guarded by s.mu: outstanding Pin count, whether this is the
	// published version, and whether its level references were dropped.
	pins     int
	current  bool
	released bool
}

// Pin returns the current version, reference-counted. The result answers
// queries against exactly the state published by the last mutation or
// compaction swap. Call Release when done; a version never released
// keeps its level trees (and their sessions) alive indefinitely.
func (s *Store) Pin() *Version {
	s.mu.Lock()
	v := s.cur.Load()
	v.pins++
	s.mu.Unlock()
	return v
}

// Release drops one Pin. When a superseded version loses its last pin,
// level trees no current version references close their machines.
func (v *Version) Release() {
	s := v.s
	s.mu.Lock()
	if v.pins > 0 {
		v.pins--
	}
	toClose := s.maybeReleaseLocked(v)
	s.mu.Unlock()
	closeTrees(toClose)
}

// LiveN reports the store's current live point count without pinning (a
// plain read of the published snapshot — no Release obligation).
func (s *Store) LiveN() int { return s.cur.Load().liveN }

// Seq reports the version's data-version stamp.
func (v *Version) Seq() uint64 { return v.seq }

// N reports the version's live point count.
func (v *Version) N() int { return v.liveN }

// Levels reports how many level trees the version holds.
func (v *Version) Levels() int {
	c := 0
	for _, l := range v.levels {
		if l != nil {
			c++
		}
	}
	return c
}

// Mixed answers a batch mixing count and report queries against the
// pinned version: one mixed-mode machine run per level (combined by
// decomposability — range search distributes over the level partition),
// then the memtable's runs add, the tombstone shadow's runs subtract
// counts and filter reports. OpAggregate is not supported, and is an
// error: tombstone subtraction needs an invertible monoid, which the
// engine's semigroup contract does not promise.
//
// A machine abort mid-batch — a TCP cluster losing a worker, an SPMD
// violation — returns as an error (and is recorded in Stats.QueryErr)
// instead of panicking the calling goroutine; the store keeps accepting
// mutations, and compaction rebuilds levels on fresh machines.
func Mixed[T any](v *Version, ops []core.MixedOp, boxes []geom.Box) ([]core.MixedResult[T], error) {
	return MixedTraced[T](v, ops, boxes, 0)
}

// MixedTraced is Mixed with a query-trace ID: each level's machine runs
// with the ID stamped on its exchanges so worker-side spans attribute
// back to the originating batch. Trace 0 means untraced.
func MixedTraced[T any](v *Version, ops []core.MixedOp, boxes []geom.Box, trace uint64) ([]core.MixedResult[T], error) {
	if len(ops) != len(boxes) {
		return nil, fmt.Errorf("store: %d ops for %d boxes", len(ops), len(boxes))
	}
	for i, op := range ops {
		switch op {
		case core.OpCount, core.OpReport:
		case core.OpAggregate:
			return nil, fmt.Errorf("store: query %d: aggregate queries are not supported on the mutable store", i)
		default:
			return nil, fmt.Errorf("store: query %d: unknown op %v", i, op)
		}
		if d := boxes[i].Dims(); d != v.s.cfg.Dims {
			return nil, fmt.Errorf("store: query %d: box has %d dims, store has %d", i, d, v.s.cfg.Dims)
		}
	}
	out := make([]core.MixedResult[T], len(boxes))
	if len(boxes) == 0 {
		return out, nil
	}

	// Level fan-out: machine runs serialize store-wide because levels
	// (including ones shared with other pinned versions) each own one
	// cgm.Machine, and a machine supports one Run at a time.
	var qerr error
	v.s.queryMu.Lock()
	func() {
		defer func() {
			if r := recover(); r != nil {
				qerr = fmt.Errorf("store: query batch aborted: %v", r)
			}
		}()
		for _, l := range v.levels {
			if l == nil {
				continue
			}
			// queryMu makes the machine exclusively ours, so the trace
			// stamp cannot interleave with another batch's.
			l.SetTrace(trace)
			res := core.MixedBatch[T](l, nil, ops, boxes)
			l.SetTrace(0)
			for i, r := range res {
				out[i].Count += r.Count
				out[i].Pts = append(out[i].Pts, r.Pts...)
			}
		}
	}()
	v.s.queryMu.Unlock()
	if qerr != nil {
		v.s.noteQueryErr(qerr)
		return nil, qerr
	}

	// The coordinator tier: memtable hits add, tombstone hits subtract.
	// Every tombstone is a point present in the version's levels or
	// memtable, at that point's coordinates (the store's delete
	// contract), so the subtraction is exact and a box's tombstone hits
	// are exactly the IDs its report must drop.
	var buf [64]int32 // a box's tombstone hits, off the heap unless it has more
	for i, b := range boxes {
		report := ops[i] == core.OpReport
		v.mem.visit(b, func(p geom.Point) {
			out[i].Count++
			if report {
				out[i].Pts = append(out[i].Pts, p)
			}
		})
		dead := buf[:0]
		v.shadow.visit(b, func(p geom.Point) {
			out[i].Count--
			if report {
				dead = append(dead, p.ID)
			}
		})
		if report {
			slices.SortFunc(out[i].Pts, func(a, b geom.Point) int { return cmp.Compare(a.ID, b.ID) })
			slices.Sort(dead)
			out[i].Pts = dropIDs(out[i].Pts, dead)
		}
	}
	return out, nil
}

// dropIDs removes from pts, sorted by ID, every point whose ID is in
// dead, also sorted: one merge pass, in place.
func dropIDs(pts []geom.Point, dead []int32) []geom.Point {
	live := pts[:0]
	for _, p := range pts {
		for len(dead) > 0 && dead[0] < p.ID {
			dead = dead[1:]
		}
		if len(dead) == 0 || dead[0] != p.ID {
			live = append(live, p)
		}
	}
	return live
}

// CountBatch answers |R(q)| for every box against the pinned version.
func (v *Version) CountBatch(boxes []geom.Box) ([]int64, error) {
	ops := make([]core.MixedOp, len(boxes))
	res, err := Mixed[struct{}](v, ops, boxes)
	if err != nil {
		return nil, err
	}
	out := make([]int64, len(boxes))
	for i, r := range res {
		out[i] = r.Count
	}
	return out, nil
}

// ReportBatch returns the live points of every box, sorted by ID.
func (v *Version) ReportBatch(boxes []geom.Box) ([][]geom.Point, error) {
	ops := make([]core.MixedOp, len(boxes))
	for i := range ops {
		ops[i] = core.OpReport
	}
	res, err := Mixed[struct{}](v, ops, boxes)
	if err != nil {
		return nil, err
	}
	out := make([][]geom.Point, len(boxes))
	for i, r := range res {
		out[i] = r.Pts
	}
	return out, nil
}

// CountBatch answers against the current version.
func (s *Store) CountBatch(boxes []geom.Box) ([]int64, error) {
	v := s.Pin()
	defer v.Release()
	return v.CountBatch(boxes)
}

// ReportBatch answers against the current version.
func (s *Store) ReportBatch(boxes []geom.Box) ([][]geom.Point, error) {
	v := s.Pin()
	defer v.Release()
	return v.ReportBatch(boxes)
}

// AllLive materializes the version's live point set (checkpointing and
// verification; O(n log n)). Resident level trees fetch their points from
// worker memory, so the read serializes with query batches under the
// store's query lock; a lost worker is an error.
func (v *Version) AllLive() ([]geom.Point, error) {
	var out []geom.Point
	v.s.queryMu.Lock()
	for _, l := range v.levels {
		if l == nil {
			continue
		}
		pts, err := l.AllPoints()
		if err != nil {
			v.s.queryMu.Unlock()
			return nil, err
		}
		out = append(out, pts...)
	}
	v.s.queryMu.Unlock()
	for _, r := range v.mem {
		out = append(out, r...)
	}
	var dead []int32
	for _, r := range v.shadow {
		for _, p := range r {
			dead = append(dead, p.ID)
		}
	}
	slices.Sort(dead)
	live := out[:0]
	for _, p := range out {
		if _, found := slices.BinarySearch(dead, p.ID); !found {
			live = append(live, p)
		}
	}
	return live, nil
}
