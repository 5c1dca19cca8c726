package store

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/geom"
)

// idTee records the IDs of every point that streams through it. Store
// bulk loads ride core.BulkLoad's streaming client, whose chunks pass
// through the coordinator exactly once on their way into the workers —
// the tee captures the ID set in that same pass, so the store's live-set
// bookkeeping costs no second scan and no post-build fetch.
type idTee struct {
	src core.ChunkSource
	ids []int32
	n   int
}

func (t *idTee) Next() ([]geom.Point, error) {
	pts, err := t.src.Next()
	for _, p := range pts {
		t.ids = append(t.ids, p.ID)
	}
	t.n += len(pts)
	return pts, err
}

// BulkLoad ingests a point stream as ONE new level in a single pass:
// chunks stream open-loop into the workers' staging areas (bounded
// in-flight window, backpressure via the ranks' own acknowledgements)
// and the level tree is constructed worker-fed — on a resident cluster
// the coordinator handles only ingest chunks, the p² sample splitters
// and control frames, never a routed point. Queries keep serving the
// current version throughout; the loaded points become visible
// atomically when the new version publishes.
//
// The load bypasses the memtable and the WAL (it is a level build, not a
// logged mutation); on a durable store a checkpoint is taken before
// returning, so recovery never replays a WAL tail against levels that
// already contain the bulk points. IDs must be new: not live, not
// tombstoned, not repeated in the stream — a violating load is discarded
// whole, leaving the store untouched.
func (s *Store) BulkLoad(src core.ChunkSource) (uint64, error) {
	// Serialize with compactor passes: both splice s.levels.
	s.compacting.Lock()
	defer s.compacting.Unlock()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, ErrClosed
	}
	if s.compactErr != nil {
		err := s.compactErr
		s.mu.Unlock()
		return 0, fmt.Errorf("store: compaction failed, bulk loads rejected: %w", err)
	}
	s.mu.Unlock()

	mach, err := s.cfg.Provider.NewMachine()
	if err != nil {
		return 0, fmt.Errorf("store: bulk load machine: %w", err)
	}
	s.event("ingest_begin", "bulk load: streaming construct starting")
	tee := &idTee{src: src}
	built, err := core.BulkLoad(mach, tee,
		core.IngestConfig{MaxShare: s.cfg.IngestMaxShare})
	if err != nil {
		mach.Close()
		s.event("ingest_error", err.Error())
		return 0, err
	}
	discard := func() { built.Machine().Close() }

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		discard()
		return 0, ErrClosed
	}
	// Validate the whole ID set against the live state before splicing —
	// same all-or-nothing contract as mutate.
	seen := make(map[int32]struct{}, len(tee.ids))
	for _, id := range tee.ids {
		if _, dup := seen[id]; dup {
			s.mu.Unlock()
			discard()
			return 0, fmt.Errorf("store: bulk load: point %d appears twice in the stream", id)
		}
		seen[id] = struct{}{}
		if _, live := s.liveIDs[id]; live {
			s.mu.Unlock()
			discard()
			return 0, fmt.Errorf("store: bulk load: point %d is already live", id)
		}
		if _, dead := s.deadIDs[id]; dead {
			s.mu.Unlock()
			discard()
			return 0, fmt.Errorf("store: bulk load: point %d still has an outstanding tombstone", id)
		}
	}
	// Splice as a fresh top slot: low slots keep their binary-counter
	// carry behavior, and the next fold absorbs the bulk level like any
	// other.
	s.levels = append(s.levels, built)
	s.levelRefs[built]++
	for _, id := range tee.ids {
		s.liveIDs[id] = struct{}{}
	}
	s.liveN += tee.n
	s.seq++
	seq := s.seq
	toClose := s.publishLocked()
	s.mu.Unlock()
	closeTrees(toClose)
	s.bulkLoads.Add(1)
	s.bulkPoints.Add(uint64(tee.n))
	s.event("ingest_end", fmt.Sprintf("bulk load: %d points published at seq %d", tee.n, seq))
	if s.wal != nil {
		if err := s.Checkpoint(); err != nil {
			return seq, fmt.Errorf("store: bulk load published but checkpoint failed: %w", err)
		}
	}
	return seq, nil
}
