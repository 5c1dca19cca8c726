// Package store is the mutable, versioned serving store under the
// engine: an LSM of distributed range trees. The paper's structure is
// inherently static (its conclusion names dynamization as the main open
// issue); this package composes the repository's ingredients into a
// point store that absorbs single-point Insert/Delete while staying on
// the batched distributed search hot path:
//
//   - a memtable — a small append-only buffer, indexed for reads as
//     sorted runs (runs.go) — absorbs mutations without any machine run;
//   - full memtables are flushed by a background compactor into
//     immutable core.Trees arranged as logarithmic-method levels
//     (Bentley's transform for decomposable searching problems, the
//     paper's reference [4]), merging levels binary-counter style;
//   - deletes are tombstones in a shadow buffer: counts subtract,
//     reports filter; the compactor folds the shadow away once it
//     reaches a quarter of the live set, so deletions cannot tax
//     queries forever;
//   - every mutation publishes a new immutable Version (epoch-stamped
//     snapshot of levels + memtable + shadow); query batches pin one
//     Version and fan over its levels with one mixed-mode machine run
//     per level, combining by decomposability — readers never block
//     writers, writers never invalidate an in-flight read;
//   - a WAL plus internal/persist checkpoints make Open recover the
//     exact pre-crash logical state (the memtable is simply the WAL
//     tail replayed).
//
// Point IDs disambiguate duplicate coordinates and attribute
// tombstones: an ID may be reused only after a compaction has folded
// its tombstone away. Mutations are validated against the live-ID set
// before they are applied or WAL-logged, so a phantom delete or a
// duplicate insert is an error, never silent corruption.
package store

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
)

// ErrClosed is returned by mutations submitted after Close.
var ErrClosed = errors.New("store: closed")

// ErrNoDims is returned by Open when neither the configuration nor an
// existing checkpoint provides the point dimensionality.
var ErrNoDims = errors.New("store: no dimensionality configured and no checkpoint provides one")

// Defaults used for zero Config fields.
const (
	DefaultMemtableCap = 256
	DefaultP           = 4
	DefaultShadowFrac  = 0.25
)

// Config tunes the store.
type Config struct {
	// Dims is the point dimensionality. Required unless Open finds a
	// checkpoint to take it from.
	Dims int
	// P is the machine width each level is built and queried on
	// (default DefaultP; ignored when Provider is set).
	P int
	// Provider supplies the machines levels are built and served on:
	// nil selects in-process simulators of width P, a transport.Cluster
	// runs every level build and query batch over TCP workers. The
	// provider must outlive the store (and every pinned version).
	Provider cgm.Provider
	// MemtableCap is the memtable flush threshold in buffered mutations
	// (default DefaultMemtableCap). It is also the base level size of
	// the logarithmic method.
	MemtableCap int
	// ShadowFrac triggers a full compaction (folding every tombstone)
	// when len(shadow) ≥ ShadowFrac·live (default DefaultShadowFrac).
	ShadowFrac float64
	// Sync runs flushes and compactions synchronously inside the
	// triggering mutation instead of on the background compactor —
	// deterministic, for tests and replay.
	Sync bool
	// SyncWAL fsyncs the WAL after every logged mutation. Off by
	// default: the durability unit is then the OS page cache, exactly
	// like an LSM store running without wal_fsync.
	SyncWAL bool
	// IngestMaxShare, in (0, 1), caps the fraction of worker wall-time
	// BulkLoad's streaming ingest may consume (core.IngestConfig
	// .MaxShare — the `rangesearch -ingest-share` QoS knob), so a bulk
	// load time-shares with concurrent serving instead of starving it.
	// Outside that range loads run uncapped.
	IngestMaxShare float64
	// Obs, when set, receives the store's state as live series — level /
	// memtable / shadow / live-point gauges, data-version epoch, flush
	// and compaction counters — plus timing histograms for compaction
	// builds, WAL appends, and checkpoints. Nil disables publishing.
	Obs *obs.Registry
	// Events, when set, receives structured store lifecycle events for
	// the cluster event archive: compaction/flush completions and
	// failures, checkpoints, bulk-load begin/end. Nil disables it.
	Events obs.EventSink
}

func (cfg Config) withDefaults() Config {
	if cfg.Provider != nil {
		cfg.P = cfg.Provider.P()
	} else {
		if cfg.P <= 0 {
			cfg.P = DefaultP
		}
		cfg.Provider = cgm.NewLocalProvider(cgm.Config{P: cfg.P})
	}
	if cfg.MemtableCap <= 0 {
		cfg.MemtableCap = DefaultMemtableCap
	}
	if cfg.ShadowFrac <= 0 {
		cfg.ShadowFrac = DefaultShadowFrac
	}
	return cfg
}

// Stats is a snapshot of the store's counters.
type Stats struct {
	Seq         uint64        // current data version
	Live        int           // live points (inserted − deleted)
	Levels      int           // occupied logarithmic levels
	Memtable    int           // buffered mutations awaiting flush
	Shadow      int           // outstanding tombstones
	Flushes     uint64        // memtable flushes (level carries)
	Compactions uint64        // full shadow-folding rebuilds
	BuildWall   time.Duration // total compactor build time
	MaxBuild    time.Duration // longest single build (the write-visibility pause; reads never wait on it)
	BuiltPoints uint64        // points passed through level builds — the logarithmic method's rebuild mass
	WALRecords  uint64        // mutation records appended to the WAL
	Checkpoints uint64
	BulkLoads   uint64 // completed BulkLoad calls
	BulkPoints  uint64 // points ingested by bulk loads
	// CompactErr is the diagnostic of a failed compaction build (e.g.
	// the machine provider's cluster lost a worker); empty when healthy.
	// A store with a failed compaction rejects further mutations — the
	// memtable could otherwise grow without bound.
	CompactErr string
	// QueryErr is the diagnostic of the first query batch aborted by a
	// machine failure (mirroring CompactErr for the read path); empty
	// when healthy. Failed batches return errors to their callers; the
	// store keeps accepting mutations, and compaction rebuilds levels on
	// fresh machines, so the condition can heal.
	QueryErr string
}

// Store is the mutable, versioned point store. All methods are safe for
// concurrent use: mutations serialize on an internal writer lock, query
// batches pin immutable versions.
type Store struct {
	cfg Config
	dir string

	// mu guards the mutable state below and every version swap.
	mu         sync.Mutex
	closed     bool
	compactErr error              // first failed compaction build; mutations fail fast on it
	queryErr   error              // first aborted query batch (Stats.QueryErr)
	mem        []geom.Point       // append-only current memtable segment (the compactor's prefix log)
	shadow     []geom.Point       // append-only tombstones (points still present in mem/levels)
	memRuns    runs               // mem indexed for reads, shared with published versions
	shadowRuns runs               // shadow indexed likewise
	deadIDs    map[int32]struct{} // outstanding tombstone IDs
	liveIDs    map[int32]struct{} // currently live IDs (mutation validity checks)
	levels     []*core.Tree       // binary-counter slots; nil = empty
	// levelRefs counts the references on every level tree: one for its
	// slot in s.levels while current, plus one per published version
	// holding it. A retired tree whose count hits zero closes its
	// machine eagerly — TCP sessions (and worker-resident forest state)
	// of dead levels no longer leak until Cluster.Close.
	levelRefs map[*core.Tree]int
	liveN     int
	seq       uint64
	wal       *wal // nil for an ephemeral (dir-less) store
	// checkpointMu serializes whole Checkpoint calls (rotation is under
	// mu, but snapshot write + prune must not interleave between two
	// checkpoints).
	checkpointMu sync.Mutex

	cur atomic.Pointer[Version]

	// queryMu serializes machine runs on the level trees: a cgm.Machine
	// supports one Run at a time, and retired levels stay queryable by
	// pinned versions. The compactor builds on fresh machines, so
	// builds never take this lock.
	queryMu sync.Mutex

	// compacting serializes compactor passes (background loop vs Close
	// drain vs Sync-mode inline calls).
	compacting sync.Mutex
	kick       chan struct{} // cap 1, coalescing; never closed
	stop       chan struct{}
	done       chan struct{}

	flushes, compactions, walRecords, checkpoints atomic.Uint64
	bulkLoads, bulkPoints, builtPoints            atomic.Uint64
	buildNanos, maxBuildNanos                     atomic.Int64
}

// Open creates or recovers a store. With a non-empty dir the store is
// durable: an existing checkpoint is loaded, the WAL tail replayed, and
// every subsequent mutation logged. With dir == "" the store is
// ephemeral (no WAL, Checkpoint returns an error).
func Open(dir string, cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	s := &Store{
		cfg:       cfg,
		dir:       dir,
		deadIDs:   make(map[int32]struct{}),
		liveIDs:   make(map[int32]struct{}),
		levelRefs: make(map[*core.Tree]int),
		kick:      make(chan struct{}, 1),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	if dir != "" {
		if err := s.recover(); err != nil {
			return nil, err
		}
	}
	if s.cfg.Dims < 1 {
		return nil, ErrNoDims
	}
	if reg := s.cfg.Obs; reg != nil {
		// The whole Stats surface as scrape-time series: cheap (one
		// snapshot per scrape) and always consistent with Stats().
		reg.Collect(func(emit obs.Emit) {
			st := s.Stats()
			emit("store_seq", float64(st.Seq))
			emit("store_live_points", float64(st.Live))
			emit("store_levels", float64(st.Levels))
			emit("store_memtable_pending", float64(st.Memtable))
			emit("store_shadow_pending", float64(st.Shadow))
			emit("store_flushes_total", float64(st.Flushes))
			emit("store_compactions_total", float64(st.Compactions))
			emit("store_built_points_total", float64(st.BuiltPoints))
			emit("store_wal_records_total", float64(st.WALRecords))
			emit("store_checkpoints_total", float64(st.Checkpoints))
			emit("store_bulk_loads_total", float64(st.BulkLoads))
			emit("store_bulk_points_total", float64(st.BulkPoints))
			healthy := 1.0
			if st.CompactErr != "" || st.QueryErr != "" {
				healthy = 0
			}
			emit("store_healthy", healthy)
		})
	}
	s.publishLocked() // initial version (no lock needed: not shared yet)
	go s.compactor()
	return s, nil
}

// observeNanos records a duration histogram when a registry is wired.
func (s *Store) observeNanos(name string, ns int64) {
	if s.cfg.Obs != nil {
		s.cfg.Obs.Histogram(name).Observe(ns)
	}
}

// event reports one store lifecycle event to the configured sink (the
// cluster event archive); rank is always the coordinator's.
func (s *Store) event(kind, detail string) {
	if s.cfg.Events != nil {
		s.cfg.Events(kind, obs.CoordRank, detail)
	}
}

// Close stops the compactor (finishing any pending pass) and closes the
// WAL. Mutations after Close fail with ErrClosed; pinned versions stay
// queryable.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.done
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stop)
	<-s.done
	if s.wal != nil {
		return s.wal.close()
	}
	return nil
}

// Dims reports the point dimensionality.
func (s *Store) Dims() int { return s.cfg.Dims }

// P reports the simulated machine width levels are built on.
func (s *Store) P() int { return s.cfg.P }

// Version reports the current data version. It advances on every
// mutation and on every compactor swap — the engine keys its answer
// cache on it, so a cached answer can never outlive the data it came
// from.
func (s *Store) Version() uint64 { return s.cur.Load().seq }

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Seq:      s.seq,
		Live:     s.liveN,
		Memtable: len(s.mem),
		Shadow:   len(s.shadow),
	}
	if s.compactErr != nil {
		st.CompactErr = s.compactErr.Error()
	}
	if s.queryErr != nil {
		st.QueryErr = s.queryErr.Error()
	}
	for _, l := range s.levels {
		if l != nil {
			st.Levels++
		}
	}
	s.mu.Unlock()
	st.Flushes = s.flushes.Load()
	st.Compactions = s.compactions.Load()
	st.BuildWall = time.Duration(s.buildNanos.Load())
	st.MaxBuild = time.Duration(s.maxBuildNanos.Load())
	st.BuiltPoints = s.builtPoints.Load()
	st.WALRecords = s.walRecords.Load()
	st.Checkpoints = s.checkpoints.Load()
	st.BulkLoads = s.bulkLoads.Load()
	st.BulkPoints = s.bulkPoints.Load()
	return st
}

// InsertBatch adds points and returns the data version the insert
// published. An ID may not be currently live nor still tombstoned
// (reusing an ID becomes legal once a compaction has folded its
// tombstone away); dimensionalities must match the store's. Rejected
// batches apply nothing and log nothing.
func (s *Store) InsertBatch(pts []geom.Point) (uint64, error) {
	return s.mutate(walInsert, pts, true)
}

// Insert adds one point.
func (s *Store) Insert(p geom.Point) (uint64, error) { return s.InsertBatch([]geom.Point{p}) }

// DeleteBatch removes live points (matched by ID; coordinates must be
// the stored ones — they position the tombstone for count subtraction)
// and returns the data version the delete published. Deleting an ID
// that is not currently live is an error; rejected batches apply
// nothing and log nothing.
func (s *Store) DeleteBatch(pts []geom.Point) (uint64, error) {
	return s.mutate(walDelete, pts, true)
}

// Delete removes one live point.
func (s *Store) Delete(p geom.Point) (uint64, error) { return s.DeleteBatch([]geom.Point{p}) }

// mutate is the shared write path: validate, log, apply, publish, and
// let the compactor know if thresholds tripped. WAL replay reuses it
// with logIt=false.
func (s *Store) mutate(op byte, pts []geom.Point, logIt bool) (uint64, error) {
	if len(pts) == 0 {
		return s.Version(), nil
	}
	for _, p := range pts {
		if p.Dims() != s.cfg.Dims {
			return 0, fmt.Errorf("store: point %d has %d dims, store has %d", p.ID, p.Dims(), s.cfg.Dims)
		}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, ErrClosed
	}
	if s.compactErr != nil {
		err := s.compactErr
		s.mu.Unlock()
		return 0, fmt.Errorf("store: compaction failed, mutations rejected: %w", err)
	}
	// Validate the whole batch against the live set before anything is
	// logged or applied: a phantom delete or duplicate insert would
	// otherwise corrupt counts silently — and durably, via the WAL.
	seen := make(map[int32]struct{}, len(pts))
	for _, p := range pts {
		if _, dup := seen[p.ID]; dup {
			s.mu.Unlock()
			return 0, fmt.Errorf("store: point %d appears twice in one batch", p.ID)
		}
		seen[p.ID] = struct{}{}
		_, live := s.liveIDs[p.ID]
		switch {
		case op == walInsert && live:
			s.mu.Unlock()
			return 0, fmt.Errorf("store: point %d is already live", p.ID)
		case op == walInsert:
			if _, dead := s.deadIDs[p.ID]; dead {
				s.mu.Unlock()
				return 0, fmt.Errorf("store: point %d still has an outstanding tombstone", p.ID)
			}
		case op == walDelete && !live:
			s.mu.Unlock()
			return 0, fmt.Errorf("store: point %d is not live", p.ID)
		}
	}
	if logIt && s.wal != nil {
		walStart := time.Now()
		if err := s.wal.append(op, pts); err != nil {
			s.mu.Unlock()
			return 0, err
		}
		s.observeNanos("store_wal_append_ns", time.Since(walStart).Nanoseconds())
		s.walRecords.Add(1)
	}
	// The store keeps no view of the caller's slices: the batch's
	// coordinates are copied into one array.
	own := make([]geom.Point, len(pts))
	coords := make([]geom.Coord, 0, len(pts)*s.cfg.Dims)
	for i, p := range pts {
		coords = append(coords, p.X...)
		own[i] = geom.Point{ID: p.ID, X: coords[len(coords)-len(p.X) : len(coords) : len(coords)]}
	}
	switch op {
	case walInsert:
		for _, p := range own {
			s.liveIDs[p.ID] = struct{}{}
		}
		s.mem = append(s.mem, own...)
		s.memRuns = s.memRuns.add(own)
		s.liveN += len(own)
	case walDelete:
		for _, p := range own {
			s.deadIDs[p.ID] = struct{}{}
			delete(s.liveIDs, p.ID)
		}
		s.shadow = append(s.shadow, own...)
		s.shadowRuns = s.shadowRuns.add(own)
		s.liveN -= len(own)
	}
	s.seq++
	seq := s.seq
	toClose := s.publishLocked()
	need := s.needsCompactLocked()
	s.mu.Unlock()
	closeTrees(toClose)
	if need {
		if s.cfg.Sync {
			s.compactPass()
		} else {
			select {
			case s.kick <- struct{}{}:
			default: // a pass is already pending; it re-checks thresholds
			}
		}
	}
	return seq, nil
}

// publishLocked installs a fresh immutable Version of the current state.
// The memtable and shadow runs are shared, not copied: a runs list is
// copy-on-write, so a pinned version's runs never change. The new
// version takes a reference on every
// level it holds; the superseded version drops its own once its last Pin
// is released. publishLocked returns any trees whose reference count hit
// zero — the caller must close them outside the lock.
func (s *Store) publishLocked() []*core.Tree {
	v := &Version{
		s:       s,
		seq:     s.seq,
		levels:  slices.Clone(s.levels),
		mem:     s.memRuns,
		shadow:  s.shadowRuns,
		liveN:   s.liveN,
		current: true,
	}
	for _, l := range v.levels {
		if l != nil {
			s.levelRefs[l]++
		}
	}
	prev := s.cur.Load()
	s.cur.Store(v)
	if prev == nil {
		return nil
	}
	prev.current = false
	return s.maybeReleaseLocked(prev)
}

// maybeReleaseLocked drops a superseded, unpinned version's level
// references, returning the trees to close (reference count zero).
func (s *Store) maybeReleaseLocked(v *Version) []*core.Tree {
	if v.released || v.current || v.pins > 0 {
		return nil
	}
	v.released = true
	var toClose []*core.Tree
	for _, l := range v.levels {
		if l == nil {
			continue
		}
		s.levelRefs[l]--
		if s.levelRefs[l] == 0 {
			delete(s.levelRefs, l)
			toClose = append(toClose, l)
		}
	}
	return toClose
}

// closeTrees closes retired level machines (ending their transport
// sessions — and with them any worker-resident forest state). Must be
// called outside s.mu.
func closeTrees(trees []*core.Tree) {
	for _, t := range trees {
		t.Machine().Close()
	}
}

// noteQueryErr records the first aborted query batch for Stats.QueryErr.
func (s *Store) noteQueryErr(err error) {
	s.mu.Lock()
	if s.queryErr == nil {
		s.queryErr = err
	}
	s.mu.Unlock()
}

// needsCompactLocked reports whether a flush or fold threshold tripped.
func (s *Store) needsCompactLocked() bool {
	if len(s.mem) >= s.cfg.MemtableCap {
		return true
	}
	return len(s.shadow) > 0 && float64(len(s.shadow)) >= s.cfg.ShadowFrac*float64(s.liveN)
}

// compactor is the background goroutine: each kick runs passes until no
// threshold remains tripped.
func (s *Store) compactor() {
	defer close(s.done)
	for {
		select {
		case <-s.kick:
			for s.compactPass() {
			}
		case <-s.stop:
			return
		}
	}
}

// compactPass runs one flush or fold if a threshold is tripped; it
// reports whether it did any work. The expensive build happens on a
// fresh machine outside every lock: queries keep serving the old
// version, writers keep appending, and the swap at the end is O(small).
func (s *Store) compactPass() bool {
	s.compacting.Lock()
	defer s.compacting.Unlock()

	// Snapshot the state to compact.
	s.mu.Lock()
	if !s.needsCompactLocked() {
		s.mu.Unlock()
		return false
	}
	memSnap := len(s.mem)
	shadowSnap := len(s.shadow)
	levelsSnap := slices.Clone(s.levels)
	mem := s.mem[:memSnap:memSnap]
	shadow := s.shadow[:shadowSnap:shadowSnap]
	fold := len(shadow) > 0 && float64(len(shadow)) >= s.cfg.ShadowFrac*float64(s.liveN)
	s.mu.Unlock()

	dead := make(map[int32]struct{}, len(shadow))
	for _, p := range shadow {
		dead[p.ID] = struct{}{}
	}
	consumed := make(map[int32]struct{})
	keep := func(pts []geom.Point, acc []geom.Point) []geom.Point {
		for _, p := range pts {
			if _, d := dead[p.ID]; d {
				consumed[p.ID] = struct{}{}
				continue
			}
			acc = append(acc, p)
		}
		return acc
	}

	// Collect the rebuild mass: always the snapshotted memtable; on a
	// fold, every level too; on a flush, the occupied low levels the
	// binary-counter carry merges. Reading level points serializes with
	// query batches (resident levels fetch from their worker sessions),
	// and a lost worker mid-read records like a failed build.
	var acc []geom.Point
	newLevels := slices.Clone(levelsSnap)
	slot := 0
	levelPoints := func(l *core.Tree) error {
		pts, err := l.AllPoints()
		if err != nil {
			return fmt.Errorf("store: compaction point collection: %w", err)
		}
		acc = keep(pts, acc)
		return nil
	}
	collectErr := func() error {
		s.queryMu.Lock()
		defer s.queryMu.Unlock()
		acc = keep(mem, acc)
		if fold {
			for i, l := range newLevels {
				if l != nil {
					if err := levelPoints(l); err != nil {
						return err
					}
					newLevels[i] = nil
				}
			}
			// The fold also consumes tombstones of points that were only
			// ever in the memtable — everything snapshotted is accounted.
			for _, p := range shadow {
				consumed[p.ID] = struct{}{}
			}
		} else {
			for ; slot < len(newLevels) && newLevels[slot] != nil; slot++ {
				if err := levelPoints(newLevels[slot]); err != nil {
					return err
				}
				newLevels[slot] = nil
			}
		}
		return nil
	}()
	if collectErr != nil {
		s.mu.Lock()
		if s.compactErr == nil {
			s.compactErr = collectErr
		}
		s.mu.Unlock()
		s.event("compact_error", collectErr.Error())
		return false
	}

	if len(acc) > 0 {
		start := time.Now()
		built, err := s.buildLevel(acc)
		if err != nil {
			// Leave the snapshotted state untouched: the store keeps
			// serving the published version, but mutations fail fast so
			// an uncompactable memtable cannot grow without bound.
			s.mu.Lock()
			if s.compactErr == nil {
				s.compactErr = err
			}
			s.mu.Unlock()
			s.event("compact_error", err.Error())
			return false
		}
		wall := time.Since(start)
		s.observeNanos("store_compact_build_ns", wall.Nanoseconds())
		s.buildNanos.Add(wall.Nanoseconds())
		if w := wall.Nanoseconds(); w > s.maxBuildNanos.Load() {
			s.maxBuildNanos.Store(w)
		}
		if fold {
			newLevels = newLevels[:0]
			newLevels = append(newLevels, built)
		} else {
			for len(newLevels) <= slot {
				newLevels = append(newLevels, nil)
			}
			newLevels[slot] = built
		}
	}
	for len(newLevels) > 0 && newLevels[len(newLevels)-1] == nil {
		newLevels = newLevels[:len(newLevels)-1]
	}
	if fold {
		s.compactions.Add(1)
		s.event("compaction", fmt.Sprintf("fold: %d points into one level", len(acc)))
	} else {
		s.flushes.Add(1)
		s.event("compaction", fmt.Sprintf("flush: %d points into level %d", len(acc), slot))
	}

	// Swap: splice out what was compacted, retain what arrived since
	// the snapshot, and publish the new version. Passes serialize on
	// s.compacting and only compaction rewrites s.levels, so s.levels
	// still equals levelsSnap here; the slot bookkeeping moves the
	// store's own reference from retired trees to built ones.
	s.mu.Lock()
	var toClose []*core.Tree
	inNew := make(map[*core.Tree]bool, len(newLevels))
	for _, l := range newLevels {
		if l != nil {
			inNew[l] = true
		}
	}
	wasOld := make(map[*core.Tree]bool, len(levelsSnap))
	for _, l := range levelsSnap {
		if l == nil {
			continue
		}
		wasOld[l] = true
		if inNew[l] {
			continue
		}
		s.levelRefs[l]--
		if s.levelRefs[l] == 0 {
			delete(s.levelRefs, l)
			toClose = append(toClose, l)
		}
	}
	for _, l := range newLevels {
		if l != nil && !wasOld[l] {
			s.levelRefs[l]++
		}
	}
	s.levels = newLevels
	s.mem = append([]geom.Point(nil), s.mem[memSnap:]...)
	var remaining []geom.Point
	for _, p := range s.shadow[:shadowSnap] {
		if _, c := consumed[p.ID]; !c {
			remaining = append(remaining, p)
		}
	}
	s.shadow = append(remaining, s.shadow[shadowSnap:]...)
	s.deadIDs = make(map[int32]struct{}, len(s.shadow))
	for _, p := range s.shadow {
		s.deadIDs[p.ID] = struct{}{}
	}
	s.memRuns = runs(nil).add(slices.Clone(s.mem))
	s.shadowRuns = runs(nil).add(slices.Clone(s.shadow))
	s.seq++
	toClose = append(toClose, s.publishLocked()...)
	s.mu.Unlock()
	closeTrees(toClose)
	return true
}

// Compact forces passes until no threshold remains tripped (tests and
// the CLI's explicit maintenance hook).
func (s *Store) Compact() {
	for s.compactPass() {
	}
}

// buildLevel builds one level tree on a fresh machine from the store's
// provider. A machine abort (e.g. a TCP cluster losing a worker
// mid-build) returns as an error the compactor can record. On a resident
// machine BuildOn stages the points into the workers first and the
// construction runs held: the compactor's rebuild mass crosses the
// coordinator once as raw ingest chunks and never again — every
// sample-sort and routing exchange of the build stays on the worker
// mesh.
func (s *Store) buildLevel(pts []geom.Point) (*core.Tree, error) {
	t, err := core.BuildOn(s.cfg.Provider, pts, core.BackendLayered)
	if err != nil {
		return nil, fmt.Errorf("store: level build: %w", err)
	}
	s.builtPoints.Add(uint64(len(pts)))
	return t, nil
}
