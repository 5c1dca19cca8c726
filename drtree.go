// Package drtree is a Go reproduction of "d-Dimensional Range Search on
// Multicomputers" (Ferreira, Kenyon, Rau-Chaplin, Ubéda; LIP RR-1996-23 /
// IPPS 1997): the distributed range tree on a Coarse-Grained Multicomputer
// and its batched search algorithms in counting, associative-function and
// report modes.
//
// Because Go has no MPI ecosystem, the multicomputer itself is part of the
// library: a deterministic CGM/BSP simulator whose processors are
// goroutines and whose communication is barrier-synchronised h-relations,
// instrumented to measure exactly what the paper's theorems bound
// (communication rounds, per-round h, local work). See DESIGN.md for the
// architecture and the experiment index, EXPERIMENTS.md for recorded runs.
//
// Quickstart:
//
//	pts, norm := drtree.Normalize(rawRows)          // raw floats → rank space
//	mach := drtree.NewMachine(drtree.MachineConfig{P: 8})
//	tree := drtree.BuildDistributed(mach, pts)      // Algorithm Construct
//	counts := tree.CountBatch([]drtree.Box{norm.Box(lo, hi)})
//
// This package exports only what the example programs, the commands and
// the runnable Examples use: building a tree in process, on a cluster or
// from streamed and file-sharded input; the three search modes, alone or
// mixed in one batch; the serving engine; the mutable store; the cluster
// health plane; and the workload generators. TestEveryExportHasACaller
// keeps it that way. The packages under internal/ hold the
// implementation: geom (points, boxes, rank normalization), segtree
// (segment-tree shape math and the paper's node labeling), rangetree and
// layered (the sequential structures), cgm + comm + psort (the simulated
// multicomputer and its standard operations), balance (the query/copy
// load balancing), core (the distributed range tree), store (the mutable
// LSM-of-trees serving store), engine (the concurrent micro-batching
// serving layer), transport (the TCP workers), kdtree/brute (baselines),
// workload (generators) and expt (the table harness behind
// cmd/rangebench).
package drtree

import (
	"time"

	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/dominance"
	"repro/internal/engine"
	"repro/internal/geom"
	obscluster "repro/internal/obs/cluster"
	"repro/internal/pointsfile"
	"repro/internal/semigroup"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/workload"
)

// Geometry types, re-exported from internal/geom.
type (
	// Point is a point in d-dimensional rank space.
	Point = geom.Point
	// Coord is a single rank coordinate.
	Coord = geom.Coord
	// Box is a closed axis-aligned query domain.
	Box = geom.Box
	// Normalizer maps raw float coordinates and boxes into rank space.
	Normalizer = geom.Normalizer
)

// Machine types, re-exported from internal/cgm.
type (
	// Machine is the simulated coarse-grained multicomputer CGM(s, p).
	Machine = cgm.Machine
	// MachineConfig configures a machine: its width, scheduling mode,
	// transport and residency, and where it publishes metrics, spans and
	// events. The BSP cost model is no machine setting: Metrics.ModelTime
	// takes its g and l as arguments.
	//
	// Setting Resident selects worker-resident execution on an in-process
	// machine or a Cluster alike: the forest elements (and the store's
	// level trees) live where the registered SPMD programs execute —
	// worker memory over TCP, the machine's local state store on the
	// loopback — and only query boxes and result blocks cross the
	// coordinator's wire. Answers and round/h metrics are identical in
	// both modes; aggregate queries on a resident tree need a registered
	// aggregate (RegisterAggregate + PrepareAssociativeNamed), since inline
	// monoids cannot cross process boundaries.
	MachineConfig = cgm.Config
)

// Cluster supplies machines whose supersteps run over TCP on remote
// worker processes: the multicomputer as real processes (see DESIGN.md
// §7). The same SPMD programs (construct, search, store compaction) run
// unchanged on it and on the in-process simulator. Set it as
// StoreConfig.Provider to build and query a store's levels on the
// workers.
type Cluster = transport.Cluster

// ClusterWorker is one worker process's serving state (cmd/rangeworker
// wraps it; tests and examples embed it in-process).
type ClusterWorker = transport.Worker

// StartWorker starts a cluster worker listening on addr (use
// "127.0.0.1:0" for an ephemeral port) and serving in the background.
func StartWorker(addr string) (*ClusterWorker, error) { return transport.ListenAndServe(addr) }

// DialCluster connects to running workers (one address per rank) and
// returns the provider the Cluster… constructors build on.
func DialCluster(addrs []string, cfg MachineConfig) (*Cluster, error) {
	return transport.DialCluster(addrs, cfg)
}

// Tree is the distributed range tree (the paper's contribution).
type Tree = core.Tree

// Monoid is a commutative monoid: the algebra of the associative-function
// search mode.
type Monoid[T any] = semigroup.Monoid[T]

// NewMachine creates a simulated multicomputer.
func NewMachine(cfg MachineConfig) *Machine { return cgm.New(cfg) }

// Normalize converts raw float rows into rank-space points plus the
// Normalizer that maps raw query boxes into the same space (the paper's §3
// normalization assumption).
func Normalize(raw [][]float64) ([]Point, *Normalizer) { return geom.NormalizeFloat64(raw) }

// RankNormalize rewrites integer-coordinate points into distinct ranks in
// place.
func RankNormalize(pts []Point) []Point { return geom.RankNormalize(pts) }

// NewBox builds a closed query box.
func NewBox(lo, hi []Coord) Box { return geom.NewBox(lo, hi) }

// BuildDistributed runs Algorithm Construct on the machine and returns the
// distributed range tree (Theorem 2: O(s/p) local work plus a constant
// number of h-relations), with forest elements built as layered trees.
func BuildDistributed(m *Machine, pts []Point) *Tree { return core.Build(m, pts) }

// ClusterBuild runs Algorithm Construct on a machine whose supersteps
// run over the cluster's TCP workers.
func ClusterBuild(cl *Cluster, pts []Point) (*Tree, error) {
	return core.BuildOn(cl, pts, core.BackendLayered)
}

// ClusterEngine builds a distributed tree on the cluster and wraps it in
// a serving engine: micro-batched queries whose machine runs execute on
// the worker processes.
func ClusterEngine(cl *Cluster, pts []Point, cfg EngineConfig) (*Engine[struct{}], error) {
	t, err := ClusterBuild(cl, pts)
	if err != nil {
		return nil, err
	}
	return engine.New(t, cfg), nil
}

// Worker-direct streaming ingest (DESIGN.md §11): workers feed the
// construction themselves — chunks stream into per-rank staging areas
// with a bounded in-flight window, or each rank reads its own points
// file — and the build runs held in worker memory. On a resident
// cluster the coordinator handles only the p² sample-sort splitters and
// control frames, never a routed point, so its traffic per build is
// O(p²), independent of n.

// ChunkSource yields successive point chunks for BulkLoadStream; Next
// returns io.EOF after the last chunk.
type ChunkSource = core.ChunkSource

// SliceChunks adapts an in-memory point slice into a ChunkSource of
// fixed-size chunks.
func SliceChunks(pts []Point, chunk int) ChunkSource { return core.SliceChunks(pts, chunk) }

// IngestConfig parametrises BulkLoadStream: the MaxShare QoS cap on the
// fraction of worker time the ingest may consume. Each rank's feed keeps
// a fixed window of 4 chunks in flight.
type IngestConfig = core.IngestConfig

// BulkLoadStream streams chunks into the machine's workers and
// constructs the tree worker-fed. On a cluster machine each rank is fed
// over its own direct connection (rank-parallel ingest, DESIGN.md §13).
func BulkLoadStream(m *Machine, src ChunkSource, cfg IngestConfig) (*Tree, error) {
	return core.BulkLoad(m, src, cfg)
}

// BulkLoadFiles builds a tree from one pre-partitioned points file per
// rank; the coordinator never opens them.
func BulkLoadFiles(m *Machine, paths []string) (*Tree, error) {
	return core.BulkLoadFiles(m, paths)
}

// SavePointsFile writes pts in the fixed-record binary layout
// BulkLoadFiles reads (rank-sliceable without parsing).
func SavePointsFile(path string, pts []Point) error { return pointsfile.Save(path, pts) }

// AggregateHandle is a prepared associative-function annotation; it
// answers batches via Batch and backs an engine's Aggregate mode.
type AggregateHandle[T any] = core.AggHandle[T]

// PrepareAssociative precomputes the associative-function annotation
// (Algorithm AssociativeFunction step 1) for monoid m with per-point value
// val; the returned handle answers batches via Batch. A group monoid (one
// with Inverse set) selects the compact prefix-table annotation, half the
// bytes of the segment trees other monoids get. Resident trees need
// PrepareAssociativeNamed instead. On a machine over worker processes the
// values cross the wire, which carries int64 and float64 only: another
// value type aborts the run with an error naming it.
func PrepareAssociative[T any](t *Tree, m Monoid[T], val func(Point) T) *AggregateHandle[T] {
	return core.PrepareAssociative(t, m, val)
}

// RegisterAggregate binds a name to a monoid and per-point value function
// for worker-resident execution. Call it from an init function of a
// package imported by every binary of the cluster (the coordinator and
// each rangeworker), so both sides resolve the name to identical code;
// internal/aggregates registers the standard ones. As with
// PrepareAssociative, setting m.Inverse selects the compact layout. The
// value type is int64 or float64, the two the wire carries.
func RegisterAggregate[T int64 | float64](name string, m Monoid[T], val func(Point) T) {
	core.RegisterAggregate(name, m, val)
}

// PrepareAssociativeNamed prepares the associative-function annotation
// for a registered aggregate. On a resident tree the per-element
// annotations are built in worker memory; on a fabric tree it behaves
// like PrepareAssociative with the registered monoid.
func PrepareAssociativeNamed[T any](t *Tree, name string) *AggregateHandle[T] {
	return core.PrepareAssociativeNamed[T](t, name)
}

// Mixed-mode batches: one machine run answering queries of all three
// result modes (the serving layer's dispatch path).

// QueryOp selects the result mode of one query in a mixed batch.
type QueryOp = core.MixedOp

// Query ops.
const (
	OpCount     = core.OpCount
	OpAggregate = core.OpAggregate
	OpReport    = core.OpReport
)

// MixedResult holds one mixed-batch answer; only the field selected by
// the query's op is meaningful. A report's Pts are in ascending point ID,
// and their coordinates are read-only views into the tree's element
// blocks: copy a point (Point.Clone) before writing it.
type MixedResult[T any] = core.MixedResult[T]

// MixedBatch answers a batch mixing count, aggregate and report queries
// in one machine run. h may be nil when ops contains no OpAggregate.
func MixedBatch[T any](t *Tree, h *AggregateHandle[T], ops []QueryOp, boxes []Box) []MixedResult[T] {
	return core.MixedBatch(t, h, ops, boxes)
}

// Serving layer (internal/engine): a concurrent query engine that
// micro-batches single queries from many goroutines into the mixed-mode
// pipeline, with an LRU answer cache and hit/miss/flush metrics.

// Engine is the concurrent micro-batching serving layer.
type Engine[T any] = engine.Engine[T]

// EngineConfig tunes the serving layer: the largest batch one machine
// run answers, the answer cache, and the observability hooks. There is
// no flush deadline: the engine dispatches whenever the machine is free.
type EngineConfig = engine.Config

// NewEngine creates a serving engine answering Count and Report queries.
func NewEngine(t *Tree, cfg EngineConfig) *Engine[struct{}] { return engine.New(t, cfg) }

// NewAggregateEngine creates a serving engine that additionally answers
// Aggregate queries through the prepared handle h.
func NewAggregateEngine[T any](t *Tree, h *AggregateHandle[T], cfg EngineConfig) *Engine[T] {
	return engine.WithAggregate(t, h, cfg)
}

// Common monoids, re-exported from internal/semigroup.
var (
	IntSum   = semigroup.IntSum
	FloatSum = semigroup.FloatSum
	MaxFloat = semigroup.MaxFloat
)

// DominanceTree answers weighted dominance (prefix) aggregates and box
// aggregates via 2^d-corner inclusion–exclusion.
type DominanceTree[T any] = dominance.Tree[T]

// BuildDominance builds the dominance-counting structure of footnote 2.
// m must be a group (Inverse set, as IntSum and FloatSum have); any other
// monoid, or an empty pts, is an error.
func BuildDominance[T any](pts []Point, m Monoid[T], val func(Point) T) (*DominanceTree[T], error) {
	return dominance.New(pts, m, val)
}

// Mutable serving store (internal/store): an LSM of distributed range
// trees — memtable, logarithmic-method levels of immutable Trees,
// tombstone deletes with automatic shadow folding, epoch-versioned
// snapshot reads, and WAL + checkpoint durability.

// Store is the mutable, versioned point store the engine can serve from.
type Store = store.Store

// StoreConfig tunes the store (dims, machine width, memtable size,
// shadow-fold fraction, durability). Its Provider — a Cluster, say —
// supplies the machines the level trees are built and queried on.
type StoreConfig = store.Config

// OpenStore creates or recovers a mutable store. With a non-empty dir
// the store is durable (checkpoint + WAL, crash-recoverable); with
// dir == "" it is ephemeral.
func OpenStore(dir string, cfg StoreConfig) (*Store, error) { return store.Open(dir, cfg) }

// NewStoreEngine creates a serving engine over a mutable store: Count
// and Report queries dispatch against pinned store versions while
// Insert/Delete proceed concurrently, and the answer cache is keyed by
// data version so cached answers can never outlive the data.
func NewStoreEngine(st *Store, cfg EngineConfig) *Engine[struct{}] {
	return engine.NewStore(st, cfg)
}

// Cluster health plane (internal/obs/cluster, DESIGN.md §14): workers
// push compact health beacons — liveness plus a full registry dump — on
// a keepalive stream; the coordinator runs a per-worker liveness state
// machine (healthy → suspect → down) and archives structured cluster
// events to a size-capped JSONL file.
//
//	evlog, _ := drtree.OpenClusterEvents(filepath.Join(dir, "events.jsonl"), 0)
//	mon := drtree.NewClusterMonitor(drtree.ClusterMonitorConfig{Addrs: addrs, Events: evlog})
//	watch := drtree.WatchClusterHealth(addrs, 0, mon)

// Health plane types, re-exported from internal/obs/cluster.
type (
	// ClusterMonitor is the coordinator-side liveness state machine over
	// the workers' beacon streams.
	ClusterMonitor = obscluster.Monitor
	// ClusterMonitorConfig configures the monitor (addresses, beacon
	// interval, missed-beacon thresholds, event archive, registry).
	ClusterMonitorConfig = obscluster.MonitorConfig
	// ClusterEventLog is the persistent structured event archive
	// (size-capped JSONL file plus an in-memory recent ring).
	ClusterEventLog = obscluster.EventLog
	// ClusterHealthWatcher owns the per-rank beacon streams feeding a
	// monitor (transport.WatchHealth's handle).
	ClusterHealthWatcher = transport.HealthWatcher
)

// WorkerDown is the liveness state of a worker whose beacons stopped.
const WorkerDown = obscluster.StateDown

// OpenClusterEvents opens (or creates, appending) a JSONL event archive;
// path == "" keeps events in memory only, maxBytes <= 0 defaults the
// per-segment size cap.
func OpenClusterEvents(path string, maxBytes int64) (*ClusterEventLog, error) {
	return obscluster.OpenEventLog(path, maxBytes)
}

// NewClusterMonitor starts the liveness state machine; feed it with
// WatchClusterHealth and close it when done.
func NewClusterMonitor(cfg ClusterMonitorConfig) *ClusterMonitor { return obscluster.NewMonitor(cfg) }

// WatchClusterHealth opens one beacon stream per worker (redialing on
// loss) and feeds the monitor; interval <= 0 selects the default 1s.
func WatchClusterHealth(addrs []string, interval time.Duration, mon *ClusterMonitor) *ClusterHealthWatcher {
	return transport.WatchHealth(addrs, interval, mon)
}

// Workload generation, re-exported so example programs and downstream
// benchmarks can stay on the public API.
type (
	// PointSpec describes a synthetic point set.
	PointSpec = workload.PointSpec
	// QuerySpec describes a synthetic query batch.
	QuerySpec = workload.QuerySpec
)

// Point distributions.
const (
	Uniform   = workload.Uniform
	Clustered = workload.Clustered
)

// GeneratePoints produces a rank-normalized synthetic point set.
func GeneratePoints(spec PointSpec) []Point { return workload.Points(spec) }

// GenerateBoxes produces a synthetic query batch in rank space.
func GenerateBoxes(spec QuerySpec) []Box { return workload.Boxes(spec) }
