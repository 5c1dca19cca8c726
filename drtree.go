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
// The packages under internal/ hold the implementation: geom (points,
// boxes, rank normalization), segtree (segment-tree shape math and the
// paper's node labeling), rangetree (the sequential structure), cgm + comm
// + psort (the simulated multicomputer and its standard operations),
// balance (the query/copy load balancing), core (the distributed range
// tree), store (the mutable LSM-of-trees serving store), engine (the
// concurrent micro-batching serving layer), kdtree/brute (baselines),
// workload (generators) and expt (the table harness behind
// cmd/rangebench).
package drtree

import (
	"io"
	"time"

	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/dominance"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/kdtree"
	"repro/internal/layered"
	"repro/internal/obs"
	obscluster "repro/internal/obs/cluster"
	"repro/internal/persist"
	"repro/internal/pointsfile"
	"repro/internal/rangetree"
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
	// MachineConfig configures a machine (width, mode, BSP cost model).
	MachineConfig = cgm.Config
	// Metrics is the machine's superstep accounting.
	Metrics = cgm.Metrics
)

// Machine scheduling modes.
const (
	// Concurrent runs the simulated processors as parallel goroutines.
	Concurrent = cgm.Concurrent
	// Measured time-slices processors for precise per-processor timing.
	Measured = cgm.Measured
)

// MachineProvider supplies machines of a fixed width: NewLocalProvider
// yields in-process simulators, a Cluster yields machines whose
// supersteps run over TCP on real worker processes. The same SPMD
// programs (construct, search, store compaction) run unchanged on either.
//
// Setting MachineConfig.Resident selects worker-resident execution on
// either provider: the forest elements (and the store's level trees)
// live where the registered SPMD programs execute — worker memory over
// TCP, the machine's local state store on the loopback — and only query
// boxes and result blocks cross the coordinator's wire. Answers and
// round/h metrics are identical in both modes; aggregate queries on a
// resident tree need a registered aggregate (RegisterAggregate +
// PrepareAssociativeNamed), since inline monoids cannot cross process
// boundaries.
type MachineProvider = cgm.Provider

// NewLocalProvider returns a provider of in-process machines.
func NewLocalProvider(cfg MachineConfig) MachineProvider { return cgm.NewLocalProvider(cfg) }

// Cluster is a MachineProvider backed by remote worker processes: the
// multicomputer as real processes over TCP (see DESIGN.md §7).
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

// Query-related core types.
type (
	// ElemInfo is replicated forest-element metadata.
	ElemInfo = core.ElemInfo
	// SearchStats is one processor's share of a batch.
	SearchStats = core.SearchStats
)

// RangeTree is the sequential d-dimensional range tree (Definition 1),
// used standalone or as the building block of forest elements.
type RangeTree = rangetree.Tree

// KDTree is the space-optimal baseline the paper compares against (§1).
type KDTree = kdtree.Tree

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

// ElemBackend selects the sequential structure forest elements (and their
// phase-B copies) are built on.
type ElemBackend = core.Backend

// Element backends.
const (
	// LayeredBackend (the default) serves phase-C subqueries on layered
	// (fractionally cascaded) trees: O(log^(j-1) g + k) per subquery, the
	// §1 saving applied to the distributed hot path.
	LayeredBackend = core.BackendLayered
	// RangeTreeBackend is the paper's plain sequential structure.
	RangeTreeBackend = core.BackendRangeTree
	// BruteBackend answers subqueries by linear scan (oracle/testing).
	BruteBackend = core.BackendBrute
)

// BuildDistributed runs Algorithm Construct on the machine and returns the
// distributed range tree (Theorem 2: O(s/p) local work plus a constant
// number of h-relations), with forest elements on the default layered
// backend.
func BuildDistributed(m *Machine, pts []Point) *Tree { return core.Build(m, pts) }

// BuildDistributedWith runs Algorithm Construct with an explicit element
// backend.
func BuildDistributedWith(m *Machine, pts []Point, be ElemBackend) *Tree {
	return core.BuildBackend(m, pts, be)
}

// BuildDistributedOn runs Algorithm Construct on a machine supplied by
// the provider (local simulator or TCP cluster), with the default
// layered element backend.
func BuildDistributedOn(pv MachineProvider, pts []Point) (*Tree, error) {
	return core.BuildOn(pv, pts, core.BackendLayered)
}

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

// ClusterOpenStore opens a mutable store whose level trees are built and
// queried on the cluster's workers (cfg.Provider and cfg.P are
// overridden by the cluster).
func ClusterOpenStore(cl *Cluster, dir string, cfg StoreConfig) (*Store, error) {
	cfg.Provider = cl
	return store.Open(dir, cfg)
}

// Worker-direct streaming ingest (DESIGN.md §11): workers feed the
// construction themselves — chunks stream into per-rank staging areas
// with a bounded in-flight window, or each rank reads its own slice of a
// points file — and the build runs held in worker memory. On a resident
// cluster the coordinator handles only the p² sample-sort splitters and
// control frames, never a routed point, so its traffic per build is
// O(p²), independent of n.

// ChunkSource yields successive point chunks for BulkLoadStream; Next
// returns io.EOF after the last chunk.
type ChunkSource = core.ChunkSource

// SliceChunks adapts an in-memory point slice into a ChunkSource of
// fixed-size chunks.
func SliceChunks(pts []Point, chunk int) ChunkSource { return core.SliceChunks(pts, chunk) }

// BuildWorkerFed runs Algorithm Construct with worker-held input: on a
// resident machine the points are staged into the workers first and
// every construction exchange stays on the worker mesh; on a fabric
// machine it is identical to BuildDistributedWith.
func BuildWorkerFed(m *Machine, pts []Point, be ElemBackend) *Tree {
	return core.BuildWorkerFed(m, pts, be)
}

// BulkLoadStream streams chunks into the machine's workers (window
// chunks in flight per rank; window ≤ 0 selects the default) and
// constructs the tree worker-fed. On a cluster machine each rank is fed
// over its own direct connection (rank-parallel ingest, DESIGN.md §13);
// use BulkLoadStreamWith for the QoS share cap.
func BulkLoadStream(m *Machine, src ChunkSource, window int) (*Tree, error) {
	return core.BulkLoad(m, src, core.BackendLayered, window)
}

// IngestConfig parametrises BulkLoadStreamWith: the per-rank in-flight
// window and the MaxShare QoS cap on the fraction of worker time the
// ingest may consume.
type IngestConfig = core.IngestConfig

// BulkLoadStreamWith is BulkLoadStream with explicit ingest
// configuration (window, QoS share cap).
func BulkLoadStreamWith(m *Machine, src ChunkSource, cfg IngestConfig) (*Tree, error) {
	return core.BulkLoadWith(m, src, core.BackendLayered, cfg)
}

// BulkLoadFile builds a tree from a points file (SavePointsFile layout):
// each rank reads its own record slice directly — the coordinator reads
// only the 17-byte header.
func BulkLoadFile(m *Machine, path string) (*Tree, error) {
	return core.BulkLoadFile(m, path, core.BackendLayered)
}

// BulkLoadFiles builds a tree from one pre-partitioned points file per
// rank; the coordinator never opens them.
func BulkLoadFiles(m *Machine, paths []string) (*Tree, error) {
	return core.BulkLoadFiles(m, paths, core.BackendLayered)
}

// SavePointsFile writes pts in the fixed-record binary layout the bulk
// file loaders read (rank-sliceable without parsing).
func SavePointsFile(path string, pts []Point) error { return pointsfile.Save(path, pts) }

// PointsFileInfo reports a points file's record count and dimensionality
// from its header.
func PointsFileInfo(path string) (n, dims int, err error) { return pointsfile.Info(path) }

// BuildSequential builds the classical sequential range tree over all
// dimensions of pts.
func BuildSequential(pts []Point) *RangeTree { return rangetree.Build(pts) }

// BuildKD builds the k-d tree baseline.
func BuildKD(pts []Point) *KDTree { return kdtree.Build(pts) }

// AggregateHandle is a prepared associative-function annotation; it
// answers batches via Batch and backs an engine's Aggregate mode.
type AggregateHandle[T any] = core.AggHandle[T]

// PrepareAssociative precomputes the associative-function annotation
// (Algorithm AssociativeFunction step 1) for monoid m with per-point value
// val; the returned handle answers batches via Batch. A group monoid (one
// with Inverse set) selects the compact prefix-table annotation, half the
// bytes of the segment trees other monoids get. Resident trees need
// PrepareAssociativeNamed instead.
func PrepareAssociative[T any](t *Tree, m Monoid[T], val func(Point) T) *AggregateHandle[T] {
	return core.PrepareAssociative(t, m, val)
}

// RegisterAggregate binds a name to a monoid and per-point value function
// for worker-resident execution. Call it from an init function of a
// package imported by every binary of the cluster (the coordinator and
// each rangeworker), so both sides resolve the name to identical code;
// internal/aggregates registers the standard ones. As with
// PrepareAssociative, setting m.Inverse selects the compact layout.
func RegisterAggregate[T any](name string, m Monoid[T], val func(Point) T) {
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
// the query's op is meaningful.
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

// Engine configuration and metrics.
type (
	// EngineConfig tunes the serving layer: the largest batch one machine
	// run answers, the answer cache, and the observability hooks. There is
	// no flush deadline: the engine dispatches whenever the machine is free.
	EngineConfig = engine.Config
	// EngineStats is a snapshot of the engine's counters.
	EngineStats = engine.Stats
)

// Engine sentinel errors.
var (
	// ErrEngineClosed is returned by queries submitted after Close.
	ErrEngineClosed = engine.ErrClosed
	// ErrNoAggregate is returned by Aggregate on an engine built without
	// a prepared handle.
	ErrNoAggregate = engine.ErrNoAggregate
)

// NewEngine creates a serving engine answering Count and Report queries.
func NewEngine(t *Tree, cfg EngineConfig) *Engine[struct{}] { return engine.New(t, cfg) }

// NewAggregateEngine creates a serving engine that additionally answers
// Aggregate queries through the prepared handle h.
func NewAggregateEngine[T any](t *Tree, h *AggregateHandle[T], cfg EngineConfig) *Engine[T] {
	return engine.WithAggregate(t, h, cfg)
}

// Aggregate builds a sequential associative-function annotation over a
// sequential range tree and returns a single-query evaluator.
func Aggregate[T any](t *RangeTree, m Monoid[T], val func(Point) T) func(Box) T {
	agg := rangetree.NewAgg(t, m, val)
	return agg.Query
}

// Common monoids, re-exported from internal/semigroup.
var (
	IntSum   = semigroup.IntSum
	FloatSum = semigroup.FloatSum
	MaxFloat = semigroup.MaxFloat
	MinFloat = semigroup.MinFloat
	MaxInt   = semigroup.MaxInt
	MinInt   = semigroup.MinInt
)

// Extension structures (see DESIGN.md §10, experiments E11–E13).

// LayeredTree is the layered range tree the paper cites in §1: fractional
// cascading removes a log n factor from the query time.
type LayeredTree = layered.Tree

// BuildLayered builds a layered range tree over all dimensions of pts.
func BuildLayered(pts []Point) *LayeredTree { return layered.Build(pts) }

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

// Store configuration, version and metrics types.
type (
	// StoreConfig tunes the store (dims, machine width, memtable size,
	// shadow-fold fraction, durability).
	StoreConfig = store.Config
	// StoreVersion is one pinned immutable snapshot of the store.
	StoreVersion = store.Version
	// StoreStats is a snapshot of the store's counters.
	StoreStats = store.Stats
)

// ErrStoreClosed is returned by mutations submitted after Store.Close.
var ErrStoreClosed = store.ErrClosed

// ErrImmutableEngine is returned by Insert/Delete on an engine serving
// an immutable tree rather than a store.
var ErrImmutableEngine = engine.ErrImmutable

// OpenStore creates or recovers a mutable store. With a non-empty dir
// the store is durable (checkpoint + WAL, crash-recoverable via the
// same internal/persist machinery as SaveTree); with dir == "" it is
// ephemeral.
func OpenStore(dir string, cfg StoreConfig) (*Store, error) { return store.Open(dir, cfg) }

// NewStoreEngine creates a serving engine over a mutable store: Count
// and Report queries dispatch against pinned store versions while
// Insert/Delete proceed concurrently, and the answer cache is keyed by
// data version so cached answers can never outlive the data.
func NewStoreEngine(st *Store, cfg EngineConfig) *Engine[struct{}] {
	return engine.NewStore(st, cfg)
}

// Observability (internal/obs, DESIGN.md §12): a dependency-free metrics
// registry plus per-query tracing, shared by the machine, the engine, the
// store and the worker processes. Create one Registry and one Tracer per
// process, pass them through MachineConfig.Obs/.Tracer (and
// EngineConfig / StoreConfig.Obs), and serve the registry over HTTP with
// ServeAdmin — or call ClusterWorker.EnableDebug for a worker's own
// endpoint.

// Obs types, re-exported from internal/obs.
type (
	// ObsRegistry is a process-component's metrics registry: atomic
	// counters, gauges and log-bucket histograms, exported in Prometheus
	// text format by its WriteProm (and by ServeAdmin's /metrics).
	ObsRegistry = obs.Registry
	// ObsTracer collects per-query spans; its Tree renders a query's
	// cross-worker execution as an indented span tree.
	ObsTracer = obs.Tracer
	// ObsSpan is one timed region of a traced query's execution.
	ObsSpan = obs.Span
	// ObsAdmin is a live debug HTTP endpoint (/metrics, /healthz,
	// /debug/pprof) over a registry.
	ObsAdmin = obs.Admin
)

// NewObsRegistry creates an empty metrics registry.
func NewObsRegistry() *ObsRegistry { return obs.NewRegistry() }

// NewObsTracer creates an empty query tracer.
func NewObsTracer() *ObsTracer { return obs.NewTracer() }

// ServeAdmin serves reg's metrics (plus health and pprof) on an HTTP
// listener at addr; health may be nil. Close the returned Admin to stop.
func ServeAdmin(addr string, reg *ObsRegistry, health func() any) (*ObsAdmin, error) {
	return obs.ServeAdmin(addr, reg, health)
}

// Cluster health plane (internal/obs/cluster, DESIGN.md §14): workers
// push compact health beacons — liveness plus a full registry dump — on
// a keepalive stream; the coordinator runs a per-worker liveness state
// machine (healthy → suspect → down), archives structured cluster
// events to a size-capped JSONL file, and merges every worker's metrics
// with its own into one cluster view served from /cluster/* endpoints
// (which the rangetop dashboard, `rangesearch -mode top`, renders live).
//
//	evlog, _ := drtree.OpenClusterEvents(filepath.Join(dir, "events.jsonl"), 0)
//	mon := drtree.NewClusterMonitor(drtree.ClusterMonitorConfig{Addrs: addrs, Events: evlog, Obs: reg})
//	watch := drtree.WatchClusterHealth(addrs, 0, mon)
//	agg := &drtree.ClusterAggregator{Mon: mon, Events: evlog, Local: reg}
//	agg.Mount(admin) // /cluster/metrics, /cluster/healthz, /cluster/events, /cluster/top

// Health plane types, re-exported from internal/obs/cluster.
type (
	// ClusterMonitor is the coordinator-side liveness state machine over
	// the workers' beacon streams.
	ClusterMonitor = obscluster.Monitor
	// ClusterMonitorConfig configures the monitor (addresses, beacon
	// interval, missed-beacon thresholds, event archive, registry).
	ClusterMonitorConfig = obscluster.MonitorConfig
	// ClusterWorkerHealth is one worker's liveness row in a snapshot.
	ClusterWorkerHealth = obscluster.WorkerHealth
	// ClusterEventLog is the persistent structured event archive
	// (size-capped JSONL file plus an in-memory recent ring).
	ClusterEventLog = obscluster.EventLog
	// ClusterEvent is one archived cluster event.
	ClusterEvent = obscluster.Event
	// ClusterAggregator merges the coordinator registry with the latest
	// beacon-carried worker registries into the /cluster/* endpoints.
	ClusterAggregator = obscluster.Aggregator
	// ClusterHealthWatcher owns the per-rank beacon streams feeding a
	// monitor (transport.WatchHealth's handle).
	ClusterHealthWatcher = transport.HealthWatcher
)

// Worker liveness states.
const (
	WorkerUnknown = obscluster.StateUnknown
	WorkerHealthy = obscluster.StateHealthy
	WorkerSuspect = obscluster.StateSuspect
	WorkerDown    = obscluster.StateDown
)

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

// ReadClusterEvents loads every event from an archive segment — the
// post-mortem reader matching the event log's JSONL writer.
func ReadClusterEvents(path string) ([]ClusterEvent, error) { return obscluster.ReadEvents(path) }

// SaveTree writes a machine-independent snapshot of the distributed tree
// (rank points + parameters, versioned and checksummed); LoadTree rebuilds
// it deterministically, possibly on a machine of a different width.
func SaveTree(w io.Writer, t *Tree) error { return persist.Save(w, t) }

// LoadTree reads a snapshot and rebuilds the distributed tree on m.
func LoadTree(r io.Reader, m *Machine) (*Tree, error) { return persist.Load(r, m) }

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
	Uniform    = workload.Uniform
	Clustered  = workload.Clustered
	Correlated = workload.Correlated
)

// GeneratePoints produces a rank-normalized synthetic point set.
func GeneratePoints(spec PointSpec) []Point { return workload.Points(spec) }

// GenerateBoxes produces a synthetic query batch in rank space.
func GenerateBoxes(spec QuerySpec) []Box { return workload.Boxes(spec) }
