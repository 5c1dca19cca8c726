package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/cgm"
	"repro/internal/comm"
	"repro/internal/exec"
	"repro/internal/geom"
	"repro/internal/pointsfile"
	"repro/internal/psort"
	"repro/internal/segtree"
	"repro/internal/semigroup"
	"repro/internal/wire"
)

// This file is the worker-resident half of the distributed range tree:
// the registered SPMD program ("core/forest") whose per-rank state holds
// the forest part — the element point sets, their sequential trees, the
// phase-B copies and caches, and the associative-function annotations.
//
// On a resident machine (cgm.Config.Resident) the construct and search
// pipelines keep their superstep structure on the coordinator — the hat
// layer, the sorts, the demand/balance planning, the result collectives —
// but every access to element state dispatches here: construction's
// routed points are collected into worker memory (ExchangeCollect),
// phase B ships copies worker-to-worker (ExchangeSteps), and phase C is
// the fused route collect (search/routeMixed), which answers the routed
// subqueries in the superstep that delivers them where the trees live, so
// only query boxes and result blocks cross the coordinator's wire. On the loopback
// transport the identical registered steps run in-process against the
// machine's local state stores, which is what the cross-residency
// equivalence tests pin down.

// forestProgram names the registered program; forestVersion guards
// against coordinator/worker binary skew.
const (
	forestProgram = "core/forest"
	forestVersion = 5 // 5: no search/serveReport or search/serveAgg
)

// fref names one step of the forest program.
func fref(step string) exec.Ref {
	return exec.Ref{Program: forestProgram, Version: forestVersion, Step: step}
}

// residentPart is one rank's resident state: the element-holding half of
// a procState, living where the program's steps run.
type residentPart struct {
	backend   Backend
	elems     map[ElemID]*element
	copies    map[ElemID]*element
	copyCache *copyCache[*element]
	aggs      map[string]*residentAggState

	// staged is the rank's ingested-but-not-yet-built input block (the
	// ingest steps append to it; construct/seed consumes it). recs is the
	// working record set of a held construction — the rank-local S^(j)
	// rows that the worker-side sample sort and routing steps transform in
	// place of the coordinator's slices.
	staged []geom.Point
	recs   []srec
}

// lookup resolves an element from the owned part or the current copies.
func (part *residentPart) lookup(id ElemID) *element {
	if el, ok := part.elems[id]; ok {
		return el
	}
	if el, ok := part.copies[id]; ok {
		return el
	}
	panic(fmt.Sprintf("core: resident part asked to serve element %d it does not hold", id))
}

// agg resolves (creating if needed) the named aggregate's resident state.
func (part *residentPart) agg(name string) *residentAggState {
	ra, ok := part.aggs[name]
	if !ok {
		ra = &residentAggState{
			elemAggs: make(map[ElemID]any),
			cache:    newCopyCache[cachedAggAny](),
		}
		part.aggs[name] = ra
	}
	return ra
}

// residentAggState is the resident counterpart of one AggHandle's
// per-rank annotations: owned-element annotations, the per-batch copy
// annotations, and the cross-batch annotation cache.
type residentAggState struct {
	elemAggs map[ElemID]any // elemAgg[T], type-erased
	copyAggs map[ElemID]any
	cache    *copyCache[cachedAggAny]
}

// cachedAggAny is one cross-batch annotation cache entry (type-erased
// mirror of cachedAgg[T]; an entry is only reused for the same built
// tree instance).
type cachedAggAny struct {
	tree elemTree
	agg  any
}

// Step argument and reply types. Everything crossing the seam has a raw
// wire codec (wirecodec.go); the fields stay exported for wire's gob
// fallback, which only custom aggregate value types take.

// beginArgs resets the part for a fresh construction.
type beginArgs struct {
	Backend Backend
}

// constructInstallArgs accompanies one construction phase's routed
// points: the replicated metadata of the elements this rank owns in the
// phase (the collect side builds exactly these).
type constructInstallArgs struct {
	Backend Backend
	Infos   []ElemInfo
}

// nextArgs asks for the S^(j+1) records of the owned dimension-j
// elements (Construct step 7, executed where the points live).
type nextArgs struct {
	Dim int8
}

// shipArgs drives the phase-B emit: the owner's shipping plan, decided
// by the coordinator-side planner (planShips) for either balance
// granularity.
type shipArgs struct {
	Ships []hostShip
}

// installCopiesArgs parametrises the phase-B collect: the batch's epoch
// and the cache bound (as the fabric install takes them) plus the
// aggregate the batch serves, if any ("" = none).
type installCopiesArgs struct {
	Epoch uint64
	Cap   int
	Agg   string
}

// serveArgs routes one rank's served subqueries to its resident part.
type serveArgs struct {
	Subs []subquery
}

// aggPrepArgs asks the part to annotate its owned elements for a named
// aggregate (Algorithm AssociativeFunction step 1, resident side).
type aggPrepArgs struct {
	Name string
}

// aggRoot carries one element's root aggregate value back to the
// coordinator (the forest-root broadcast of step 1). It is also the
// fabric path's record type, so both paths exchange identical rows.
type aggRoot[T any] struct {
	Elem ElemID
	Val  T
}

// fetchArgs asks for the points of owned elements, aligned with Elems.
type fetchArgs struct {
	Elems []ElemID
}

// elemStat reports one owned element's size (space accounting).
type elemStat struct {
	ID    ElemID
	Nodes int
}

// ingestChunkArgs delivers one streamed block of points to a rank's
// staging area (BulkLoad's round-robin chunks).
type ingestChunkArgs struct {
	Pts []geom.Point
}

// ingestFileArgs asks the rank to read a pointsfile straight into its
// staging area — the local-file ingest path, no payload on the
// coordinator wire.
type ingestFileArgs struct {
	Path string
}

// ingestReply reports what a file ingest staged, so the coordinator can
// total n and check dims without reading the files itself.
type ingestReply struct {
	N    int
	Dims int8
}

// seedArgs turns the staged points into the held construction's S^(1)
// records; Dims is the build's declared dimensionality to validate
// against.
type seedArgs struct {
	Dims int8
}

// dimArgs names the dimension a held sort/merge step works in.
type dimArgs struct {
	Dim int8
}

// sortLocalReply returns the rank's p regular samples (full records —
// the splitters the coordinator derives are the only point payload it
// ever handles) plus the local record count.
type sortLocalReply struct {
	Samples []srec
	Len     int
}

// wsortPartArgs drives the held sample sort's route emit: partition the
// locally sorted records by the broadcast splitters.
type wsortPartArgs struct {
	Dim       int8
	Splitters []srec
}

// lenReply reports a step's resulting record count.
type lenReply struct {
	Len int
}

// wsortBalanceArgs drives the held rebalance emit: cut the merged run at
// the global block boundaries.
type wsortBalanceArgs struct {
	Offset, Total int
}

// balanceReply reports the balanced record count plus the rank's key
// runs, from which every rank derives the phase's trees.
type balanceReply struct {
	Len  int
	Runs []runSum
}

// routeHeldArgs drives the held construction's route emit (Construct
// step 3 computed worker-side): the replicated tree summaries plus this
// rank's global record offset.
type routeHeldArgs struct {
	Trees  []treeSum
	Grain  int
	Offset int
}

// mixedServeArgs parametrises the fused route-and-serve collect of a
// mixed batch: the per-query op table and the prepared aggregate, if any.
type mixedServeArgs struct {
	Agg string
	Ops []MixedOp
}

// mixedServeReply carries a mixed batch's three result kinds back in one
// reply; Aggs is the spec-encoded []qvalT[T] (empty when the batch routed
// no aggregate subqueries here).
type mixedServeReply struct {
	Counts []qcount
	Aggs   []byte
	Locals []rlocal
}

func init() {
	exec.Register(&exec.Program{
		Name:    forestProgram,
		Version: forestVersion,
		New: func(rank, p int) any {
			return &residentPart{
				elems:     make(map[ElemID]*element),
				copies:    make(map[ElemID]*element),
				copyCache: newCopyCache[*element](),
				aggs:      make(map[string]*residentAggState),
			}
		},
		Steps: map[string]exec.Step{
			"construct/begin":     exec.Pure(constructBeginStep),
			"construct/next":      exec.Pure(constructNextStep),
			"construct/seed":      exec.Pure(constructSeedStep),
			"construct/sortLocal": exec.Pure(sortLocalStep),
			"construct/nextHeld":  exec.Pure(constructNextHeldStep),
			"ingest/begin":        exec.Pure(ingestBeginStep),
			"ingest/chunk":        exec.Pure(ingestChunkStep),
			"ingest/file":         exec.Pure(ingestFileStep),
			"search/serveCount":   exec.Pure(serveCountStep),
			"assoc/prepare":       aggPrepareStep,
			"points/fetch":        exec.Pure(fetchPointsStep),
			"stats/elems":         exec.Pure(elemStatsStep),
		},
		Emits: map[string]exec.Emit{
			"construct/wsortPart":  exec.Emitter(wsortPartStep),
			"construct/wsortSplit": exec.Emitter(wsortSplitStep),
			"construct/routeHeld":  exec.Emitter(routeHeldStep),
			"search/ship":          exec.Emitter(shipStep),
		},
		Collects: map[string]exec.Collect{
			"construct/install":     exec.Collector(constructInstallStep),
			"construct/wsortMerge":  exec.Collector(wsortMergeStep),
			"construct/wsortGather": exec.Collector(wsortGatherStep),
			"search/install":        exec.Collector(installCopiesStep),
			"search/routeMixed":     routeMixedStep,
		},
	})
}

// constructBeginStep resets the part for a fresh construction (a machine
// rebuilt on — e.g. a store recovering its checkpoint — must not merge
// two forests). Staged ingest blocks and held records survive the reset:
// they are this build's input.
func constructBeginStep(part *residentPart, _ *exec.Ctx, args beginArgs) (bool, error) {
	part.backend = args.Backend
	part.elems = make(map[ElemID]*element)
	part.copies = make(map[ElemID]*element)
	part.copyCache = newCopyCache[*element]()
	part.aggs = make(map[string]*residentAggState)
	return true, nil
}

// ingestBeginStep opens a fresh staging area (aborting any half-staged
// prior load so a failed BulkLoad can be retried on the same cluster).
func ingestBeginStep(part *residentPart, _ *exec.Ctx, _ bool) (bool, error) {
	part.staged = nil
	part.recs = nil
	return true, nil
}

// ingestChunkStep appends one streamed block to the staging area. The
// decoded points are freshly allocated by the wire codec (or by the
// loopback's encode/decode round trip), so retaining them is safe.
func ingestChunkStep(part *residentPart, _ *exec.Ctx, args ingestChunkArgs) (int, error) {
	part.staged = append(part.staged, args.Pts...)
	return len(part.staged), nil
}

// ingestFileStep reads a pointsfile straight into the staging area:
// the rank-local file ingest path, where point payloads never touch the
// coordinator at all.
func ingestFileStep(part *residentPart, _ *exec.Ctx, args ingestFileArgs) (ingestReply, error) {
	pts, dims, err := pointsfile.Read(args.Path)
	if err != nil {
		return ingestReply{}, err
	}
	part.staged = append(part.staged, pts...)
	return ingestReply{N: len(pts), Dims: int8(dims)}, nil
}

// constructSeedStep is Construct step 1 on the resident side: the staged
// points become the rank's S^(1) records (all under the hat root). It
// consumes the staging area and returns the seeded count, which the
// coordinator cross-checks against the declared n.
func constructSeedStep(part *residentPart, _ *exec.Ctx, args seedArgs) (int, error) {
	recs := make([]srec, 0, len(part.staged))
	for _, pt := range part.staged {
		if pt.Dims() != int(args.Dims) {
			return 0, fmt.Errorf("core: staged point %d has %d dims, build expects %d", pt.ID, pt.Dims(), args.Dims)
		}
		recs = append(recs, srec{Pt: pt, Key: segtree.RootPathKey})
	}
	part.recs = recs
	part.staged = nil
	return len(recs), nil
}

// sortLocalStep is the held sample sort's local phase: sort the rank's
// records and return the p regular samples — the only point-bearing rows
// the coordinator handles during a held construction.
func sortLocalStep(part *residentPart, c *exec.Ctx, args dimArgs) (sortLocalReply, error) {
	less := srecLess(int(args.Dim))
	psort.SortLocal(part.recs, less)
	return sortLocalReply{Samples: psort.Samples(part.recs, c.P), Len: len(part.recs)}, nil
}

// wsortPartStep is the held sample sort's route emit: partition the
// locally sorted records by the broadcast splitters (views into recs; the
// merge collect of the same superstep replaces recs only after reading).
func wsortPartStep(part *residentPart, c *exec.Ctx, args wsortPartArgs) ([][]srec, []byte, error) {
	return psort.Partition(part.recs, args.Splitters, c.P, srecLess(int(args.Dim))), nil, nil
}

// wsortMergeStep is the held sample sort's merge collect: the routed runs
// arrive sorted per source and merge into the rank's new record set.
func wsortMergeStep(part *residentPart, _ *exec.Ctx, args dimArgs, in [][]srec) (lenReply, error) {
	part.recs = psort.MergeRuns(in, srecLess(int(args.Dim)))
	return lenReply{Len: len(part.recs)}, nil
}

// wsortSplitStep is the held rebalance emit: cut the merged run at the
// global block boundaries (again views; the gather collect copies).
func wsortSplitStep(part *residentPart, c *exec.Ctx, args wsortBalanceArgs) ([][]srec, []byte, error) {
	return comm.BlockPartition(part.recs, args.Offset, args.Total, c.P), nil, nil
}

// wsortGatherStep is the held rebalance collect: concatenating the
// sources in rank order preserves global order. It also computes the key
// runs, from which every rank derives the phase's trees — so the runs
// all-gather exchanges the same rows as the coordinator-fed path.
func wsortGatherStep(part *residentPart, _ *exec.Ctx, _ bool, in [][]srec) (balanceReply, error) {
	part.recs = slices.Concat(in...)
	return balanceReply{Len: len(part.recs), Runs: keyRuns(part.recs)}, nil
}

// routeHeldStep is Construct step 3's emit on the resident side: bucket
// the rank's balanced records to their elements' owners. The record set
// is consumed — the install collect of the same superstep builds the
// phase's owned elements.
func routeHeldStep(part *residentPart, c *exec.Ctx, args routeHeldArgs) ([][]epoint, []byte, error) {
	out, err := routeRecords(part.recs, args.Trees, args.Grain, args.Offset, c.P)
	if err != nil {
		return nil, nil, err
	}
	part.recs = nil
	return out, nil, nil
}

// constructNextHeldStep is constructNextStep for a held construction: the
// S^(j+1) records stay in the rank's record set instead of returning to
// the coordinator; only the count crosses the seam.
func constructNextHeldStep(part *residentPart, _ *exec.Ctx, args nextArgs) (int, error) {
	part.recs = nextRecords(part, args.Dim)
	return len(part.recs), nil
}

// constructInstallStep is Construct step 4 on the resident side: the
// routed records of one phase arrive as the superstep's column, and the
// owned forest elements are built sequentially into worker memory. It
// returns the stub metadata (the hat's leaves) for the roots broadcast.
func constructInstallStep(part *residentPart, _ *exec.Ctx, args constructInstallArgs, incoming [][]epoint) ([]elemMeta, error) {
	part.backend = args.Backend
	byID := make(map[ElemID]ElemInfo, len(args.Infos))
	for _, info := range args.Infos {
		byID[info.ID] = info
	}
	_, metas, err := buildForestElements(part.backend,
		func(id ElemID) (ElemInfo, bool) { info, ok := byID[id]; return info, ok },
		incoming, func(el *element) { part.elems[el.info.ID] = el })
	return metas, err
}

// nextRecords is Construct step 7's resident computation: every owned
// dimension-j element walks its hat-internal ancestors and emits one
// S^(j+1) record per (ancestor, point) — computed where the points live.
func nextRecords(part *residentPart, dim int8) []srec {
	var ids []ElemID
	for id, el := range part.elems {
		if el.info.Dim == dim {
			ids = append(ids, id)
		}
	}
	slices.SortFunc(ids, func(a, b ElemID) int { return cmp.Compare(a, b) })
	var next []srec
	for _, id := range ids {
		next = nextDimRecords(part.elems[id], next)
	}
	return next
}

// constructNextStep returns the S^(j+1) records to the coordinator, whose
// next phase sorts them (the coordinator-fed construction).
func constructNextStep(part *residentPart, _ *exec.Ctx, args nextArgs) ([]srec, error) {
	return nextRecords(part, args.Dim), nil
}

// shipStep is the phase-B emit: the owner ships its planned copies
// (Search step 3) straight from worker memory into the fabric — points
// for the hosts that lack the copy, ID-only references for the rest.
func shipStep(part *residentPart, c *exec.Ctx, args shipArgs) ([][]shippedElem, []byte, error) {
	out, note, err := shipRows(nil, part.elems, args.Ships, c.P)
	if err != nil {
		return nil, nil, err
	}
	return out, exec.Marshal(note), nil
}

// installCopiesStep is the phase-B collect: install the shipped copies
// into worker memory through the same installShipped the fabric path
// runs; the epoch and cap bound are the coordinator's, and the reply
// carries the cache's changes back for its mirror. When the batch serves
// a named aggregate, each installed copy is annotated too (the resident
// counterpart of the modes' materialize hook).
func installCopiesStep(part *residentPart, c *exec.Ctx, args installCopiesArgs, incoming [][]shippedElem) (installCopiesReply, error) {
	part.copies = make(map[ElemID]*element)
	var materialize func(*element)
	if args.Agg != "" {
		spec, err := lookupAggSpec(args.Agg)
		if err != nil {
			return installCopiesReply{}, err
		}
		ra := part.agg(args.Agg)
		ra.copyAggs = make(map[ElemID]any)
		ra.cache.begin(args.Epoch)
		materialize = func(el *element) { spec.annotateCopy(ra, el, args.Cap) }
	}
	return installShipped(part.backend, c.Rank, part.copies, part.copyCache,
		args.Epoch, args.Cap, incoming, materialize)
}

// servedCounts answers counting subqueries from the resident part (phase
// C where the trees live).
func servedCounts(part *residentPart, subs []subquery) []qcount {
	var cv countVisitor
	pairs := make([]qcount, 0, len(subs))
	for _, s := range subs {
		el := part.lookup(s.Elem)
		pairs = append(pairs, qcount{Query: s.Query, Val: int64(elemCount(el, s.Box, &cv))})
	}
	return pairs
}

// servedReports answers report subqueries from the resident part; only
// non-empty results return (mirroring the fabric hook).
func servedReports(part *residentPart, subs []subquery) []rlocal {
	var rv reportVisitor
	var out []rlocal
	for _, s := range subs {
		el := part.lookup(s.Elem)
		if pts := elemReport(el, s.Box, &rv); len(pts) > 0 {
			out = append(out, rlocal{Query: s.Query, Pts: pts})
		}
	}
	return out
}

// serveCountStep is the out-of-run counting serve (SingleCount).
func serveCountStep(part *residentPart, _ *exec.Ctx, args serveArgs) ([]qcount, error) {
	return servedCounts(part, args.Subs), nil
}

// decodeSubColumn decodes a routed subquery column for the raw fused-
// serve collect, mirroring exec.Collector's loop (typed self payload
// included), and flattens it in rank order like gatherServed.
func decodeSubColumn(c *exec.Ctx, inbox *exec.Inbox) ([]subquery, int, error) {
	in := make([][]subquery, len(inbox.Blocks))
	recv := 0
	for j, b := range inbox.Blocks {
		if inbox.Self != nil && b == nil && j == c.Rank {
			part, ok := inbox.Self.([]subquery)
			if !ok {
				return nil, 0, fmt.Errorf("core: self payload is %T, serve wants []subquery", inbox.Self)
			}
			in[j] = part
			recv += len(part)
			continue
		}
		if b == nil {
			continue
		}
		part, err := wire.Decode[[]subquery](b)
		if err != nil {
			return nil, 0, fmt.Errorf("core: decoding routed subqueries from rank %d: %w", j, err)
		}
		in[j] = part
		recv += len(part)
	}
	return gatherServed(nil, in), recv, nil
}

// routeMixedStep is the fused route-and-serve collect of a search batch:
// the phase-B route exchange's column IS the rank's served subqueries,
// answered in the same superstep that delivered them, every op kind at
// once. Raw because the aggregate reply is the spec-encoded []qvalT[T],
// whose type only the coordinator's AggHandle knows.
func routeMixedStep(c *exec.Ctx, inbox *exec.Inbox, raw []byte) ([]byte, int, error) {
	args, err := exec.Unmarshal[mixedServeArgs](raw)
	if err != nil {
		return nil, 0, err
	}
	subs, recv, err := decodeSubColumn(c, inbox)
	if err != nil {
		return nil, 0, err
	}
	part := c.State.(*residentPart)
	var cnt, agg, repq []subquery
	for _, s := range subs {
		switch args.Ops[s.Query] {
		case OpCount:
			cnt = append(cnt, s)
		case OpAggregate:
			agg = append(agg, s)
		case OpReport:
			repq = append(repq, s)
		default:
			return nil, 0, fmt.Errorf("core: routed subquery of query %d has unknown op %v", s.Query, args.Ops[s.Query])
		}
	}
	rep := mixedServeReply{Counts: servedCounts(part, cnt), Locals: servedReports(part, repq)}
	if len(agg) > 0 {
		if args.Agg == "" {
			return nil, 0, fmt.Errorf("core: aggregate subqueries served without a prepared aggregate")
		}
		spec, err := lookupAggSpec(args.Agg)
		if err != nil {
			return nil, 0, err
		}
		rep.Aggs, err = spec.serve(part, part.agg(args.Agg), agg)
		if err != nil {
			return nil, 0, err
		}
	}
	return exec.Marshal(rep), recv, nil
}

// aggPrepareStep annotates the owned elements for a named aggregate and
// returns the spec-encoded forest-root values ([]aggRoot[T]).
func aggPrepareStep(c *exec.Ctx, raw []byte) ([]byte, error) {
	args, err := exec.Unmarshal[aggPrepArgs](raw)
	if err != nil {
		return nil, err
	}
	part := c.State.(*residentPart)
	spec, err := lookupAggSpec(args.Name)
	if err != nil {
		return nil, err
	}
	return spec.prepare(part, part.agg(args.Name))
}

// fetchPointsStep returns the points of owned elements, aligned with the
// request (report-mode whole-element orders, AllPoints, Verify).
func fetchPointsStep(part *residentPart, _ *exec.Ctx, args fetchArgs) ([][]geom.Point, error) {
	out := make([][]geom.Point, len(args.Elems))
	for i, id := range args.Elems {
		el, ok := part.elems[id]
		if !ok {
			return nil, fmt.Errorf("core: resident fetch asked for element %d this rank does not own", id)
		}
		out[i] = el.pts
	}
	return out, nil
}

// elemStatsStep reports the owned elements' sizes in ID order (the
// Theorem 1 space accounting helpers).
func elemStatsStep(part *residentPart, _ *exec.Ctx, _ bool) ([]elemStat, error) {
	ids := sortedOwnedIDs(part.elems)
	out := make([]elemStat, 0, len(ids))
	for _, id := range ids {
		el := part.elems[id]
		out = append(out, elemStat{ID: id, Nodes: el.tree.Nodes()})
	}
	return out, nil
}

// ---------------------------------------------------------------- named
// aggregates
//
// The associative-function mode folds an arbitrary Go monoid — which
// cannot cross a process boundary. Resident execution therefore works on
// REGISTERED aggregates: RegisterAggregate binds a name to a (monoid,
// value function) pair in every binary that imports the registering
// package (internal/aggregates registers the standard ones; cmd binaries
// import it), and PrepareAssociativeNamed prepares by name, so the worker
// resolves the identical functions the coordinator planned with.

// aggSpec is the type-erased resident behavior of one registered
// aggregate.
type aggSpec interface {
	prepare(part *residentPart, ra *residentAggState) ([]byte, error)
	annotateCopy(ra *residentAggState, el *element, cap int)
	serve(part *residentPart, ra *residentAggState, subs []subquery) ([]byte, error)
}

// aggImpl implements aggSpec for one monoid instantiation.
type aggImpl[T any] struct {
	m   semigroup.Monoid[T]
	val func(geom.Point) T
}

func (a aggImpl[T]) prepare(part *residentPart, ra *residentAggState) ([]byte, error) {
	ra.elemAggs = make(map[ElemID]any)
	var roots []aggRoot[T]
	for _, id := range sortedOwnedIDs(part.elems) {
		el := part.elems[id]
		ra.elemAggs[id] = newElemAgg(el, a.m, a.val)
		acc := a.m.Identity
		for _, pt := range el.pts {
			acc = a.m.Combine(acc, a.val(pt))
		}
		roots = append(roots, aggRoot[T]{Elem: id, Val: acc})
	}
	return exec.Marshal(roots), nil
}

func (a aggImpl[T]) annotateCopy(ra *residentAggState, el *element, cap int) {
	if c, ok := ra.cache.get(el.info.ID); ok && c.tree == el.tree {
		ra.copyAggs[el.info.ID] = c.agg
		return
	}
	ag := newElemAgg(el, a.m, a.val)
	ra.cache.insert(el.info.ID, cachedAggAny{tree: el.tree, agg: ag}, cap, nil)
	ra.copyAggs[el.info.ID] = ag
}

func (a aggImpl[T]) serve(part *residentPart, ra *residentAggState, subs []subquery) ([]byte, error) {
	pairs := make([]qvalT[T], 0, len(subs))
	for _, s := range subs {
		ag, ok := ra.elemAggs[s.Elem]
		if !ok {
			ag, ok = ra.copyAggs[s.Elem]
		}
		if !ok {
			return nil, fmt.Errorf("core: element %d served without a resident annotation (aggregate not prepared?)", s.Elem)
		}
		pairs = append(pairs, qvalT[T]{Query: s.Query, Val: ag.(elemAgg[T]).Query(s.Box)})
	}
	return exec.Marshal(pairs), nil
}

// aggRegistration is the coordinator-side typed half of a registered
// aggregate.
type aggRegistration[T any] struct {
	m   semigroup.Monoid[T]
	val func(geom.Point) T
}

var (
	aggRegMu sync.RWMutex
	aggSpecs = make(map[string]aggSpec)
	aggTyped = make(map[string]any)
)

// RegisterAggregate binds a name to a monoid and per-point value function
// for resident execution. Register the same name in every binary of the
// cluster (coordinator and workers) — package init functions are the
// natural place. Registering a name twice panics.
func RegisterAggregate[T any](name string, m semigroup.Monoid[T], val func(geom.Point) T) {
	aggRegMu.Lock()
	defer aggRegMu.Unlock()
	if _, dup := aggSpecs[name]; dup {
		panic(fmt.Sprintf("core: aggregate %q registered twice", name))
	}
	aggSpecs[name] = aggImpl[T]{m: m, val: val}
	aggTyped[name] = aggRegistration[T]{m: m, val: val}
}

// lookupAggSpec resolves the type-erased resident behavior.
func lookupAggSpec(name string) (aggSpec, error) {
	aggRegMu.RLock()
	defer aggRegMu.RUnlock()
	spec, ok := aggSpecs[name]
	if !ok {
		return nil, fmt.Errorf("core: aggregate %q not registered (is the registering package imported by this binary?)", name)
	}
	return spec, nil
}

// lookupAggregate resolves the typed coordinator-side registration.
func lookupAggregate[T any](name string) (aggRegistration[T], error) {
	aggRegMu.RLock()
	defer aggRegMu.RUnlock()
	reg, ok := aggTyped[name]
	if !ok {
		return aggRegistration[T]{}, fmt.Errorf("core: aggregate %q not registered", name)
	}
	typed, ok := reg.(aggRegistration[T])
	if !ok {
		return aggRegistration[T]{}, fmt.Errorf("core: aggregate %q is registered with a different value type", name)
	}
	return typed, nil
}

// residentElemPoints fetches the points of the given elements from their
// resident rank (callers outside machine runs; one call per rank).
func (t *Tree) residentElemPoints(rank int, ids []ElemID) ([][]geom.Point, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	return cgm.ResidentCall[fetchArgs, [][]geom.Point](t.mach, rank, fref("points/fetch"), fetchArgs{Elems: ids})
}
