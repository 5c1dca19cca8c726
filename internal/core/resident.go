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
	"repro/internal/layered"
	"repro/internal/pointsfile"
	"repro/internal/psort"
	"repro/internal/segtree"
	"repro/internal/semigroup"
)

// This file is a rank's forest part — the element point sets, their
// sequential trees, the phase-B copies and caches, the aggregate
// annotations, and a construction's staged input and records — with the
// one body of every operation on it, and the registered SPMD program
// ("core/forest") whose steps are thin adapters over those bodies.
//
// Both residencies run one rank program over the part. A fabric tree
// keeps each rank's part in coordinator memory (procState.part) and calls
// the bodies directly; a resident tree (cgm.Config.Resident) keeps it in
// the machine's exec store — worker memory over TCP — and reaches it only
// through the steps. onPart, onPartIn and exchangeOnPart are the dispatch:
// a fabric superstep runs the emit body, cgm.Exchange and the collect
// body, a resident one is cgm.ExchangeSteps. So construction runs held on
// both (the sample sort, routing and element build work on the part's
// records), and phase C is one superstep that ships the copies, routes
// the subqueries and serves them: the fabric part answers the routed
// column where it lands, a resident part in the search/installServe
// collect, so only query boxes and result blocks cross the coordinator's
// wire. The coordinator keeps the hat, the element metadata and the
// superstep structure either way; on the loopback transport the steps run
// in-process against the machine's local state stores.

// forestProgram names the registered program; forestVersion guards
// against coordinator/worker binary skew.
const (
	forestProgram = "core/forest"
	forestVersion = 13 // 13: the install args start at the cache bound
)

// fref names one step of the forest program.
func fref(step string) exec.Ref {
	return exec.Ref{Program: forestProgram, Version: forestVersion, Step: step}
}

// forestPart is one rank's forest part, the only place its element state
// lives.
type forestPart struct {
	elems     map[ElemID]*element
	copies    map[ElemID]*element
	copyCache *copyCache[*element]
	// aggs holds the annotations of the registered aggregates a resident
	// tree serves, by name. A fabric AggHandle holds its own, one partAgg
	// per rank: an inline monoid has no name to file it under.
	aggs map[string]aggPart

	// staged is the rank's ingested-but-not-yet-built input block (the
	// ingest steps append to it, a fabric construct hands it its block;
	// construct/seed consumes it). recs is the working record set of the
	// construction — the rank-local S^(j) rows that the sample sort and
	// routing bodies transform. sortKeys is the local sort's key scratch,
	// grown across the phases of one build and dropped after the last
	// phase's sort (dims, from the seed, says which phase is last), so no
	// built tree keeps it.
	staged   []geom.Point
	recs     []srec
	sortKeys []psort.Key2
	dims     int8

	// shipped is the ship note of phase C's emit, which the same
	// superstep's collect returns to the coordinator.
	shipped copyNote

	// hits is the served report hits' scratch, reused across batches:
	// phase C's collect returns it as its reply's hit block, which the
	// collect encodes before the step returns.
	hits hitBlock

	// ctx is a fabric part's rank identity, what its bodies read of
	// c.Rank and c.P (a resident part's steps get theirs from the exec
	// store).
	ctx exec.Ctx
}

func newForestPart() *forestPart {
	return &forestPart{
		elems:     make(map[ElemID]*element),
		copies:    make(map[ElemID]*element),
		copyCache: newCopyCache[*element](),
		aggs:      make(map[string]aggPart),
	}
}

// lookup resolves an element from the owned part or the current copies.
func (part *forestPart) lookup(id ElemID) *element {
	if el, ok := part.elems[id]; ok {
		return el
	}
	if el, ok := part.copies[id]; ok {
		return el
	}
	panic(fmt.Sprintf("core: forest part asked to serve element %d it does not hold", id))
}

// sortedIDs returns the IDs of the owned elements, increasing.
func (part *forestPart) sortedIDs() []ElemID {
	ids := make([]ElemID, 0, len(part.elems))
	for id := range part.elems {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// install is Construct step 4: the phase's routed records arrive as one
// column, rank-major and sorted within each source, and become the owned
// elements infos names (this rank's share of the phase, by increasing
// ID), each built sequentially. Element point sets occupy contiguous
// global ranges, so concatenation is leaf order. It returns the stub
// metadata, in ID order, for the roots broadcast.
func (part *forestPart) install(infos []ElemInfo, incoming [][]epoint) ([]elemMeta, error) {
	d := int(part.dims)
	blks := make([]geom.Block, len(infos))
	for _, run := range incoming {
		for i := 0; i < len(run); {
			id := run[i].Elem
			k, ok := slices.BinarySearchFunc(infos, id, func(in ElemInfo, id ElemID) int { return cmp.Compare(in.ID, id) })
			if !ok {
				return nil, fmt.Errorf("core: routed points for element %d this rank does not own", id)
			}
			blk := &blks[k]
			if blk.IDs == nil {
				c := int(max(infos[k].Count, 0))
				*blk = geom.Block{Dims: d, IDs: make([]int32, 0, c), Coords: make([]geom.Coord, 0, c*d)}
			}
			for ; i < len(run) && run[i].Elem == id; i++ {
				blk.IDs = append(blk.IDs, run[i].Pt.ID)
				blk.Coords = append(blk.Coords, run[i].Pt.X...)
			}
		}
	}
	metas := make([]elemMeta, len(infos))
	for k, info := range infos {
		blk, j := blks[k], int(info.Dim)
		if n := blk.Len(); int32(n) != info.Count || n == 0 || j >= d || len(blk.Coords) != n*d {
			return nil, fmt.Errorf("core: element %d of dimension %d received %d points of %d coordinates, expected %d of %d",
				info.ID, j, n, len(blk.Coords), info.Count, d)
		}
		el := &element{info: info, tree: layered.BuildFrom(blk, j)}
		part.elems[info.ID] = el
		blk = *el.tree.Points()
		metas[k] = elemMeta{Elem: info.ID, Min: blk.Point(0).X[j], Max: blk.Point(blk.Len() - 1).X[j]}
	}
	return metas, nil
}

// nextRecords is Construct step 7: every owned dimension-dim element, in
// ID order, emits its points' S^(j+1) records (nextDimRecords), under the
// ordinals of keys, the next phase's key table (nextTreeKeys).
func (part *forestPart) nextRecords(dim int8, keys []segtree.PathKey) ([]srec, error) {
	var next []srec
	for _, id := range part.sortedIDs() {
		if el := part.elems[id]; el.info.Dim == dim {
			var err error
			if next, err = nextDimRecords(el, next, keys); err != nil {
				return nil, err
			}
		}
	}
	return next, nil
}

// servedCounts answers counting subqueries where the trees live.
func (part *forestPart) servedCounts(subs []subquery) []qcount {
	pairs := make([]qcount, 0, len(subs))
	for _, s := range subs {
		pairs = append(pairs, qcount{Query: s.Query, Val: int64(part.lookup(s.Elem).tree.Count(s.Box))})
	}
	return pairs
}

// servedHits answers report subqueries where the trees live, into the
// part's hit scratch; only non-empty results get a run. The block views
// the scratch, so it is valid until the part serves again.
func (part *forestPart) servedHits(subs []subquery) hitBlock {
	blk := &part.hits
	blk.Runs, blk.IDs, blk.Coords = blk.Runs[:0], blk.IDs[:0], blk.Coords[:0]
	for _, s := range subs {
		if n := elemHits(part.lookup(s.Elem), s.Box, blk); n > 0 {
			blk.Runs = append(blk.Runs, hitRun{Query: s.Query, N: int32(n)})
		}
	}
	blk.Dims = 0
	if len(blk.IDs) > 0 {
		blk.Dims = len(blk.Coords) / len(blk.IDs)
	}
	return *blk
}

// points returns the point blocks of owned elements, aligned with ids, in
// a slice carved from arena a (nil: the heap).
func (part *forestPart) points(a *cgm.Arena, ids []ElemID) ([]geom.Block, error) {
	out := cgm.Alloc[geom.Block](a, len(ids))
	for i, id := range ids {
		el, ok := part.elems[id]
		if !ok {
			return nil, fmt.Errorf("core: fetch asked for element %d this rank does not own", id)
		}
		out[i] = *el.tree.Points()
	}
	return out, nil
}

// stats reports the owned elements' sizes in ID order (the Theorem 1
// space accounting).
func (part *forestPart) stats() []elemStat {
	ids := part.sortedIDs()
	out := make([]elemStat, len(ids))
	for i, id := range ids {
		out[i] = elemStat{ID: id, Nodes: part.elems[id].tree.Nodes()}
	}
	return out
}

// onPart runs one read of rank's forest part outside a machine run: body
// on a fabric tree's part, the registered step on a resident tree, whose
// part lives in the exec store. Resident calls must not overlap a run.
func onPart[A, R any](t *Tree, rank int, step string, args A, body func(*forestPart, *exec.Ctx, A) (R, error)) (R, error) {
	if part := t.procs[rank].part; part != nil {
		return body(part, &part.ctx, args)
	}
	return cgm.ResidentCall[A, R](t.mach, rank, fref(step), args)
}

// onPartIn is onPart inside a machine run, where a failure aborts it.
func onPartIn[A, R any](pr *cgm.Proc, part *forestPart, step string, args A, body func(*forestPart, *exec.Ctx, A) (R, error)) R {
	if part == nil {
		return cgm.CallResident[A, R](pr, fref(step), args)
	}
	r, err := body(part, &part.ctx, args)
	if err != nil {
		panic(err.Error())
	}
	return r
}

// exchangeOnPart is one superstep whose deposit the rank's part emits and
// whose column the part collects, returning the collect's reply: on a
// fabric part the emit body, cgm.Exchange and the collect body run here;
// on a resident tree (part nil) it is cgm.ExchangeSteps over the
// registered steps, so the rows never touch the coordinator. One round
// with the same label and element counts either way; a failure aborts
// the run.
func exchangeOnPart[EA, CA, T, R any](pr *cgm.Proc, part *forestPart, label string,
	emit string, eargs EA, emitBody func(*forestPart, *exec.Ctx, EA) ([][]T, error),
	collect string, cargs CA, collectBody func(*forestPart, *exec.Ctx, CA, [][]T) (R, error)) R {
	if part == nil {
		return cgm.ExchangeSteps[EA, CA, R](pr, label, fref(emit), eargs, fref(collect), cargs)
	}
	out, err := emitBody(part, &part.ctx, eargs)
	if err != nil {
		panic(err.Error())
	}
	r, err := collectBody(part, &part.ctx, cargs, cgm.Exchange(pr, label, out))
	if err != nil {
		panic(err.Error())
	}
	return r
}

// Step argument and reply types. Everything crossing the seam has a raw
// wire codec (wirecodec.go, wirecodec2.go); a type without one cannot
// cross it.

// constructInstallArgs accompanies one construction phase's routed
// points: the replicated metadata of the elements this rank owns in the
// phase (the collect side builds exactly these).
type constructInstallArgs struct {
	Infos []ElemInfo
}

// shipRouteArgs drives phase C's emit: the owner's shipping plan, decided
// by the coordinator-side planner (planShips), and the rank's subqueries
// partitioned by host.
type shipRouteArgs struct {
	Ships  []hostShip
	Routed [][]subquery
}

// installServeArgs parametrises phase C's collect: the cache bound (as
// the fabric install takes it), the aggregate the batch serves, if any
// ("" = none), and the per-query op table.
type installServeArgs struct {
	Cap int
	Agg string
	Ops []MixedOp
}

// serveArgs carries one rank's served subqueries to its part.
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

// seedArgs turns the staged points into the construction's S^(1)
// records; Dims is the build's declared dimensionality to validate
// against.
type seedArgs struct {
	Dims int8
}

// dimArgs names the dimension a construct step works in.
type dimArgs struct {
	Dim int8
}

// nextHeldArgs drives Construct step 7: the dimension whose owned
// elements emit S^(j+1), and the next phase's key table (nextTreeKeys),
// which names the records' trees by ordinal.
type nextHeldArgs struct {
	Dim  int8
	Keys []segtree.PathKey
}

// sortLocalReply returns the rank's p regular samples (full records —
// the splitters the coordinator derives are the only point payload it
// ever handles) plus the local record count.
type sortLocalReply struct {
	Samples []srec
	Len     int
}

// wsortPartArgs drives the sample sort's route emit: partition the
// locally sorted records by the broadcast splitters.
type wsortPartArgs struct {
	Dim       int8
	Splitters []srec
}

// lenReply reports a step's resulting record count.
type lenReply struct {
	Len int
}

// wsortBalanceArgs drives the rebalance emit: cut the merged run at
// the global block boundaries.
type wsortBalanceArgs struct {
	Offset, Total int
}

// balanceReply reports the balanced record count plus the rank's tree
// runs, from which every rank derives the phase's trees.
type balanceReply struct {
	Len  int
	Runs []runSum
}

// routeHeldArgs drives the construction's route emit (Construct step 3
// computed where the records live): the replicated tree summaries plus
// this rank's global record offset.
type routeHeldArgs struct {
	Trees  []treeSum
	Grain  int
	Offset int
}

// mixedServeReply carries what one rank served of a mixed batch: the
// served count and the three result kinds in one reply; Aggs is the
// spec-encoded []qvalT[T] (empty when the batch routed no aggregate
// subqueries here). A fabric part answers into its run and returns only
// the count.
type mixedServeReply struct {
	Served int
	Counts []qcount
	Aggs   []byte
	Hits   hitBlock
}

// hitBlock is a resident rank's served report hits, pointer-free: a run
// table of (query, n) pairs, then the hits as one point block, in run
// order. The coordinator carves point headers for them in its run arena
// (reportRun.absorbHits); no hit is a geom.Point on the worker or on the
// wire.
type hitBlock struct {
	Runs []hitRun
	geom.Block
}

// hitRun is one served subquery's share of a hit block: N > 0 hits of
// query Query.
type hitRun struct {
	Query int32
	N     int32
}

// installServeReply is what phase C's collect returns: the rank's ship
// note as an owner, its install reply as a host, and what it served.
type installServeReply struct {
	Note    copyNote
	Install installCopiesReply
	Serve   mixedServeReply
}

// forestProg is the forest program, registered at init.
var forestProg = &exec.Program{
	Name:    forestProgram,
	Version: forestVersion,
	New:     func(rank, p int) any { return newForestPart() },
	Steps: map[string]exec.Step{
		"construct/begin":     exec.Pure(constructBeginStep),
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
		"search/shipRoute":     exec.Emitter(shipRouteStep),
	},
	Collects: map[string]exec.Collect{
		"construct/install":     exec.Collector(constructInstallStep),
		"construct/wsortMerge":  exec.Collector(wsortMergeStep),
		"construct/wsortGather": exec.Collector(wsortGatherStep),
		"search/installServe":   exec.Collector(installServeStep),
	},
}

func init() { exec.Register(forestProg) }

// constructBeginStep resets the part for a fresh construction (a machine
// rebuilt on — e.g. a store recovering its checkpoint — must not merge
// two forests). Staged ingest blocks and held records survive the reset:
// they are this build's input.
func constructBeginStep(part *forestPart, _ *exec.Ctx, _ bool) (bool, error) {
	fresh := newForestPart()
	fresh.staged, fresh.recs = part.staged, part.recs
	*part = *fresh
	return true, nil
}

// ingestBeginStep opens a fresh staging area (aborting any half-staged
// prior load so a failed BulkLoad can be retried on the same cluster).
func ingestBeginStep(part *forestPart, _ *exec.Ctx, _ bool) (bool, error) {
	part.staged = nil
	part.recs = nil
	return true, nil
}

// ingestChunkStep appends one streamed block to the staging area. The
// decoded points are freshly allocated by the wire codec (or by the
// loopback's encode/decode round trip), so retaining them is safe.
func ingestChunkStep(part *forestPart, _ *exec.Ctx, args ingestChunkArgs) (int, error) {
	part.staged = append(part.staged, args.Pts...)
	return len(part.staged), nil
}

// ingestFileStep reads a pointsfile straight into the staging area:
// the rank-local file ingest path, where point payloads never touch the
// coordinator at all.
func ingestFileStep(part *forestPart, _ *exec.Ctx, args ingestFileArgs) (ingestReply, error) {
	pts, dims, err := pointsfile.Read(args.Path)
	if err != nil {
		return ingestReply{}, err
	}
	part.staged = append(part.staged, pts...)
	return ingestReply{N: len(pts), Dims: int8(dims)}, nil
}

// constructSeedStep is Construct step 1: the staged points become the
// rank's S^(1) records (all under the hat root). It consumes the staging
// area and returns the seeded count, which the coordinator cross-checks
// against the declared n.
func constructSeedStep(part *forestPart, _ *exec.Ctx, args seedArgs) (int, error) {
	recs := make([]srec, len(part.staged))
	for i, pt := range part.staged {
		if pt.Dims() != int(args.Dims) {
			return 0, fmt.Errorf("core: staged point %d has %d dims, build expects %d", pt.ID, pt.Dims(), args.Dims)
		}
		recs[i].Pt = pt
	}
	part.recs = recs
	part.staged = nil
	part.dims = args.Dims
	return len(recs), nil
}

// sortLocalStep is the sample sort's local phase: sort the rank's records
// and return the p regular samples — the only point-bearing rows the
// coordinator handles during a construction. The last phase's sort is
// the key scratch's last use.
func sortLocalStep(part *forestPart, c *exec.Ctx, args dimArgs) (sortLocalReply, error) {
	part.sortKeys = sortRecs(part.recs, int(args.Dim), part.sortKeys)
	if args.Dim+1 >= part.dims {
		part.sortKeys = nil
	}
	return sortLocalReply{Samples: psort.Samples(part.recs, c.P), Len: len(part.recs)}, nil
}

// wsortPartStep is the sample sort's route emit: partition the
// locally sorted records by the broadcast splitters (views into recs; the
// merge collect of the same superstep replaces recs only after reading).
func wsortPartStep(part *forestPart, c *exec.Ctx, args wsortPartArgs) ([][]srec, error) {
	return psort.Partition(part.recs, args.Splitters, c.P, srecLess(int(args.Dim))), nil
}

// wsortMergeStep is the sample sort's merge collect: the routed runs
// arrive sorted per source and merge into the rank's new record set.
func wsortMergeStep(part *forestPart, _ *exec.Ctx, args dimArgs, in [][]srec) (lenReply, error) {
	part.recs = psort.MergeRuns(in, srecLess(int(args.Dim)))
	return lenReply{Len: len(part.recs)}, nil
}

// wsortSplitStep is the rebalance emit: cut the merged run at the
// global block boundaries (again views; the gather collect copies).
func wsortSplitStep(part *forestPart, c *exec.Ctx, args wsortBalanceArgs) ([][]srec, error) {
	return comm.BlockPartition(part.recs, args.Offset, args.Total, c.P), nil
}

// wsortGatherStep is the rebalance collect: concatenating the sources in
// rank order preserves global order. It also computes the tree runs, from
// which every rank derives the phase's trees.
func wsortGatherStep(part *forestPart, _ *exec.Ctx, _ bool, in [][]srec) (balanceReply, error) {
	part.recs = slices.Concat(in...)
	return balanceReply{Len: len(part.recs), Runs: keyRuns(part.recs)}, nil
}

// routeHeldStep is Construct step 3's emit: bucket the rank's balanced
// records to their elements' owners. The record set is consumed — the
// install collect of the same superstep builds the phase's owned
// elements.
func routeHeldStep(part *forestPart, c *exec.Ctx, args routeHeldArgs) ([][]epoint, error) {
	out, err := routeRecords(part.recs, args.Trees, args.Grain, args.Offset, c.P)
	if err != nil {
		return nil, err
	}
	part.recs = nil
	return out, nil
}

// constructNextHeldStep is Construct step 7: the S^(j+1) records stay in
// the rank's record set; only the count crosses the seam.
func constructNextHeldStep(part *forestPart, _ *exec.Ctx, args nextHeldArgs) (int, error) {
	recs, err := part.nextRecords(args.Dim, args.Keys)
	if err != nil {
		return 0, err
	}
	part.recs = recs
	return len(recs), nil
}

// constructInstallStep is Construct step 4's collect: the routed records
// of one phase arrive as the superstep's column and install into the
// part; the stub metadata returns for the roots broadcast.
func constructInstallStep(part *forestPart, _ *exec.Ctx, args constructInstallArgs, incoming [][]epoint) ([]elemMeta, error) {
	return part.install(args.Infos, incoming)
}

// shipRouteStep is phase C's emit: the owner ships its planned copies
// (Search step 3) straight from worker memory into the fabric — points
// for the hosts that lack the copy, ID-only references for the rest —
// beside the subqueries it routes (step 4).
func shipRouteStep(part *forestPart, c *exec.Ctx, args shipRouteArgs) ([][]routeRow, error) {
	return part.shipRoute(nil, args.Ships, args.Routed, c.P)
}

// installServeStep is phase C's collect: the column's copies install into
// the part, annotated for the batch's aggregate if it serves one, and
// then its subqueries are answered, every op kind at once. The reply
// carries the cache's changes back for the coordinator's mirror and the
// served results back for phase D.
func installServeStep(part *forestPart, c *exec.Ctx, args installServeArgs, in [][]routeRow) (installServeReply, error) {
	var agg aggPart
	if args.Agg != "" {
		var err error
		if agg, err = part.agg(args.Agg); err != nil {
			return installServeReply{}, err
		}
	}
	rep, err := part.installCopies(c.Rank, args.Cap, agg, in)
	if err != nil {
		return rep, err
	}
	var cnt, aggs, reps []subquery
	for _, col := range in {
		for i := range col {
			if col[i].Copy != nil {
				continue
			}
			s := col[i].Sub
			if s.Query < 0 || int(s.Query) >= len(args.Ops) {
				return rep, fmt.Errorf("core: routed subquery of query %d, batch has %d", s.Query, len(args.Ops))
			}
			switch args.Ops[s.Query] {
			case OpCount:
				cnt = append(cnt, s)
			case OpAggregate:
				aggs = append(aggs, s)
			case OpReport:
				reps = append(reps, s)
			default:
				return rep, fmt.Errorf("core: routed subquery of query %d has unknown op %v", s.Query, args.Ops[s.Query])
			}
		}
	}
	rep.Serve = mixedServeReply{Served: len(cnt) + len(aggs) + len(reps),
		Counts: part.servedCounts(cnt), Hits: part.servedHits(reps)}
	if len(aggs) > 0 {
		if agg == nil {
			return rep, fmt.Errorf("core: aggregate subqueries served without a prepared aggregate")
		}
		if rep.Serve.Aggs, err = agg.serveWire(aggs); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// serveCountStep serves a single query's owned counting subqueries
// (SingleCount).
func serveCountStep(part *forestPart, _ *exec.Ctx, args serveArgs) ([]qcount, error) {
	return part.servedCounts(args.Subs), nil
}

// aggPrepareStep annotates the owned elements for a named aggregate and
// returns the spec-encoded forest-root values ([]aggRoot[T]).
func aggPrepareStep(c *exec.Ctx, raw []byte) ([]byte, error) {
	args, err := exec.Unmarshal[aggPrepArgs](raw)
	if err != nil {
		return nil, err
	}
	part := c.State.(*forestPart)
	pa, err := part.agg(args.Name)
	if err != nil {
		return nil, err
	}
	return pa.prepareWire(part), nil
}

// fetchPointsStep returns the points of owned elements, aligned with the
// request (report-mode whole-element orders, AllPoints, Verify).
func fetchPointsStep(part *forestPart, _ *exec.Ctx, args fetchArgs) ([]geom.Block, error) {
	return part.points(nil, args.Elems)
}

// elemStatsStep reports the owned elements' sizes in ID order.
func elemStatsStep(part *forestPart, _ *exec.Ctx, _ bool) ([]elemStat, error) {
	return part.stats(), nil
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

// partAgg is one rank's annotations for one aggregate (Algorithm
// AssociativeFunction step 1 at element granularity): the owned
// elements', the current batch's copies', and a cross-batch cache of copy
// annotations that mirrors the element copy cache — bounded like it, and
// an entry is only reused for the same built tree instance.
type partAgg[T any] struct {
	m         semigroup.Monoid[T]
	val       func(geom.Point) T
	ownedAggs map[ElemID]*layered.Agg[T]
	copyAggs  map[ElemID]*layered.Agg[T]
	cache     *copyCache[cachedAgg[T]]
}

// cachedAgg is one cross-batch annotation cache entry.
type cachedAgg[T any] struct {
	tree *layered.Tree
	agg  *layered.Agg[T]
}

func newPartAgg[T any](m semigroup.Monoid[T], val func(geom.Point) T) *partAgg[T] {
	return &partAgg[T]{
		m: m, val: val,
		ownedAggs: make(map[ElemID]*layered.Agg[T]),
		copyAggs:  make(map[ElemID]*layered.Agg[T]),
		cache:     newCopyCache[cachedAgg[T]](),
	}
}

// prepare annotates the part's owned elements and returns their
// forest-root values in ID order.
func (pa *partAgg[T]) prepare(part *forestPart) []aggRoot[T] {
	clear(pa.ownedAggs)
	ids := part.sortedIDs()
	roots := make([]aggRoot[T], len(ids))
	for i, id := range ids {
		el := part.elems[id]
		pa.ownedAggs[id] = layered.NewAgg(el.tree, pa.m, pa.val)
		acc := pa.m.Identity
		for blk, i := el.tree.Points(), 0; i < blk.Len(); i++ {
			acc = pa.m.Combine(acc, pa.val(blk.Point(i)))
		}
		roots[i] = aggRoot[T]{Elem: id, Val: acc}
	}
	return roots
}

// begin opens one batch's copy annotations (phase B's install).
func (pa *partAgg[T]) begin() {
	pa.cache.begin()
	clear(pa.copyAggs)
}

// annotateCopy annotates one installed copy, reusing the cached
// annotation when the copy itself was reused (same built tree).
func (pa *partAgg[T]) annotateCopy(el *element, cap int) {
	if c, ok := pa.cache.get(el.info.ID); ok && c.tree == el.tree {
		pa.copyAggs[el.info.ID] = c.agg
		return
	}
	ag := layered.NewAgg(el.tree, pa.m, pa.val)
	pa.cache.insert(el.info.ID, cachedAgg[T]{tree: el.tree, agg: ag}, cap, nil)
	pa.copyAggs[el.info.ID] = ag
}

// trim bounds the annotation cache to cap at the end of an install, as
// the element cache is.
func (pa *partAgg[T]) trim(cap int) { pa.cache.trim(cap, nil) }

// query folds f over a subquery's box in the owned element or copy it
// visits.
func (pa *partAgg[T]) query(s subquery) (T, error) {
	ag, ok := pa.ownedAggs[s.Elem]
	if !ok {
		ag, ok = pa.copyAggs[s.Elem]
	}
	if !ok {
		var zero T
		return zero, fmt.Errorf("core: element %d served without an annotation (aggregate not prepared?)", s.Elem)
	}
	return ag.Query(s.Box), nil
}

// aggPart is a partAgg with its value type erased, for the steps, which
// resolve an aggregate by name; the values cross the seam spec-encoded.
type aggPart interface {
	prepareWire(part *forestPart) []byte
	begin()
	annotateCopy(el *element, cap int)
	trim(cap int)
	serveWire(subs []subquery) ([]byte, error)
}

func (pa *partAgg[T]) prepareWire(part *forestPart) []byte { return exec.Marshal(pa.prepare(part)) }

func (pa *partAgg[T]) serveWire(subs []subquery) ([]byte, error) {
	pairs := make([]qvalT[T], len(subs))
	for i, s := range subs {
		v, err := pa.query(s)
		if err != nil {
			return nil, err
		}
		pairs[i] = qvalT[T]{Query: s.Query, Val: v}
	}
	return exec.Marshal(pairs), nil
}

// agg resolves (starting if needed) the part's annotations for a
// registered aggregate.
func (part *forestPart) agg(name string) (aggPart, error) {
	if pa, ok := part.aggs[name]; ok {
		return pa, nil
	}
	aggRegMu.RLock()
	reg, ok := aggRegs[name]
	aggRegMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("core: aggregate %q not registered (is the registering package imported by this binary?)", name)
	}
	pa := reg.newPart()
	part.aggs[name] = pa
	return pa, nil
}

// aggRegistration is one registered aggregate's monoid and value
// function.
type aggRegistration[T any] struct {
	m   semigroup.Monoid[T]
	val func(geom.Point) T
}

func (r aggRegistration[T]) newPart() aggPart { return newPartAgg(r.m, r.val) }

var (
	aggRegMu sync.RWMutex
	aggRegs  = make(map[string]interface{ newPart() aggPart })
)

// RegisterAggregate binds a name to a monoid and per-point value function
// for resident execution. Register the same name in every binary of the
// cluster (coordinator and workers) — package init functions are the
// natural place. Registering a name twice panics. The value type is one
// of the two core registers row codecs for (wirecodec.go): an aggregate
// value crosses a process only through them.
func RegisterAggregate[T int64 | float64](name string, m semigroup.Monoid[T], val func(geom.Point) T) {
	aggRegMu.Lock()
	defer aggRegMu.Unlock()
	if _, dup := aggRegs[name]; dup {
		panic(fmt.Sprintf("core: aggregate %q registered twice", name))
	}
	aggRegs[name] = aggRegistration[T]{m: m, val: val}
}

// lookupAggregate resolves the typed coordinator-side registration.
func lookupAggregate[T any](name string) (aggRegistration[T], error) {
	aggRegMu.RLock()
	defer aggRegMu.RUnlock()
	reg, ok := aggRegs[name]
	if !ok {
		return aggRegistration[T]{}, fmt.Errorf("core: aggregate %q not registered", name)
	}
	typed, ok := reg.(aggRegistration[T])
	if !ok {
		return aggRegistration[T]{}, fmt.Errorf("core: aggregate %q is registered with a different value type", name)
	}
	return typed, nil
}
