package core

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/cgm"
	"repro/internal/exec"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/pointsfile"
	"repro/internal/wire"
)

// This file stages a build's input per rank before Construct runs. On a
// resident machine it is the worker-direct ingest path: a file load's
// coordinator never touches the points, and a stream or a Build forwards
// each point once, over the rank feeds. Chunks stream straight to each
// rank's staging area over the rank feeds — round-robined from a client
// ChunkSource or cut from a Build's canonical blocks, under a bounded
// in-flight window — or are read rank-locally from pointsfile slices,
// and the construction then runs entirely worker-side, the
// coordinator contributing only the p² regular-sampling splitters and
// control frames. On a fabric machine the same reader fills each rank's
// block in coordinator memory, and the construct hands it to the rank's
// part, so both residencies start Construct from the same blocks.

const (
	// DefaultChunk is the streaming block size (points per ingest call).
	DefaultChunk = 4096
	// DefaultWindow is the per-rank bound on buffered chunks between the
	// reader and each rank's feeder — the open-loop flow-control window.
	// A slow rank backpressures the reader instead of growing the heap.
	DefaultWindow = 4
)

// ChunkSource produces the input stream of a bulk load, one block at a
// time; it returns io.EOF after the last block. Blocks are retained by
// the ingest pipeline until encoded, so producers must not reuse them.
type ChunkSource interface {
	Next() ([]geom.Point, error)
}

type sliceChunks struct {
	pts   []geom.Point
	chunk int
}

func (s *sliceChunks) Next() ([]geom.Point, error) {
	if len(s.pts) == 0 {
		return nil, io.EOF
	}
	c := min(len(s.pts), s.chunk)
	blk := s.pts[:c]
	s.pts = s.pts[c:]
	return blk, nil
}

// SliceChunks adapts an in-memory slice to a ChunkSource (chunk <= 0
// selects DefaultChunk).
func SliceChunks(pts []geom.Point, chunk int) ChunkSource {
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	return &sliceChunks{pts: pts, chunk: chunk}
}

// forEachRank runs f concurrently for every rank and joins the errors.
// Resident calls to distinct ranks are independent (distinct sessions on
// a wire transport, distinct state stores on the loopback), so per-rank
// parallelism is safe; per rank the calls stay sequential.
func forEachRank(p int, f func(rank int) error) error {
	errs := make([]error, p)
	var wg sync.WaitGroup
	for rank := range p {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[rank] = f(rank)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// feedRanks stages a resident machine's input over the p rank feeds:
// it starts one feedRank per rank, lets fill hand the ranks their chunks
// (send queues blk on rank's feed, in order), joins the feeds, and
// cross-checks each rank's acknowledged staged count against the points
// its feed sent. A failure poisons the machine: a rank half-staged with
// chunks of unknown fate in flight must abort the session, so every
// sibling feeder and any later use of the machine sees the diagnostic
// instead of building on the partial stage.
func feedRanks(mach *cgm.Machine, cfg IngestConfig, fill func(send func(rank int, blk []geom.Point))) error {
	p := mach.P()
	feed := make([]chan []geom.Point, p)
	errs := make([]error, p)
	sent := make([]int, p)   // points the filler handed each rank
	staged := make([]int, p) // points each rank's feed acknowledged staging
	stageT0 := time.Now()
	var wg sync.WaitGroup
	for rank := range p {
		feed[rank] = make(chan []geom.Point, cfg.Window)
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[rank], staged[rank] = feedRank(mach, rank, cfg, feed[rank], &sent[rank])
		}()
	}
	fill(func(rank int, blk []geom.Point) { feed[rank] <- blk })
	for _, ch := range feed {
		close(ch)
	}
	wg.Wait()
	// Staging wall-time (filler + feeds through the last ack), distinct
	// from the construct that follows — it is the phase the feed fabric
	// and the QoS governor act on.
	if reg := mach.Obs(); reg != nil {
		reg.Counter("ingest_stage_wall_ns_total").Add(time.Since(stageT0).Nanoseconds())
	}
	err := errors.Join(errs...)
	for rank := range p {
		if err == nil && staged[rank] != sent[rank] {
			err = fmt.Errorf("core: rank %d acknowledged %d staged points but the feed sent %d", rank, staged[rank], sent[rank])
		}
	}
	if err != nil {
		mach.Poison(err)
	}
	return err
}

// buildStaged runs the construction over staged input — blocks on a
// fabric machine, the ranks' parts on a resident one — converting a
// machine abort (worker death, skew) into an error so a caller can fail
// fast and retry on a fresh machine.
func buildStaged(mach *cgm.Machine, dims, total int, blocks [][]geom.Point) (t *Tree, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: worker-fed build aborted: %v", r)
		}
	}()
	return build(mach, total, dims, blocks), nil
}

// IngestConfig parametrises a streaming bulk load.
type IngestConfig struct {
	// Window is the per-rank bound on in-flight chunks (≤ 0 selects
	// DefaultWindow): the flow-control window of the parallel feeds, and
	// the reader→feeder channel depth either way.
	Window int
	// MaxShare, in (0, 1), caps the fraction of worker wall-time the
	// ingest may consume (cgm.ShareGovernor), so a bulk load time-shares
	// with concurrent serving instead of starving it. Outside that range
	// the load runs uncapped.
	MaxShare float64
}

// BulkLoad streams src into the machine's ranks and builds a tree from
// the staged input. Chunk i goes to rank i%p — the arbitrary initial
// distribution Construct step 1 allows; the sample sort normalizes it —
// and each rank stages its chunks in arrival order, on both residencies,
// so a fabric and a resident load of one stream build the same tree with
// the same Metrics.
//
// On a resident machine the reader fills the rank feeds (feedRanks, the
// path a resident Build stages through too): each rank has its own
// feeder goroutine with a window-deep channel, so a slow rank
// backpressures the reader while the others keep streaming. Each feeder
// holds a DIRECT connection to its rank pushing chunks under an
// independent in-flight window — the coordinator's session connections
// carry only the ingest-begin control calls and the construction's p²
// splitters, so aggregate ingest bandwidth scales with p. A feed failure
// (worker death, step error, a resident transport without feeds) poisons
// the machine: the session aborts with the diagnostic rather than
// surviving half-staged. On a fabric machine the reader appends each
// chunk to its rank's block.
func BulkLoad(mach *cgm.Machine, src ChunkSource, cfg IngestConfig) (*Tree, error) {
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	p := mach.P()
	dims, total := -1, 0
	var srcErr error
	read := func(sink func(rank int, blk []geom.Point)) {
		for i := 0; ; i++ {
			blk, err := src.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				srcErr = err
				return
			}
			if len(blk) == 0 {
				continue
			}
			for _, pt := range blk {
				if dims == -1 {
					dims = pt.Dims()
				}
				if pt.Dims() != dims {
					srcErr = fmt.Errorf("core: point %d has %d dims, want %d", pt.ID, pt.Dims(), dims)
					return
				}
			}
			total += len(blk)
			sink(i%p, blk)
		}
	}
	blocks := make([][]geom.Point, p)
	if mach.Resident() {
		if err := feedRanks(mach, cfg, read); err != nil {
			return nil, fmt.Errorf("core: bulk ingest: %w", err)
		}
	} else {
		read(func(rank int, blk []geom.Point) { blocks[rank] = append(blocks[rank], blk...) })
	}
	if srcErr != nil {
		return nil, srcErr
	}
	if total == 0 {
		return nil, errors.New("core: bulk load delivered no points")
	}
	if dims < 1 {
		return nil, errors.New("core: points need at least one dimension")
	}
	return buildStaged(mach, dims, total, blocks)
}

// encodeChunk wire-encodes one ingest chunk into buf (appending), so a
// feeder can recycle one pooled buffer per in-flight slot instead of
// allocating per chunk.
func encodeChunk(buf []byte, blk []geom.Point) ([]byte, error) {
	return wire.Encode(buf, ingestChunkArgs{Pts: blk})
}

// feedRank drains one rank's channel into a direct worker feed: begin
// control call on the coordinator connection, then chunks pipelined
// under the feed's in-flight window with one pooled encode buffer per
// window slot, recycled as the rank acknowledges. It reports the rank's
// final staged count from the last acknowledgement. After any failure it
// keeps draining so the reader never blocks on a dead rank's window.
func feedRank(mach *cgm.Machine, rank int, cfg IngestConfig, ch <-chan []geom.Point, sent *int) (err error, staged int) {
	var sf cgm.StepFeed
	if _, err = cgm.ResidentCall[bool, bool](mach, rank, fref("ingest/begin"), false); err == nil {
		sf, err = mach.OpenFeed(rank, fref("ingest/chunk"), cgm.FeedOptions{Window: cfg.Window, MaxShare: cfg.MaxShare})
	}
	var ptsFed *obs.Counter
	if reg := mach.Obs(); reg != nil {
		ptsFed = reg.Counter(fmt.Sprintf(`ingest_feed_points_total{rank="%d"}`, rank))
	}
	// The window's encode buffers: acquiring one backpressures the feeder
	// to the feed's own in-flight limit, and each Send's release recycles
	// the (possibly grown) buffer for a later chunk.
	bufs := make(chan []byte, cfg.Window)
	for range cfg.Window {
		bufs <- wire.GetBuf()
	}
	for blk := range ch {
		if err != nil {
			continue // drain
		}
		enc, encErr := encodeChunk((<-bufs)[:0], blk)
		if encErr != nil {
			bufs <- enc
			err = encErr
			continue
		}
		n := len(blk)
		if err = sf.Send(enc, func() { bufs <- enc }); err != nil {
			continue
		}
		*sent += n
		if ptsFed != nil {
			ptsFed.Add(int64(n))
		}
	}
	if sf != nil {
		last, closeErr := sf.Close()
		if err == nil {
			err = closeErr
		}
		if err == nil && last != nil {
			// The chunk step replies with the rank's running staged
			// total; the last ack is the cross-check against what the
			// feeder sent.
			staged, err = exec.Unmarshal[int](last)
			if err != nil {
				err = fmt.Errorf("core: rank %d staged-count reply: %w", rank, err)
			}
		}
	}
	// A failed feed has released every slot, so this never blocks.
	for len(bufs) > 0 {
		wire.PutBuf(<-bufs)
	}
	return err, staged
}

// BulkLoadFiles builds a tree from one pointsfile per rank — the
// partitioned-input layout of a cluster whose workers each own a shard:
// rank r starts Construct from shard r. On a resident machine the
// coordinator never opens the files: counts and dimensionalities come
// back in the ingest replies. On a fabric machine shard r is read into
// rank r's block.
func BulkLoadFiles(mach *cgm.Machine, paths []string) (*Tree, error) {
	p := mach.P()
	if len(paths) != p {
		return nil, fmt.Errorf("core: %d shard files for a %d-rank machine", len(paths), p)
	}
	blocks := make([][]geom.Point, p)
	counts := make([]int, p)
	dims := make([]int, p)
	err := forEachRank(p, func(rank int) error {
		if !mach.Resident() {
			pts, d, err := pointsfile.Read(paths[rank])
			blocks[rank], counts[rank], dims[rank] = pts, len(pts), d
			return err
		}
		if _, err := cgm.ResidentCall[bool, bool](mach, rank, fref("ingest/begin"), false); err != nil {
			return err
		}
		rep, err := cgm.ResidentCall[ingestFileArgs, ingestReply](mach, rank, fref("ingest/file"), ingestFileArgs{Path: paths[rank]})
		if err != nil {
			return err
		}
		counts[rank], dims[rank] = rep.N, int(rep.Dims)
		return nil
	})
	if err != nil {
		return nil, err
	}
	d, total := 0, 0
	for rank := range p {
		total += counts[rank]
		if counts[rank] > 0 {
			if d == 0 {
				d = dims[rank]
			}
			if dims[rank] != d {
				return nil, fmt.Errorf("core: shard %s has %d-dim points, others have %d", paths[rank], dims[rank], d)
			}
		}
	}
	if total == 0 {
		return nil, errors.New("core: empty point set")
	}
	return buildStaged(mach, d, total, blocks)
}
