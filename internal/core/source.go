package core

import (
	"fmt"

	"repro/internal/cgm"
	"repro/internal/geom"
)

// PointSource is the construct pipeline's input seam: where each rank's
// share of the input comes from. Construct step 1 ("each processor starts
// with an arbitrary block of n/p points") never needed the coordinator to
// hold the whole set — the sample sort normalizes any initial
// distribution — so a source either hands the coordinator per-rank blocks
// (Block) or declares that the records are already staged in the ranks'
// resident parts (Held), in which case no point payload ever leaves the
// workers during construction.
type PointSource interface {
	// Dims is the dimensionality of every point of the source.
	Dims() int
	// Total is the global point count n.
	Total() int
	// Held reports that the per-rank blocks already live in the ranks'
	// resident parts (staged by the ingest steps); Block is never called.
	Held() bool
	// Block returns rank's initial block (only when !Held). The tree
	// retains the returned slice for the duration of the build.
	Block(rank, p int) []geom.Point
}

// sliceSource adapts a coordinator-held slice: rank blocks are the
// canonical contiguous n/p slices, which keeps BuildBackend's behavior —
// and its round/h/volume metrics — bit-identical to the pre-seam code.
type sliceSource struct {
	pts  []geom.Point
	dims int
}

func (s sliceSource) Dims() int  { return s.dims }
func (s sliceSource) Total() int { return len(s.pts) }
func (s sliceSource) Held() bool { return false }
func (s sliceSource) Block(rank, p int) []geom.Point {
	lo, hi := queryBlock(rank, len(s.pts), p)
	return s.pts[lo:hi]
}

// CanonicalBlocks splits pts into the p contiguous blocks Construct step 1
// would assign — the staging that makes a worker-fed build's metrics
// byte-identical to a coordinator-fed one.
func CanonicalBlocks(pts []geom.Point, p int) [][]geom.Point {
	blocks := make([][]geom.Point, p)
	for rank := range blocks {
		lo, hi := queryBlock(rank, len(pts), p)
		blocks[rank] = pts[lo:hi]
	}
	return blocks
}

// stagedSource describes input already resident in the workers (staged by
// StageBlocks / BulkLoad / the ingest file steps).
type stagedSource struct {
	dims  int
	total int
}

func (s stagedSource) Dims() int  { return s.dims }
func (s stagedSource) Total() int { return s.total }
func (s stagedSource) Held() bool { return true }
func (s stagedSource) Block(int, int) []geom.Point {
	panic("core: a held point source has no coordinator-side blocks")
}

// BuildFromSource runs Algorithm Construct with the input drawn from src.
// A held source requires a resident machine (the records live in the
// ranks' parts); the construction then runs end to end as the resident
// SPMD program, the coordinator contributing only the p² regular-sampling
// splitters and control frames — never point payloads.
func BuildFromSource(mach *cgm.Machine, src PointSource, be Backend) *Tree {
	n := src.Total()
	if n == 0 {
		panic("core: empty point set")
	}
	dims := src.Dims()
	if dims < 1 {
		panic("core: points need at least one dimension")
	}
	if src.Held() && !mach.Resident() {
		panic("core: a held point source needs a resident machine (cgm.Config.Resident)")
	}
	p := mach.P()
	t := newTreeShell(mach, n, dims, be)
	seeded := make([]int, p)
	mach.Run(func(pr *cgm.Proc) { t.construct(pr, src, seeded) })
	// Construct exchanged every record d times over; the columns it
	// received must not keep those rows reachable from the run arenas.
	mach.ReleaseArenas()
	if src.Held() {
		got := 0
		for _, c := range seeded {
			got += c
		}
		if got != n {
			panic(fmt.Sprintf("core: held source staged %d points, declared %d", got, n))
		}
	}
	return t
}
