package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cgm"
	"repro/internal/geom"
	"repro/internal/workload"
)

// constructFingerprint hashes what Algorithm Construct decided, not what
// the tree answers: every rank's replicated ElemInfo table, the point-ID
// order of every owned element, and the run's rounds with each round's
// label, h and volume. Two builds that answer every query alike can still
// differ here (a different tie order inside an element, a different
// splitter); the golden test below pins all of it.
func constructFingerprint(t *testing.T, dt *Tree) string {
	t.Helper()
	h := sha256.New()
	put := func(vs ...int64) {
		for _, v := range vs {
			binary.Write(h, binary.LittleEndian, v)
		}
	}
	for _, ps := range dt.procs {
		put(int64(len(ps.info)))
		for _, in := range ps.info {
			put(int64(in.ID), int64(in.Owner), int64(in.Count), int64(in.Dim), int64(in.Min), int64(in.Max))
			fmt.Fprintf(h, "%q", in.Key)
		}
	}
	infos := dt.procs[0].info
	owned := make([]geom.Block, len(infos))
	byOwner := make([][]ElemID, dt.P())
	for _, in := range infos {
		byOwner[in.Owner] = append(byOwner[in.Owner], in.ID)
	}
	for rank, ids := range byOwner {
		parts, err := onPart(dt, rank, "points/fetch", fetchArgs{Elems: ids}, fetchPointsStep)
		if err != nil {
			t.Fatal(err)
		}
		for i, id := range ids {
			owned[id] = parts[i]
		}
	}
	for _, blk := range owned {
		put(int64(blk.Len()))
		for _, id := range blk.IDs {
			put(int64(id))
		}
	}
	mt := dt.Machine().Metrics()
	put(int64(mt.CommRounds()), int64(mt.MaxH()), int64(mt.TotalComm()))
	for _, r := range mt.Rounds {
		fmt.Fprintf(h, "%s|%t|", r.Label, r.Final)
		put(int64(r.MaxH), int64(r.TotalElems))
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// tieGrid draws n points with every coordinate in 0..15 and IDs a random
// permutation of 0..n-1, so most x_j repeat and only the ID breaks the
// tie: a local sort that is merely correct on distinct keys, or one whose
// tie order depends on the input order, builds a different tree here.
func tieGrid(n, d int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	ids := rng.Perm(n)
	pts := make([]geom.Point, n)
	for i := range pts {
		x := make([]geom.Coord, d)
		for j := range x {
			x[j] = geom.Coord(rng.Intn(16))
		}
		pts[i] = geom.Point{ID: int32(ids[i]), X: x}
	}
	return pts
}

// TestConstructGolden pins the built tree itself — element tables, point
// order inside every element, rounds, h and volume — for the
// fabric build (BuildOn) and the resident build (Build on a
// resident machine, which stages the blocks and runs held), on clustered
// points and on a tie-heavy grid. The two builders share one literal per
// case: the held build is the same algorithm with the records kept
// worker-side. The literals were captured
// while construct's local sort was still a stable one; under a strict
// total order every correct sort must reproduce them.
func TestConstructGolden(t *testing.T) {
	const n = 4096
	want := map[string]string{
		"clustered/d=2/p=1": "827f727937fc5371",
		"clustered/d=2/p=4": "5218286821105e35",
		"clustered/d=2/p=7": "3d976a04341f6740",
		"clustered/d=3/p=1": "e474d1b15c8c15e8",
		"clustered/d=3/p=4": "7f46611fb85c7981",
		"clustered/d=3/p=7": "58610b9dbde5d26b",
		"ties/d=2/p=1":      "ca60670a51b3f51a",
		"ties/d=2/p=4":      "8e148ddb3e487635",
		"ties/d=2/p=7":      "d855c64fa3519082",
		"ties/d=3/p=1":      "e33cf1fe856e18e9",
		"ties/d=3/p=4":      "bea8517a1bdaa199",
		"ties/d=3/p=7":      "c21dbffe54289629",
	}
	for _, input := range []string{"clustered", "ties"} {
		for _, d := range []int{2, 3} {
			var pts []geom.Point
			if input == "clustered" {
				pts = workload.Points(workload.PointSpec{N: n, Dims: d, Dist: workload.Clustered, Seed: 5})
			} else {
				pts = tieGrid(n, d, 5)
			}
			for _, p := range []int{1, 4, 7} {
				onFabric, err := BuildOn(cgm.NewLocalProvider(cgm.Config{P: p}), pts, BackendLayered)
				if err != nil {
					t.Fatal(err)
				}
				held := Build(cgm.New(cgm.Config{P: p, Resident: true}), pts)
				name := fmt.Sprintf("%s/d=%d/p=%d", input, d, p)
				for builder, dt := range map[string]*Tree{"BuildOn": onFabric, "resident Build": held} {
					if got := constructFingerprint(t, dt); got != want[name] {
						t.Errorf("%s %s: fingerprint %s, want %s", builder, name, got, want[name])
					}
				}
			}
		}
	}
}
