package drtree_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro"
	"repro/internal/brute"
)

// FuzzDistributedVsBrute fuzzes the whole distributed pipeline against the
// linear scan: arbitrary seeds, sizes, dimensionalities and machine widths,
// and batches of m boxes with m from 1 to past p² (phase B's plan changes
// shape across p²), sometimes one box repeated m times (a hot spot, so the
// hot owner gets p copies). Each batch is a mixed op vector of count,
// integer-weight sum and report queries through MixedBatch, every answer
// checked exactly. The seed corpus runs under plain `go test`;
// `go test -fuzz=FuzzDistributedVsBrute` explores further.
func FuzzDistributedVsBrute(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(2), uint8(2), uint8(6))
	f.Add(int64(2), uint8(100), uint8(3), uint8(5), uint8(6))
	f.Add(int64(3), uint8(1), uint8(1), uint8(1), uint8(6))
	f.Add(int64(4), uint8(255), uint8(1), uint8(8), uint8(6))
	f.Add(int64(5), uint8(37), uint8(4), uint8(3), uint8(6))
	f.Add(int64(6), uint8(180), uint8(2), uint8(4), uint8(16))
	f.Add(int64(7), uint8(150), uint8(3), uint8(6), uint8(128+40))
	weight := func(pt drtree.Point) int64 { return int64(pt.ID%7) + 1 }
	f.Fuzz(func(t *testing.T, seed int64, nRaw, dRaw, pRaw, mRaw uint8) {
		n := int(nRaw)%200 + 1
		d := int(dRaw)%4 + 1
		p := int(pRaw)%8 + 1
		m := int(mRaw&0x7f)%(p*p+4) + 1
		hot := mRaw&0x80 != 0
		rng := rand.New(rand.NewSource(seed))
		pts := make([]drtree.Point, n)
		for i := range pts {
			x := make([]drtree.Coord, d)
			for j := range x {
				x[j] = drtree.Coord(rng.Intn(3*n) - n)
			}
			pts[i] = drtree.Point{ID: int32(i), X: x}
		}
		drtree.RankNormalize(pts)
		mach := drtree.NewMachine(drtree.MachineConfig{P: p})
		tree := drtree.BuildDistributed(mach, pts)
		h := drtree.PrepareAssociative(tree, drtree.IntSum(), weight)
		bf := brute.New(pts)
		boxes := make([]drtree.Box, m)
		ops := make([]drtree.QueryOp, m)
		for i := range boxes {
			ops[i] = drtree.QueryOp(rng.Intn(3))
			if hot && i > 0 {
				boxes[i] = boxes[0]
				continue
			}
			lo := make([]drtree.Coord, d)
			hi := make([]drtree.Coord, d)
			for j := 0; j < d; j++ {
				a := drtree.Coord(rng.Intn(n + 2))
				b := drtree.Coord(rng.Intn(n + 2))
				if a > b && i%3 != 0 { // keep some inverted boxes as-is
					a, b = b, a
				}
				lo[j], hi[j] = a, b
			}
			boxes[i] = drtree.Box{Lo: lo, Hi: hi}
		}
		results := drtree.MixedBatch(tree, h, ops, boxes)
		for i, q := range boxes {
			r := results[i]
			switch ops[i] {
			case drtree.OpCount:
				if want := int64(bf.Count(q)); r.Count != want {
					t.Fatalf("count mismatch: n=%d d=%d p=%d m=%d box %v: %d vs %d", n, d, p, m, q, r.Count, want)
				}
			case drtree.OpAggregate:
				if want := brute.Aggregate(bf, drtree.IntSum(), weight, q); r.Agg != want {
					t.Fatalf("sum mismatch: n=%d d=%d p=%d m=%d box %v: %d vs %d", n, d, p, m, q, r.Agg, want)
				}
			case drtree.OpReport:
				got, want := brute.IDs(r.Pts), brute.IDs(bf.Report(q))
				if len(got) == 0 && len(want) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("report mismatch: n=%d d=%d p=%d m=%d box %v", n, d, p, m, q)
				}
			}
		}
	})
}

// FuzzStoreMutate fuzzes the mutable store end to end: a byte-driven
// sequence of inserts, deletes, queries, checkpoints and crash-reopens
// must track the brute-force oracle exactly at every step. The seed
// corpus runs under plain `go test`; `go test -fuzz=FuzzStoreMutate`
// explores further.
func FuzzStoreMutate(f *testing.F) {
	f.Add(int64(1), uint8(2), []byte{0, 1, 2, 3, 4, 0, 0, 3})
	f.Add(int64(2), uint8(5), []byte{0, 0, 0, 1, 3, 4, 1, 1, 2})
	f.Add(int64(3), uint8(1), []byte{4, 4, 0, 2, 3, 0, 1, 4, 3, 2})
	f.Add(int64(4), uint8(8), []byte{0, 3, 0, 3, 0, 3, 1, 1, 1, 4, 2})
	f.Fuzz(func(t *testing.T, seed int64, pRaw uint8, script []byte) {
		if len(script) > 64 {
			script = script[:64]
		}
		p := int(pRaw)%4 + 1
		d := int(pRaw)%3 + 1
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir() + "/db"
		cfg := drtree.StoreConfig{Dims: d, P: p, MemtableCap: 16, Sync: true}
		st, err := drtree.OpenStore(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		closed := false
		defer func() {
			if !closed {
				st.Close()
			}
		}()

		live := map[int32]drtree.Point{}
		var nextID int32
		check := func() {
			var flat []drtree.Point
			for _, pt := range live {
				flat = append(flat, pt)
			}
			bf := brute.New(flat)
			boxes := make([]drtree.Box, 3)
			for i := range boxes {
				lo := make([]drtree.Coord, d)
				hi := make([]drtree.Coord, d)
				for j := 0; j < d; j++ {
					a := drtree.Coord(rng.Intn(64))
					b := drtree.Coord(rng.Intn(64))
					if a > b {
						a, b = b, a
					}
					lo[j], hi[j] = a, b
				}
				boxes[i] = drtree.Box{Lo: lo, Hi: hi}
			}
			counts, err := st.CountBatch(boxes)
			if err != nil {
				t.Fatalf("count batch: %v", err)
			}
			reports, err := st.ReportBatch(boxes)
			if err != nil {
				t.Fatalf("report batch: %v", err)
			}
			for i, q := range boxes {
				if counts[i] != int64(bf.Count(q)) {
					t.Fatalf("count mismatch: d=%d p=%d box %v: %d vs %d", d, p, q, counts[i], bf.Count(q))
				}
				if !reflect.DeepEqual(brute.IDs(reports[i]), brute.IDs(bf.Report(q))) {
					t.Fatalf("report mismatch: d=%d p=%d box %v", d, p, q)
				}
			}
			if st.LiveN() != len(live) {
				t.Fatalf("store claims %d live, oracle %d", st.LiveN(), len(live))
			}
		}

		for _, op := range script {
			switch op % 5 {
			case 0: // insert a small batch
				k := 1 + rng.Intn(8)
				pts := make([]drtree.Point, k)
				for i := range pts {
					x := make([]drtree.Coord, d)
					for j := range x {
						x[j] = drtree.Coord(rng.Intn(64))
					}
					pts[i] = drtree.Point{ID: nextID, X: x}
					nextID++
				}
				if _, err := st.InsertBatch(pts); err != nil {
					t.Fatal(err)
				}
				for _, pt := range pts {
					live[pt.ID] = pt
				}
			case 1: // delete up to 4 live points
				var del []drtree.Point
				for _, pt := range live {
					del = append(del, pt)
					if len(del) == 4 {
						break
					}
				}
				if len(del) == 0 {
					continue
				}
				if _, err := st.DeleteBatch(del); err != nil {
					t.Fatal(err)
				}
				for _, pt := range del {
					delete(live, pt.ID)
				}
			case 2: // checkpoint
				if err := st.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			case 3: // crash (abandon) and reopen
				re, err := drtree.OpenStore(dir, cfg)
				if err != nil {
					t.Fatal(err)
				}
				// The crash already happened (no clean shutdown was
				// given to the old handle before the reopen read the
				// directory); close it now purely to release its
				// goroutine and WAL fd for the fuzz worker's lifetime.
				st.Close()
				st = re
			case 4: // query burst
				check()
			}
		}
		check()
		st.Close()
		closed = true
	})
}

// FuzzNormalizerBox fuzzes the raw-box → rank-box translation: membership
// must be preserved exactly, including under heavy duplication.
func FuzzNormalizerBox(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(2))
	f.Add(int64(7), uint8(64), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, dRaw uint8) {
		n := int(nRaw)%120 + 1
		d := int(dRaw)%3 + 1
		rng := rand.New(rand.NewSource(seed))
		raw := make([][]float64, n)
		for i := range raw {
			raw[i] = make([]float64, d)
			for j := range raw[i] {
				raw[i][j] = float64(rng.Intn(9)) // lots of ties
			}
		}
		pts, norm := drtree.Normalize(raw)
		for trial := 0; trial < 5; trial++ {
			lo := make([]float64, d)
			hi := make([]float64, d)
			for j := 0; j < d; j++ {
				a, b := float64(rng.Intn(11)-1), float64(rng.Intn(11)-1)
				if a > b {
					a, b = b, a
				}
				lo[j], hi[j] = a, b
			}
			rb := norm.Box(lo, hi)
			for i, p := range pts {
				inRaw := true
				for j := 0; j < d; j++ {
					if raw[i][j] < lo[j] || raw[i][j] > hi[j] {
						inRaw = false
						break
					}
				}
				if rb.Contains(p) != inRaw {
					t.Fatalf("membership mismatch for point %d", i)
				}
			}
		}
	})
}
