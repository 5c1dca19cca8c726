package core

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/layered"
)

func TestVerifyPassesOnRandomTrees(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		d := 1 + rng.Intn(4)
		p := 1 + rng.Intn(8)
		dt, _, _ := buildBoth(rng, n, d, p)
		return dt.Verify() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Corruption tests: every class of invariant violation must be detected.
func TestVerifyDetectsCorruption(t *testing.T) {
	build := func() *Tree {
		rng := rand.New(rand.NewSource(99))
		dt, _, _ := buildBoth(rng, 128, 2, 4)
		return dt
	}
	cases := []struct {
		name    string
		corrupt func(*Tree)
		want    string
	}{
		{
			"replica-divergence",
			func(dt *Tree) {
				ht := dt.procs[2].hat[0]
				nd, _ := ht.Node(1)
				nd.Count++
				ht.setNode(1, nd)
			},
			"differs from replica 0",
		},
		{
			"count-drift",
			func(dt *Tree) {
				// Mutate the same node on every replica so the divergence
				// check passes and the count check must catch it.
				for _, ps := range dt.procs {
					ht := ps.hat[0]
					nd, _ := ht.Node(1)
					nd.Count += 3
					ht.setNode(1, nd)
				}
			},
			"count",
		},
		{
			"lost-element",
			func(dt *Tree) {
				for _, ps := range dt.procs {
					for id := range ps.part.elems {
						delete(ps.part.elems, id)
						return
					}
				}
			},
			"missing at its owner",
		},
		{
			"stolen-point",
			func(dt *Tree) {
				for _, ps := range dt.procs {
					for _, el := range ps.part.elems {
						if blk := *el.tree.Points(); el.info.Dim == 0 && blk.Len() > 1 {
							blk.IDs, blk.Coords = blk.IDs[1:], blk.Coords[blk.Dims:]
							el.tree = layered.BuildFrom(blk, 0)
							return
						}
					}
				}
			},
			"",
		},
		{
			"unsorted-element",
			func(dt *Tree) {
				for _, ps := range dt.procs {
					for _, el := range ps.part.elems {
						if blk := el.tree.Points(); blk.Len() > 1 {
							dim, last := int(el.info.Dim), blk.Len()-1
							c := blk.Coords
							c[dim], c[last*blk.Dims+dim] = c[last*blk.Dims+dim], c[dim]
							return
						}
					}
				}
			},
			"",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dt := build()
			if err := dt.Verify(); err != nil {
				t.Fatalf("fresh tree failed verify: %v", err)
			}
			tc.corrupt(dt)
			err := dt.Verify()
			if err == nil {
				t.Fatal("corruption not detected")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("unexpected diagnostic %q, want substring %q", err, tc.want)
			}
		})
	}
}
