// Command treedump renders the structural figures of the paper (Figures
// 1–3) and ASCII dumps of the distributed range tree's hat for arbitrary
// parameters — the visual/structural half of the reproduction.
//
// Usage:
//
//	treedump -fig 1            # Figure 1: the (1,8) segment tree
//	treedump -fig 2            # Figure 2: Index/Level labeling
//	treedump -fig 3            # Figure 3: hat + forest for p=8
//	treedump -n 128 -d 2 -p 4  # hat dump for chosen parameters
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/workload"
)

func main() {
	fig := flag.Int("fig", 0, "render paper figure 1, 2 or 3 (0 = custom dump)")
	n := flag.Int("n", 64, "points (custom dump)")
	d := flag.Int("d", 2, "dimensions (custom dump)")
	p := flag.Int("p", 8, "processors (custom dump)")
	seed := flag.Int64("seed", 1, "workload seed")
	check := flag.Bool("check", false, "verify structural invariants and exit")
	flag.Parse()

	switch *fig {
	case 1:
		expt.F1().Render(os.Stdout)
		return
	case 2:
		expt.F2().Render(os.Stdout)
		return
	case 3:
		expt.F3().Render(os.Stdout)
		return
	case 0:
		// custom dump below
	default:
		fmt.Fprintf(os.Stderr, "treedump: unknown figure %d (want 1, 2 or 3)\n", *fig)
		os.Exit(2)
	}

	pts := workload.Points(workload.PointSpec{N: *n, Dims: *d, Dist: workload.Uniform, Seed: *seed})
	mach := cgm.New(cgm.Config{P: *p})
	dt := core.Build(mach, pts)

	if *check {
		if err := dt.Verify(); err != nil {
			fmt.Fprintf(os.Stderr, "treedump: invariant violation: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("ok: n=%d d=%d p=%d — all structural invariants hold\n", *n, *d, *p)
		return
	}

	fmt.Printf("distributed range tree: n=%d d=%d p=%d grain=%d\n", *n, *d, *p, dt.Grain())
	fmt.Printf("hat: %d trees, %d nodes per replica; forest: %d elements\n\n",
		dt.HatTreeCount(), dt.HatNodeCount(), dt.ElemCount())

	infos := dt.Info()
	byDim := map[int][]core.ElemInfo{}
	for _, info := range infos {
		byDim[int(info.Dim)] = append(byDim[int(info.Dim)], info)
	}
	dims := make([]int, 0, len(byDim))
	for dim := range byDim {
		dims = append(dims, dim)
	}
	sort.Ints(dims)
	for _, dim := range dims {
		els := byDim[dim]
		fmt.Printf("dimension %d forest: %d elements\n", dim+1, len(els))
		perOwner := make(map[int32]int)
		maxShown := 8
		for i, info := range els {
			perOwner[info.Owner]++
			if i < maxShown {
				fmt.Printf("  elem %4d  owner P%-2d  count %4d  span [%d,%d]  key %v\n",
					info.ID, info.Owner, info.Count, info.Min, info.Max, info.Key)
			}
		}
		if len(els) > maxShown {
			fmt.Printf("  … %d more\n", len(els)-maxShown)
		}
		fmt.Printf("  per-owner element counts: ")
		for rank := 0; rank < *p; rank++ {
			fmt.Printf("P%d=%d ", rank, perOwner[int32(rank)])
		}
		fmt.Println()
		fmt.Println()
	}

	parts, err := dt.ForestPartNodes()
	if err != nil {
		fmt.Fprintf(os.Stderr, "treedump: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("per-processor forest part sizes (tree nodes):")
	for rank, sz := range parts {
		fmt.Printf("  P%-2d %d\n", rank, sz)
	}
}
