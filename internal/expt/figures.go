package expt

import (
	"fmt"

	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/segtree"
	"repro/internal/workload"
)

// F1 regenerates Figure 1: the segment tree structure for (1,8), one row
// per level with the segments associated to the nodes.
func F1() *Table {
	t := &Table{
		ID:    "F1",
		Title: "Segment tree structure for (1,8) (paper Figure 1)",
		Note: "Leaves carry [1,2) [2,3) … [7,8) and the degenerate [8,8]; each " +
			"internal node carries the union of its children. The root must be [1,8].",
		Header: []string{"level", "segments"},
	}
	s := segtree.NewShape(8)
	for level := s.Height(); level >= 0; level-- {
		segs := ""
		for v := 1; v < 2*s.Cap; v++ {
			if s.Level(v) != level {
				continue
			}
			if segs != "" {
				segs += " "
			}
			segs += s.FigSegmentString(v)
		}
		t.AddRow(level, segs)
	}
	return t
}

// F2 regenerates Figure 2: the Index/Level labeling across a dimension
// boundary (Definition 2): a node U with index x anchors a descendant tree
// whose root inherits x and whose levels double the index.
func F2() *Table {
	t := &Table{
		ID:    "F2",
		Title: "Index and Level of the nodes of T across a dimension boundary (paper Figure 2)",
		Note: "Node U has Index(U)=x in dimension i-1; descendant(U) lives in dimension i. " +
			"Definition 2: the descendant root inherits x; left children double the index, " +
			"right children double and add one — heap arithmetic.",
		Header: []string{"node (depth k in descendant tree)", "paper's index", "computed Index(x, heap)"},
	}
	const x = 5
	labels := []string{"root", "2x", "2x+1", "4x", "4x+1", "4x+2", "4x+3"}
	want := []uint64{x, 2 * x, 2*x + 1, 4 * x, 4*x + 1, 4*x + 2, 4*x + 3}
	for heap := 1; heap <= 7; heap++ {
		t.AddRow(labels[heap-1], fmt.Sprint(want[heap-1]), fmt.Sprint(segtree.Index(x, heap)))
	}
	return t
}

// F3 regenerates Figure 3: the hat of T in dimension one along with the
// forest, for p = 8 — structure counts per hat tree and the forest
// distribution over processors.
func F3() *Table {
	n, d, p := 64, 2, 8
	pts := workload.Points(workload.PointSpec{N: n, Dims: d, Dist: workload.Uniform, Seed: 42})
	mach := cgm.New(cgm.Config{P: p})
	dt := core.Build(mach, pts)
	t := &Table{
		ID:    "F3",
		Title: fmt.Sprintf("Hat and forest of T for n=%d, d=%d, p=%d (paper Figure 3)", n, d, p),
		Note: "The hat holds the top log p levels of every segment tree (all nodes with " +
			"more than n/p canonical points); the forest elements hanging below are " +
			"range trees on ≤ n/p points distributed round-robin. With n and p powers " +
			"of two the primary tree contributes exactly p forest elements of n/p points.",
		Header: []string{"quantity", "value"},
	}
	t.AddRow("grain g = ceil(n/p)", dt.Grain())
	t.AddRow("hat trees (segment trees truncated at the cut)", dt.HatTreeCount())
	t.AddRow("hat nodes per replica |H|", dt.HatNodeCount())
	t.AddRow("forest elements", dt.ElemCount())
	dim0 := 0
	for _, info := range dt.Info() {
		if info.Dim == 0 {
			dim0++
		}
	}
	t.AddRow("dimension-one forest elements (want p)", dim0)
	parts, err := dt.ForestPartNodes()
	if err != nil {
		panic(err)
	}
	for i, s := range parts {
		t.AddRow(fmt.Sprintf("|F_%d| (nodes at processor %d)", i, i), s)
	}
	return t
}
