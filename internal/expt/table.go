// Package expt is the benchmark harness that regenerates the paper's
// "evaluation". The paper is theoretical — its results are Theorems 1–4
// and Figures 1–3 — so each experiment measures the quantity a theorem
// bounds (structure sizes, communication rounds, h-relation volumes,
// modelled BSP time, output balance) or renders the structure a figure
// depicts, and prints it as a table. DESIGN.md §10 is the experiment index;
// EXPERIMENTS.md records one captured run.
package expt

import (
	"fmt"
	"io"
	"strings"
)

// Table is one experiment's output.
type Table struct {
	ID     string
	Title  string
	Note   string // what the paper predicts, and what to look for
	Header []string
	Rows   [][]string
}

// Index is the experiment index in DESIGN.md §10 order: the one list All,
// cmd/rangebench's -experiment lookup and its "known:" diagnostic derive
// from.
var Index = []struct {
	ID  string
	Run func(Scale) *Table
}{
	{"F1", func(Scale) *Table { return F1() }},
	{"F2", func(Scale) *Table { return F2() }},
	{"F3", func(Scale) *Table { return F3() }},
	{"T1", T1}, {"T2", T2}, {"T3", T3}, {"T4A", T4a}, {"T4B", T4b},
	{"E5", E5}, {"E6", E6}, {"E7", E7}, {"E8", E8}, {"E9", E9}, {"E10", E10},
	{"E11", E11}, {"E12", E12}, {"E13", E13}, {"E14", E14}, {"E15", E15}, {"E16", E16},
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.3g", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	if t.Note != "" {
		for _, line := range wrap(t.Note, 78) {
			fmt.Fprintf(w, "   %s\n", line)
		}
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintf(w, "   %s\n", strings.Join(parts, "  "))
	}
	line(t.Header)
	dashes := make([]string, len(t.Header))
	for i := range dashes {
		dashes[i] = strings.Repeat("-", widths[i])
	}
	line(dashes)
	for _, r := range t.Rows {
		line(r)
	}
	fmt.Fprintln(w)
}

// Markdown renders the table as GitHub markdown (for EXPERIMENTS.md).
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "%s\n\n", t.Note)
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(t.Header, " | "))
	seps := make([]string, len(t.Header))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(seps, " | "))
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "| %s |\n", strings.Join(r, " | "))
	}
	b.WriteString("\n")
	return b.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

func wrap(s string, w int) []string {
	words := strings.Fields(s)
	var lines []string
	cur := ""
	for _, word := range words {
		if cur == "" {
			cur = word
		} else if len(cur)+1+len(word) <= w {
			cur += " " + word
		} else {
			lines = append(lines, cur)
			cur = word
		}
	}
	if cur != "" {
		lines = append(lines, cur)
	}
	return lines
}
