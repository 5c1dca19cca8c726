// Command rangebench regenerates the paper's evaluation: every figure
// (F1–F3) and every theorem-derived table (T1–T4b), plus the extension
// experiments (E5–E16) indexed in DESIGN.md §10. Performance claims are
// not made here: the measuring instrument is bench/ (see bench/README.md).
//
// Usage:
//
//	rangebench                          # run everything at quick scale
//	rangebench -experiment T2,T3        # selected experiments
//	rangebench -scale full              # EXPERIMENTS.md-sized runs
//	rangebench -markdown > results.md   # markdown output
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/expt"
)

func main() {
	experiments := flag.String("experiment", "all", "comma-separated experiment ids (e.g. T2,T3,E6) or 'all'")
	scaleFlag := flag.String("scale", "quick", "experiment scale: quick or full")
	markdown := flag.Bool("markdown", false, "emit GitHub markdown instead of aligned text")
	flag.Parse()

	var scale expt.Scale
	switch strings.ToLower(*scaleFlag) {
	case "quick":
		scale = expt.Quick
	case "full":
		scale = expt.Full
	default:
		fmt.Fprintf(os.Stderr, "rangebench: unknown scale %q (want quick or full)\n", *scaleFlag)
		os.Exit(2)
	}

	known := make([]string, len(expt.Index))
	byID := make(map[string]func(expt.Scale) *expt.Table, len(expt.Index))
	for i, e := range expt.Index {
		known[i] = e.ID
		byID[e.ID] = e.Run
	}
	ids := known
	if !strings.EqualFold(*experiments, "all") {
		ids = nil
		for _, id := range strings.Split(*experiments, ",") {
			id = strings.ToUpper(strings.TrimSpace(id))
			if _, ok := byID[id]; !ok {
				fmt.Fprintf(os.Stderr, "rangebench: unknown experiment %q; known: %s\n", id, strings.Join(known, " "))
				os.Exit(2)
			}
			ids = append(ids, id)
		}
	}

	for _, id := range ids {
		tab := byID[id](scale)
		if *markdown {
			fmt.Print(tab.Markdown())
		} else {
			tab.Render(os.Stdout)
		}
	}
}
