// Command bench is the repository's benchmark: four workloads that stress
// different layers, end-to-end metrics with a regression bound each, and
// a traced pass that attributes an op's wall time to layers from outside
// them. See README.md in this directory.
//
//	go run -C bench .                         one untraced set, all workloads
//	go run -C bench . -trace 1                the traced pass and the ladder
//	go run -C bench . -sets 2                 two sets and their agreement
//	go run -C bench . -compare a.json b.json  apply the bounds to two sets
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1   (driver)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// set is one complete run of the chosen workloads: what -out stores and
// -compare reads.
type set struct {
	Seed    int64     `json:"seed"`
	Seconds float64   `json:"seconds"`
	Results []*result `json:"results"`
}

func main() {
	var (
		workloadFlag  = flag.String("workload", "all", "workload to run, or all")
		seed          = flag.Int64("seed", 1, "seed every input is generated from")
		seconds       = flag.Float64("seconds", runSeconds, "length of the measured window")
		trace         = flag.Int("trace", 0, "1 runs the traced pass and the ladder (per-layer metrics); 0 the untraced run (end-to-end metrics)")
		sets          = flag.Int("sets", 1, "complete sets to run back to back; 2 also compares them")
		reps          = flag.Int("reps", 1, "runs of each workload per set, on seeds seed, seed+1, ...")
		scratch       = flag.String("scratch", ".bench_build", "directory for the store's files and the default -out")
		out           = flag.String("out", "", "directory for set-N.json and trace-W.json (default <scratch>/out)")
		compare       = flag.Bool("compare", false, "compare two set files given as arguments, applying each metric's bound")
		printManifest = flag.Bool("manifest", false, "print BENCHMARK.json as generated from the metric table")
	)
	flag.Parse()
	switch {
	case *printManifest:
		os.Stdout.Write(manifest())
		return
	case *compare:
		if flag.NArg() != 2 {
			fail(2, "usage: -compare a.json b.json")
		}
		a, err := readSet(flag.Arg(0))
		if err != nil {
			fail(2, "%v", err)
		}
		b, err := readSet(flag.Arg(1))
		if err != nil {
			fail(2, "%v", err)
		}
		if worse := compareSets(os.Stdout, a, b); worse > 0 {
			fail(1, "%d metric(s) worse beyond their bound", worse)
		}
		return
	}

	var chosen []workloadDef
	if *workloadFlag == "all" {
		chosen = workloads
	} else if w := workloadByName(*workloadFlag); w != nil {
		chosen = []workloadDef{*w}
	} else {
		fail(2, "unknown workload %q", *workloadFlag)
	}
	if *seconds <= 0 || *sets < 1 || *reps < 1 {
		fail(2, "-seconds, -sets and -reps must be positive")
	}
	if *out == "" {
		*out = filepath.Join(*scratch, "out")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fail(1, "%v", err)
	}
	cfg := runCfg{seed: *seed, seconds: *seconds, trace: *trace != 0, scale: 1, scratch: *scratch, outDir: *out}

	var done []*set
	failed := false
	for k := 1; k <= *sets; k++ {
		s := &set{Seed: *seed, Seconds: *seconds}
		for _, w := range chosen {
			for rep := 0; rep < *reps; rep++ {
				c := cfg
				c.seed += int64(rep)
				r, err := w.run(c)
				if err == nil {
					err = r.check()
				}
				if err != nil {
					fail(1, "%s: %v", w.Name, err)
				}
				report(r)
				failed = failed || r.Failed > 0
				s.Results = append(s.Results, r)
			}
		}
		path := filepath.Join(*out, fmt.Sprintf("set-%d.json", k))
		if err := writeSet(path, s); err != nil {
			fail(1, "%v", err)
		}
		done = append(done, s)
		if len(chosen) > 1 || *sets > 1 {
			fmt.Printf("set %d written to %s\n", k, path)
		}
	}
	worse := 0
	if len(done) >= 2 && !cfg.trace {
		worse = compareSets(os.Stdout, done[0], done[1])
	}
	if len(chosen) == 1 && *sets == 1 && *reps == 1 {
		// The driver reads the last line of a single-workload run.
		fmt.Println(done[0].Results[0].lastLine())
	}
	if failed {
		fail(1, "failed_share is not 0")
	}
	if worse > 0 {
		fail(1, "the two sets disagree beyond the bounds on %d metric(s)", worse)
	}
}

// report prints one run: the traced pass's tables, then every metric by
// name with its unit.
func report(r *result) {
	pass := "untraced"
	if r.Trace {
		pass = "traced"
	}
	fmt.Printf("== %s  seed %d  window %.1fs  %s\n", r.Workload, r.Seed, r.Seconds, pass)
	for _, t := range r.Tables {
		fmt.Print(t)
	}
	for _, d := range r.defs() {
		line := fmt.Sprintf("%-40s %-6s %.6g", d.Name, d.Unit, r.Metrics[d.Name])
		if sp, ok := r.Spread[d.Name]; ok {
			line += fmt.Sprintf("   (trials spread %.3f)", sp)
		}
		fmt.Println(line)
	}
	fmt.Printf("%-40s %-6s %.6g   (%d of %d ops)\n", "failed_share", "ratio",
		float64(r.Failed)/float64(max(r.Attempted, 1)), r.Failed, r.Attempted)
}

func writeSet(path string, s *set) error {
	b, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readSet(path string) (*set, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s set
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	sort.SliceStable(s.Results, func(i, j int) bool { return s.Results[i].Workload < s.Results[j].Workload })
	return &s, nil
}

func fail(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(code)
}
