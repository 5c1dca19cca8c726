// Ingest: worker-direct bulk load — the same tree built three ways and
// the answers diffed one-to-one:
//
//  1. coordinator-fed (the baseline: drtree.BuildDistributed on the
//     loopback simulator — all n points transit the coordinator),
//  2. partitioned files (each rank reads its own DRPF shard; the
//     coordinator ships file paths, sampling splitters and control
//     frames, never a point),
//  3. the open-loop streaming client (chunks round-robin into the
//     ranks through a bounded in-flight window, over the rank-parallel
//     direct-to-worker feeds).
//
// By default the workers run in-process; pass -workers with a
// comma-separated address list to drive external `rangeworker`
// processes instead (this is what the CI cluster-smoke ingest leg
// does):
//
//	rangeworker -listen 127.0.0.1:9101 &   # … one per rank …
//	go run ./examples/ingest -workers 127.0.0.1:9101,…,127.0.0.1:9104
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro"
)

func main() {
	workerList := flag.String("workers", "", "comma-separated rangeworker addresses (empty: start in-process workers)")
	flag.Parse()

	const (
		p = 4
		n = 1 << 12
		m = 48
	)
	pts := drtree.GeneratePoints(drtree.PointSpec{N: n, Dims: 2, Dist: drtree.Clustered, Seed: 42})
	boxes := drtree.GenerateBoxes(drtree.QuerySpec{M: m, Dims: 2, N: n, Selectivity: 0.02, Seed: 7})

	// 1. The coordinator-fed baseline on the loopback simulator.
	baseTree := drtree.BuildDistributed(drtree.NewMachine(drtree.MachineConfig{P: p}), pts)
	baseCounts := baseTree.CountBatch(boxes)
	baseReports := baseTree.ReportBatch(boxes)

	// Start (or dial) the worker mesh, resident mode: the forest lives
	// in worker memory and ingest runs as resident program steps.
	var addrs []string
	if *workerList == "" {
		for i := 0; i < p; i++ {
			w, err := drtree.StartWorker("127.0.0.1:0")
			if err != nil {
				log.Fatalf("starting worker %d: %v", i, err)
			}
			defer w.Close()
			addrs = append(addrs, w.Addr())
		}
	} else {
		addrs = strings.Split(*workerList, ",")
		if len(addrs) != p {
			log.Fatalf("need %d worker addresses, got %d", p, len(addrs))
		}
	}
	cluster, err := drtree.DialCluster(addrs, drtree.MachineConfig{Resident: true})
	if err != nil {
		log.Fatalf("dialing cluster: %v", err)
	}
	defer cluster.Close()

	// 2. Partitioned files: one DRPF shard per rank. Any partition
	// works — construction redistributes by sample sort regardless.
	dir, err := os.MkdirTemp("", "drtree-ingest")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	paths := make([]string, p)
	for r := range paths {
		lo, hi := r*n/p, (r+1)*n/p
		paths[r] = filepath.Join(dir, fmt.Sprintf("shard-%d.drpf", r))
		if err := drtree.SavePointsFile(paths[r], pts[lo:hi]); err != nil {
			log.Fatalf("writing shard %d: %v", r, err)
		}
	}
	fileMach, err := cluster.NewMachine()
	if err != nil {
		log.Fatal(err)
	}
	fileTree, err := drtree.BulkLoadFiles(fileMach, paths)
	if err != nil {
		log.Fatalf("file bulk load: %v", err)
	}
	fmt.Printf("file load: %d points from %d shards, %d construct rounds\n",
		n, p, fileTree.Machine().Metrics().CommRounds())

	// 3. The open-loop streaming client, rank-parallel: each chunk rides
	// a per-rank feed connection straight to its worker.
	streamMach, err := cluster.NewMachine()
	if err != nil {
		log.Fatal(err)
	}
	t0 := time.Now()
	streamTree, err := drtree.BulkLoadStream(streamMach, drtree.SliceChunks(pts, 256), drtree.IngestConfig{})
	if err != nil {
		log.Fatalf("streaming bulk load: %v", err)
	}
	fmt.Printf("stream load (rank-parallel feeds): %d points in chunks of 256, window 4\n", n)
	fmt.Printf("ingest rate: %.2f Mpts/s\n", float64(n)/time.Since(t0).Seconds()/1e6)

	// Diff every answer against the coordinator-fed baseline.
	for name, tree := range map[string]*drtree.Tree{"files": fileTree, "stream": streamTree} {
		counts := tree.CountBatch(boxes)
		reports := tree.ReportBatch(boxes)
		for q := range boxes {
			if counts[q] != baseCounts[q] {
				log.Fatalf("%s: query %d count %d, coordinator-fed %d", name, q, counts[q], baseCounts[q])
			}
			if len(reports[q]) != len(baseReports[q]) {
				log.Fatalf("%s: query %d reports %d points, coordinator-fed %d",
					name, q, len(reports[q]), len(baseReports[q]))
			}
			for j := range reports[q] {
				if reports[q][j].ID != baseReports[q][j].ID {
					log.Fatalf("%s: query %d point %d diverges", name, q, j)
				}
			}
		}
		fmt.Printf("%s-fed answers identical to coordinator-fed (%d queries, count+report)\n", name, m)
	}
	fmt.Println("ok: worker-direct ingest matches the coordinator-fed build")
}
