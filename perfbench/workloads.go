package main

import (
	"fmt"
	"time"

	"resinfer"
	"resinfer/internal/dataset"
	"resinfer/internal/server"
)

// workload is one named traffic mix. The open-loop rates are constants
// set near half the capacity measured at the commit that introduced the
// benchmark (2 CPUs, AVX2+FMA), so latency is read below saturation; they
// stay fixed so later commits are compared at the same offered load.
type workload struct {
	name       string
	profile    string // dataset profile whose shape (dim, VE32) the corpus takes; "" = dim/ve32 below
	dim        int
	ve32       float64
	n          int     // vectors the index is built from
	drift      float64 // mean shift over insert order, in σ of the leading direction
	mode       string  // request mode; "" leaves annserve's default (exact)
	rate       float64 // open-loop search requests per second
	floor      float64 // lowest acceptable recall@10
	ingest     bool    // an /upsert stream beside the searches
	upsertRate float64 // upserts per second while the stream is paced
}

var workloads = []workload{
	{
		// The DCO does most of the work here: 960 dims leave DDCres a
		// lot to prune, and the O(D²) query rotation is paid per shard.
		name: "search-gist960", profile: "gist", n: 8000,
		mode: "ddc-res", rate: 100, floor: 0.85,
	},
	{
		// The DCO has almost nothing to prune at 64 dims and the default
		// exact mode bypasses it: HTTP/JSON, the micro-batcher and the
		// fan-out dominate. A DCO change must not move this workload.
		name: "search-lowdim", dim: 64, ve32: 0.6, n: 20000,
		rate: 300, floor: 0.95,
	},
	{
		// Writes beside reads: WAL appends, memtable scans, compaction
		// and DCO retraining on drifted data, under open-loop searches.
		name: "ingest-mixed", dim: 64, ve32: 0.6, n: 10000, drift: 1.2,
		mode: "ddc-res", rate: 130, floor: 0.85,
		ingest: true, upsertRate: 1000,
	},
}

// streamLen is how many vectors the upsert stream of an ingest workload
// holds for a run of the given length. The paced stream runs through the
// warm-up and every measured phase, about seconds+1 s in all; half as much
// again plus slack keeps it from running dry when the host is slow. A
// traced run then sends what is left as a closed loop, which ends early
// when the stream does.
func streamLen(w workload, seconds time.Duration) int {
	if !w.ingest {
		return 0
	}
	return int(w.upsertRate * (1.5*seconds.Seconds() + 3))
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

const (
	shards    = 4 // annserve -shards default
	k         = 10
	nQueries  = 500 // evaluation queries cycled by the load generators
	nTrain    = 500 // annserve -train default
	setupReps = 3   // set-ups per run; setup_s is their median
)

// modes are annserve's default -modes.
var modes = []resinfer.Mode{resinfer.Exact, resinfer.DDCRes}

// serverConfig is annserve's default configuration (see its flags).
func serverConfig() server.Config {
	return server.Config{
		DefaultK:            k,
		DefaultBudget:       100,
		BatchWindow:         2 * time.Millisecond,
		BatchMaxSize:        64,
		RequestTimeout:      30 * time.Second,
		DrainTimeout:        5 * time.Second,
		SlowLogThreshold:    250 * time.Millisecond,
		QualitySampleRate:   256,
		QualityWorkers:      1,
		SLOLatencyThreshold: 100 * time.Millisecond,
		SLOLatencyTarget:    0.99,
		SLORecallTarget:     0.95,
	}
}

// corpus is everything generated from the seed: the vectors the index is
// built from, the upsert stream, the queries and their ground truth. As in
// the repository's streaming benchmark, the stream is the drifted tail of
// one generated dataset, upserted as new rows.
type corpus struct {
	base    [][]float32
	stream  [][]float32
	queries [][]float32
	train   [][]float32
	truth   [][]int // top-k IDs of each query over base (read-only workloads)
}

func generate(w workload, seed int64, seconds time.Duration) (*corpus, error) {
	cfg := dataset.GenConfig{Dim: w.dim, VE32: w.ve32}
	if w.profile != "" {
		p, err := dataset.ProfileByName(w.profile)
		if err != nil {
			return nil, err
		}
		cfg = p.GenConfig
	}
	cfg.Name = w.name
	cfg.N = w.n + streamLen(w, seconds)
	cfg.Queries = nQueries
	cfg.TrainQueries = nTrain
	cfg.Drift = w.drift
	cfg.Seed = seed
	ds, err := dataset.Generate(cfg)
	if err != nil {
		return nil, err
	}
	c := &corpus{base: ds.Data[:w.n], stream: ds.Data[w.n:], queries: ds.Queries, train: ds.Train}
	if !w.ingest {
		if c.truth, err = dataset.BruteForceKNN(c.base, c.queries, k, 0); err != nil {
			return nil, err
		}
	}
	return c, nil
}
