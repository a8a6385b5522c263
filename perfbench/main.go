// Command perfbench is resinfer's benchmark. It serves an index over
// loopback HTTP with annserve's defaults, drives one named workload
// against it from this process, checks every answer, and prints its
// metrics as one JSON object on the last line of standard output:
//
//	bash perfbench/run.sh --workload search-gist960 --seed 1 --seconds 12 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// again with spans recorded around the calls into each layer and prints
// the per-layer metrics instead. The exit code is non-zero when an answer
// is wrong or a correctness gate fails. README.md describes the workloads
// and which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"resinfer"
	"resinfer/internal/dataset"
)

type hostStamp struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	SIMD       string `json:"simd"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
}

func stampHost(workload string, seed int64) hostStamp {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return hostStamp{
		CPU: cpu, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), SIMD: resinfer.SIMDLevel(), Commit: commit,
		Workload: workload, Seed: seed,
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: search-gist960 | search-lowdim | ingest-mixed")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 12, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run printing per-layer metrics")
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil {
		fatal(err)
	}
	if *seconds < 4 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("want --seconds >= 4 and --trace 0 or 1"))
	}
	out := os.Getenv("PERFBENCH_OUT")
	if out == "" {
		out = ".bench_build"
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		fatal(err)
	}
	r := &run{
		w: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		host: stampHost(w.name, *seed), out: out, conns: runtime.NumCPU(),
		res: result{Metrics: map[string]metric{}},
	}
	info, _ := json.Marshal(map[string]any{"host": r.host})
	fmt.Println(string(info))
	if *trace == 1 {
		err = r.traced()
	} else {
		err = r.endToEnd()
	}
	if err != nil {
		fatal(err)
	}
	for _, v := range r.violations {
		fmt.Fprintln(os.Stderr, "perfbench: correctness:", v)
	}
	r.res.Correct = len(r.violations) == 0
	line, err := json.Marshal(r.res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !r.res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// run is one invocation: a workload, a seed and the figures it collects.
type run struct {
	w          workload
	seed       int64
	seconds    time.Duration
	host       hostStamp
	out        string // scratch directory for WAL directories and span files
	conns      int
	res        result
	violations []string
}

// set records a metric. A non-finite value (a latency percentile reached
// by failed requests) cannot be printed as JSON; it is reported as the
// largest float and fails the run.
func (r *run) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.violate("metric %s is %v", name, v)
		v = math.MaxFloat64
	}
	r.res.Metrics[name] = metric{v, unit}
}

func (r *run) violate(format string, args ...any) {
	if len(r.violations) < 20 {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

// tally counts the outcomes of measured requests and records every
// answer that breaks the output contract.
func (r *run) tally(outs []outcome) {
	for _, o := range outs {
		r.res.Attempted++
		if !o.ok {
			r.res.Failed++
		}
		if o.bad != "" {
			r.violate("%s", o.bad)
		}
	}
}

func (r *run) walDir(tag string) string {
	return filepath.Join(r.out, fmt.Sprintf("wal-%s-%d-%d-%s", r.w.name, r.seed, os.Getpid(), tag))
}

// recall returns the mean recall@k of the answered searches in outs.
func recall(outs []outcome, truth [][]int) float64 {
	var got, want [][]int
	for _, o := range outs {
		if o.ok && o.ids != nil {
			got = append(got, o.ids)
			want = append(want, truth[o.qi])
		}
	}
	return dataset.Recall(got, want, k)
}

// latencies returns the sorted latencies of outs in milliseconds, a failed
// request counting as +Inf: it misses any latency limit.
func latencies(outs []outcome) []float64 {
	ds := make([]time.Duration, 0, len(outs))
	inf := 0
	for _, o := range outs {
		if o.ok {
			ds = append(ds, o.lat)
		} else {
			inf++
		}
	}
	ms := sortedMs(ds)
	for ; inf > 0; inf-- {
		ms = append(ms, math.Inf(1))
	}
	return ms
}
