package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"resinfer"
	"resinfer/internal/ddc"
	"resinfer/internal/obs"
	"resinfer/internal/store"
)

// fanIndex is the slice of the index API the in-process probes call;
// both resinfer.ShardedIndex and resinfer.MutableIndex have it.
type fanIndex interface {
	SearchWithStatsCtx(ctx context.Context, q []float32, k int, mode resinfer.Mode, budget int, tr *obs.Trace) ([]resinfer.Neighbor, resinfer.SearchStats, error)
	SearchShardGlobal(s int, q []float32, k int, mode resinfer.Mode, budget int) ([]resinfer.Neighbor, resinfer.SearchStats, error)
	NumShards() int
}

const (
	probeQueries = 200 // queries per in-process probe
	budget       = 100 // annserve -budget default
)

// probeFanout times the served search call and a single shard probe
// in-process, with the server idle, and counts the served call's heap
// allocations. speedup is the time of an exact pass over the same
// queries divided by the time of a DDCres pass.
func probeFanout(idx fanIndex, queries [][]float32, mode resinfer.Mode) (fanUs, shardUs, allocs, speedup float64, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	qs := queries[:min(probeQueries, len(queries))]
	var fan []float64
	for _, q := range qs {
		t := time.Now()
		if _, _, err := idx.SearchWithStatsCtx(ctx, q, k, mode, budget, nil); err != nil {
			return 0, 0, 0, 0, fmt.Errorf("SearchWithStatsCtx: %w", err)
		}
		fan = append(fan, float64(time.Since(t))/float64(time.Microsecond))
	}
	var sh []float64
	for _, q := range qs[:min(50, len(qs))] {
		for s := 0; s < idx.NumShards(); s++ {
			t := time.Now()
			if _, _, err := idx.SearchShardGlobal(s, q, k, mode, budget); err != nil {
				return 0, 0, 0, 0, fmt.Errorf("SearchShardGlobal: %w", err)
			}
			sh = append(sh, float64(time.Since(t))/float64(time.Microsecond))
		}
	}
	i := 0
	allocs = testing.AllocsPerRun(len(qs), func() {
		_, _, _ = idx.SearchWithStatsCtx(ctx, qs[i%len(qs)], k, mode, budget, nil)
		i++
	})
	// Alternate the two modes pass by pass so drift in machine speed
	// lands on both.
	var exact, res time.Duration
	for pass := 0; pass < 2; pass++ {
		for _, m := range []resinfer.Mode{resinfer.Exact, resinfer.DDCRes} {
			t := time.Now()
			for _, q := range qs {
				if _, _, err := idx.SearchWithStatsCtx(ctx, q, k, m, budget, nil); err != nil {
					return 0, 0, 0, 0, fmt.Errorf("%s pass: %w", m, err)
				}
			}
			if m == resinfer.Exact {
				exact += time.Since(t)
			} else {
				res += time.Since(t)
			}
		}
	}
	return median(fan), median(sh), allocs, float64(exact) / float64(res), nil
}

// probeDCO builds the DDCres comparator the index builds per shard over
// one shard's worth of the corpus, then times an evaluator Reset (the
// per-query rotation and σ table) and a Compare against candidates whose
// threshold is the k-th smallest exact distance among them — the result
// queue's threshold once it holds k hits.
func probeDCO(rows [][]float32, queries [][]float32, seed int64) (prepareUs, compareNs float64, err error) {
	res, err := ddc.NewRes(store.MustFromRows(rows), ddc.ResConfig{
		Multiplier: resinfer.DefaultResMultiplier, InitD: resinfer.DefaultDeltaD,
		DeltaD: resinfer.DefaultDeltaD, Seed: seed,
	})
	if err != nil {
		return 0, 0, err
	}
	ev := res.NewEvaluator()
	cands := min(256, len(rows))
	dist := make([]float64, cands)
	var prep []float64
	var cmpTime time.Duration
	var compares int
	for _, q := range queries[:min(probeQueries, len(queries))] {
		t := time.Now()
		if err := ev.Reset(q); err != nil {
			return 0, 0, err
		}
		prep = append(prep, float64(time.Since(t))/float64(time.Microsecond))
		for id := 0; id < cands; id++ {
			dist[id] = float64(ev.Distance(id))
		}
		sort.Float64s(dist)
		tau := float32(dist[k-1])
		t = time.Now()
		for id := 0; id < cands; id++ {
			ev.Compare(id, tau)
		}
		cmpTime += time.Since(t)
		compares += cands
	}
	return median(prep), float64(cmpTime) / float64(compares), nil
}

// promHistQuantile estimates the q-quantile of an unlabelled histogram in
// a Prometheus text exposition, interpolating linearly inside the bucket
// holding the target rank like the server's own Histogram.Quantile. It
// returns 0 when the histogram has no observations.
func promHistQuantile(expo []byte, name string, q float64) float64 {
	type bucket struct{ le, cum float64 }
	var bs []bucket
	prefix := name + `_bucket{le="`
	sc := bufio.NewScanner(bytes.NewReader(expo))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		rest := line[len(prefix):]
		end := strings.Index(rest, `"}`)
		if end < 0 {
			continue
		}
		le, err1 := strconv.ParseFloat(rest[:end], 64)
		cum, err2 := strconv.ParseFloat(strings.TrimSpace(rest[end+2:]), 64)
		if err1 != nil || err2 != nil {
			continue
		}
		bs = append(bs, bucket{le, cum})
	}
	if len(bs) == 0 || bs[len(bs)-1].cum == 0 {
		return 0
	}
	target := math.Max(q*bs[len(bs)-1].cum, 1)
	prevLe, prevCum := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= target {
			if math.IsInf(b.le, 1) {
				return prevLe
			}
			return prevLe + (b.le-prevLe)*(target-prevCum)/(b.cum-prevCum)
		}
		prevLe, prevCum = b.le, b.cum
	}
	return prevLe
}

// promValue returns the value of an unlabelled sample, 0 when absent.
func promValue(expo []byte, name string) float64 {
	sc := bufio.NewScanner(bytes.NewReader(expo))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && f[0] == name {
			v, _ := strconv.ParseFloat(f[1], 64)
			return v
		}
	}
	return 0
}

// walBytesPerRecord returns the bytes of the WAL segments on disk per
// record they hold. Segments are named wal-<first LSN in hex>.log, so the
// oldest name and the last LSN give the record count.
func walBytesPerRecord(dir string, lastLSN uint64) (float64, error) {
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(names) == 0 {
		return 0, fmt.Errorf("no WAL segments in %s", dir)
	}
	sort.Strings(names)
	var first uint64
	if _, err := fmt.Sscanf(filepath.Base(names[0]), "wal-%016x.log", &first); err != nil {
		return 0, err
	}
	var total int64
	for _, n := range names {
		fi, err := os.Stat(n)
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	if lastLSN < first {
		return 0, fmt.Errorf("WAL holds no records past LSN %d", first)
	}
	return float64(total) / float64(lastLSN-first+1), nil
}
