package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"resinfer"
	"resinfer/internal/obs"
	"resinfer/internal/stats"
)

// span is one timed call at a layer boundary. Spans of one request share
// Query; ID and Parent link each span to the one that caused it.
type span struct {
	Name   string    `json:"name"`
	ID     int64     `json:"id"`
	Parent int64     `json:"parent"`
	Query  int64     `json:"query"`
	Shard  int       `json:"shard,omitempty"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// Span IDs are derived from the request ID: the HTTP round trip is the
// root; the client's decoding of the response, the server's own stages
// outside the served call and the served search call are its children;
// the shard probes are the served call's.
const spansPerQuery = 64

// serverStages are the stages the server times itself outside the served
// search call, in the order they run; the ledger charges their sum to the
// server layer.
var serverStages = []string{"decode", "queue_wait", "encode"}

func spanIDs(name string, query int64, shard int) (id, parent int64) {
	base := query * spansPerQuery
	switch name {
	case "http":
		return base, -1
	case "search":
		return base + 1, base
	case "client_decode":
		return base + 5, base
	case "shard":
		return base + 8 + int64(shard), base + 1
	default:
		return base + 2 + int64(slices.Index(serverStages, name)), base
	}
}

// recorder keeps the spans of a traced run in memory until the run ends.
// The load generator registers each query vector under a fresh request ID
// before sending it; the index wrapper finds the request ID again from the
// vector it is handed, since only the vector crosses the HTTP boundary.
type recorder struct {
	on        atomic.Bool // recording; off during the untraced phase of a traced run
	nextQuery atomic.Int64
	byVector  sync.Map // vector hash -> request ID
	origin    sync.Map // request ID -> start of the server's trace, set by the served call
	mu        sync.Mutex
	spans     []span
}

func vectorKey(v []float32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, x := range v {
		u := math.Float32bits(x)
		b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}

func (r *recorder) active() bool { return r != nil && r.on.Load() }

func (r *recorder) off() {
	if r != nil {
		r.on.Store(false)
	}
}

// register allocates a request ID for a query about to be sent. The load
// generators never have two requests with the same vector in flight, so
// the latest registration of a vector is the request carrying it.
func (r *recorder) register(q []float32) int64 {
	id := r.nextQuery.Add(1)
	r.byVector.Store(vectorKey(q), id)
	return id
}

func (r *recorder) add(s span) {
	s.ID, s.Parent = spanIDs(s.Name, s.Query, s.Shard)
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// served records the spans of one call into the index's served search
// path: a "search" span per query, plus a "shard" span per shard probe
// taken from the per-request trace the server hands the index.
func (r *recorder) served(queries [][]float32, traces []*obs.Trace, start, end time.Time) {
	if !r.active() {
		return
	}
	for j, q := range queries {
		v, ok := r.byVector.Load(vectorKey(q))
		if !ok {
			continue
		}
		rid := v.(int64)
		r.add(span{Name: "search", Query: rid, Start: start, End: end})
		if j >= len(traces) || traces[j] == nil {
			continue
		}
		now := time.Now()
		snap := traces[j].Snapshot()
		t0 := now.Add(-snap.Total)
		r.origin.Store(rid, t0)
		for _, sh := range snap.Shards {
			s0 := t0.Add(sh.Start)
			r.add(span{Name: "shard", Query: rid, Shard: sh.Shard, Start: s0, End: s0.Add(sh.Dur)})
		}
	}
}

// stages records the server's own stages of request rid from the timeline
// its response carried. They are placed on the recorder's clock from the
// trace origin the served call saw; a request the served call did not see
// records none.
func (r *recorder) stages(rid int64, sts []serverStage) {
	v, ok := r.origin.LoadAndDelete(rid)
	if !ok {
		return
	}
	t0 := v.(time.Time)
	for _, st := range sts {
		if !slices.Contains(serverStages, st.Name) {
			continue
		}
		s0 := t0.Add(time.Duration(st.StartUs) * time.Microsecond)
		r.add(span{Name: st.Name, Query: rid, Start: s0, End: s0.Add(time.Duration(st.DurUs) * time.Microsecond)})
	}
}

// recorded returns a copy of the spans recorded so far.
func (r *recorder) recorded() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write saves the spans as JSON lines, one span per line, after a header
// line carrying the host stamp.
func (r *recorder) write(path string, host hostStamp) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	_ = enc.Encode(map[string]any{"host": host})
	for _, s := range r.recorded() {
		_ = enc.Encode(s)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedSharded and tracedMutable put the recorder around the served
// search call. Embedding the index keeps every other method, so the
// server finds the same optional capabilities (deadline-aware fan-out,
// mutations, ground truth) and serves through the same paths as with the
// bare index. With annserve's batch window every /search reaches the
// index through SearchBatchCtx, which runs the deadline-aware fan-out of
// SearchWithStatsCtx once per query.
type tracedSharded struct {
	*resinfer.ShardedIndex
	rec *recorder
}

func (x tracedSharded) SearchBatchCtx(ctx context.Context, queries [][]float32, k int, mode resinfer.Mode, budget, workers int, traces []*obs.Trace) ([]resinfer.BatchResult, error) {
	start := time.Now()
	res, err := x.ShardedIndex.SearchBatchCtx(ctx, queries, k, mode, budget, workers, traces)
	x.rec.served(queries, traces, start, time.Now())
	return res, err
}

type tracedMutable struct {
	*resinfer.MutableIndex
	rec *recorder
}

func (x tracedMutable) SearchBatchCtx(ctx context.Context, queries [][]float32, k int, mode resinfer.Mode, budget, workers int, traces []*obs.Trace) ([]resinfer.BatchResult, error) {
	start := time.Now()
	res, err := x.MutableIndex.SearchBatchCtx(ctx, queries, k, mode, budget, workers, traces)
	x.rec.served(queries, traces, start, time.Now())
	return res, err
}

// ledger splits each traced request's HTTP round trip, as the client
// timed it, into layers each timed on its own: the client reading and
// decoding the response body, the server's stages outside the served call
// (decode, queue wait, encode, as the server times them), the served
// search call less the time its shard probes cover (fan-out and merge),
// and that cover (shard searches). What the layers leave of the round
// trip — transport, request parsing before the handler, the hand-off from
// the batch back to the handler, writing the response — no layer accounts
// for; gap holds it per request.
type ledger struct {
	requests int
	http     []float64 // ms, HTTP round trip
	self     []float64 // ms, HTTP round trip minus the served search call
	client   []float64 // ms, client reading and decoding the response body
	stages   []float64 // ms, the server's decode + queue_wait + encode stages
	fanout   []float64 // ms, search call minus the shard probes' cover
	shard    []float64 // ms, time covered by at least one shard probe
	gap      []float64 // ms, round trip minus all the layers above
}

func buildLedger(spans []span) ledger {
	type req struct {
		http, search, client *span
		stages               []span
		shards               []span
	}
	byQuery := map[int64]*req{}
	for i := range spans {
		s := &spans[i]
		r := byQuery[s.Query]
		if r == nil {
			r = &req{}
			byQuery[s.Query] = r
		}
		switch s.Name {
		case "http":
			r.http = s
		case "search":
			r.search = s
		case "client_decode":
			r.client = s
		case "shard":
			r.shards = append(r.shards, *s)
		default:
			r.stages = append(r.stages, *s)
		}
	}
	var l ledger
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for _, r := range byQuery {
		if r.http == nil || r.search == nil || r.client == nil || len(r.shards) == 0 || len(r.stages) != len(serverStages) {
			continue
		}
		var stages time.Duration
		for _, st := range r.stages {
			stages += st.dur()
		}
		cover := covered(r.shards, r.search.Start, r.search.End)
		l.requests++
		l.http = append(l.http, ms(r.http.dur()))
		l.self = append(l.self, ms(r.http.dur()-r.search.dur()))
		l.client = append(l.client, ms(r.client.dur()))
		l.stages = append(l.stages, ms(stages))
		l.fanout = append(l.fanout, ms(r.search.dur()-cover))
		l.shard = append(l.shard, ms(cover))
		l.gap = append(l.gap, ms(r.http.dur()-r.client.dur()-stages-r.search.dur()))
	}
	return l
}

// covered returns how much of [lo, hi] at least one span covers.
func covered(spans []span, lo, hi time.Time) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	var total time.Duration
	var curS, curE time.Time
	open := false
	for _, s := range spans {
		st, en := s.Start, s.End
		if st.Before(lo) {
			st = lo
		}
		if en.After(hi) {
			en = hi
		}
		if !en.After(st) {
			continue
		}
		if open && !st.After(curE) {
			if en.After(curE) {
				curE = en
			}
			continue
		}
		if open {
			total += curE.Sub(curS)
		}
		curS, curE, open = st, en, true
	}
	if open {
		total += curE.Sub(curS)
	}
	return total
}

// check verifies that the layers account for the HTTP round trip: the
// median over requests of the time they leave unaccounted for must lie
// within the round trip's own quartile spread. Gaps are paired per
// request because medians do not add: a sum of per-layer medians differs
// from the median round trip even when every request is fully accounted
// for.
func (l ledger) check() (gapMs, spread float64, err error) {
	if l.requests == 0 {
		return 0, 0, fmt.Errorf("ledger: no traced request had http, client, server stage, search and shard spans")
	}
	q, err := stats.Quantiles(l.http, []float64{0.25, 0.5, 0.75})
	if err != nil {
		return 0, 0, err
	}
	gapMs, spread = median(l.gap), q[2]-q[0]
	if math.Abs(gapMs) > spread {
		return gapMs, spread, fmt.Errorf("ledger: layers leave %.3f ms of the HTTP round trip (p50 %.3f ms) unaccounted for, more than its quartile spread %.3f ms",
			gapMs, q[1], spread)
	}
	return gapMs, spread, nil
}
