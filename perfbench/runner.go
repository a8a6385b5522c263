package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"resinfer"
	"resinfer/internal/dataset"
	"resinfer/internal/server"
)

// instance is one set-up: an index and the server serving it.
type instance struct {
	sx     *resinfer.ShardedIndex
	mx     *resinfer.MutableIndex
	walDir string
	addr   string
	stop   context.CancelFunc
	done   chan error
}

// setup builds the workload's index, enables annserve's default modes and
// starts the server, timing all three. With rec non-nil the server serves
// through the span-recording wrapper.
func (r *run) setup(c *corpus, tag string, rec *recorder) (*instance, time.Duration, error) {
	start := time.Now()
	opts := &resinfer.Options{Metric: resinfer.L2, Seed: r.seed}
	in := &instance{}
	var idx server.Searcher
	if r.w.ingest {
		// The interval policy keeps fsync time, which belongs to the
		// host's disk rather than to the program, off the ack path.
		sync, err := resinfer.ParseWALSync("interval")
		if err != nil {
			return nil, 0, err
		}
		in.walDir = r.walDir(tag)
		mx, err := resinfer.NewMutable(c.base, resinfer.HNSW, shards, &resinfer.MutableOptions{
			Index: opts, WALDir: in.walDir, WALSync: sync,
		})
		if err != nil {
			return nil, 0, err
		}
		in.mx = mx
		idx = mx
		if rec != nil {
			idx = tracedMutable{mx, rec}
		}
	} else {
		sx, err := resinfer.NewSharded(c.base, resinfer.HNSW, shards, &resinfer.ShardOptions{Index: opts})
		if err != nil {
			return nil, 0, err
		}
		in.sx = sx
		idx = sx
		if rec != nil {
			idx = tracedSharded{sx, rec}
		}
	}
	for _, m := range modes {
		var err error
		if in.mx != nil {
			err = in.mx.EnableWithTraining(m, c.train, opts)
		} else {
			err = in.sx.EnableWithTraining(m, c.train, opts)
		}
		if err != nil {
			in.close()
			return nil, 0, err
		}
	}
	if err := in.serve(idx); err != nil {
		in.close()
		return nil, 0, err
	}
	return in, time.Since(start), nil
}

func (in *instance) serve(idx server.Searcher) error {
	srv := server.New(idx, serverConfig())
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	in.done = make(chan error, 1)
	go func() { in.done <- srv.Serve(ctx, "127.0.0.1:0", func(a string) { ready <- a }) }()
	select {
	case in.addr = <-ready:
		in.stop = cancel
		return nil
	case err := <-in.done:
		cancel()
		return fmt.Errorf("server: %w", err)
	}
}

// close stops the server, waiting for it to drain, then releases the
// index and its WAL directory.
func (in *instance) close() {
	if in.stop != nil {
		in.stop()
		<-in.done
		in.stop = nil
	}
	if in.mx != nil {
		in.mx.Close()
	}
	if in.walDir != "" {
		_ = os.RemoveAll(in.walDir)
	}
}

func (in *instance) fan() fanIndex {
	if in.mx != nil {
		return in.mx
	}
	return in.sx
}

func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// endToEnd measures the workload untraced and sets the end-to-end
// metrics. The index and server are set up setupReps times; the last
// set-up serves the load.
func (r *run) endToEnd() error {
	c, err := generate(r.w, r.seed, r.seconds)
	if err != nil {
		return err
	}
	// index_mb is read across the first set-up: later ones start while
	// goroutines of the closed server may still hold the previous index.
	var in *instance
	var setups []float64
	before := heapAlloc()
	for rep := 0; rep < setupReps; rep++ {
		if rep > 0 {
			// Every set-up starts from a collected heap, as the first does.
			runtime.GC()
		}
		next, d, err := r.setup(c, fmt.Sprint(rep), nil)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		if rep == 0 {
			r.set("index_mb", float64(int64(heapAlloc())-int64(before))/(1<<20), "MB")
		}
		if rep < setupReps-1 {
			next.close()
			continue
		}
		in = next
	}
	defer in.close()
	r.set("setup_s", median(setups), "s")
	cl := newClient(in.addr, r.conns, nil)
	defer cl.close()
	ph, err := r.load(c, in, cl, nil)
	if err != nil {
		return err
	}
	r.set("search_qps", ph.qps, "1/s")
	lat := latencies(ph.open)
	r.set("search_p50_ms", percentile(lat, 50), "ms")
	r.set("recall_at_10", ph.recall, "ratio")
	r.set("ok_rate", 1-float64(r.res.Failed)/float64(r.res.Attempted), "ratio")
	// The tail is reported, not gated: see README.md.
	tail := tailPercentile(len(lat))
	upserts := 0
	if ph.ing != nil {
		upserts = len(ph.ing.paced) + len(ph.ing.closed)
	}
	tailMs := percentile(lat, tail)
	if math.IsInf(tailMs, 0) || math.IsNaN(tailMs) {
		tailMs = -1 // failed requests reach the tail; JSON has no infinity
	}
	info, err := json.Marshal(map[string]any{
		"open_loop_samples": len(lat), "tail_percentile": tail, "tail_ms": tailMs,
		"closed_loop_samples": len(ph.closed), "upserts": upserts,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(info))
	return nil
}

// phases is what one pass of the workload's load observed.
type phases struct {
	open, closed []outcome // measured searches
	qps          float64   // closed-loop answered searches per second
	qpsUntraced  float64   // traced run only: closed loop with recording off
	recall       float64
	ing          *ingester // ingest-mixed only
	closedStart  time.Time // traced ingest-mixed: when the upsert stream turned into a closed loop
	memtableMax  int
	walBytes     float64 // WAL bytes per record, last reading
}

// segments is how many times a pass alternates between its open-loop and
// closed-loop phases. Spreading both over the whole pass, and taking
// throughput as a median of short windows, keeps a burst of CPU stolen by
// the host from landing on one phase only.
const segments = 4

// load drives the workload: a warm-up, then segments rounds of an
// open-loop phase at the workload's fixed rate (latency) followed by a
// closed-loop phase (throughput). ingest-mixed adds an /upsert stream on
// one connection at a fixed rate. In a traced run (rec non-nil) spans are
// recorded after the warm-up, every closed-loop phase runs once more with
// recording off, and ingest-mixed ends with the upsert stream as a closed
// loop.
func (r *run) load(c *corpus, in *instance, cl *client, rec *recorder) (*phases, error) {
	reqs := make([]request, len(c.queries))
	for i, q := range c.queries {
		reqs[i] = newRequest(i, q, r.w.mode)
	}
	order := rand.New(rand.NewSource(r.seed)).Perm(len(c.queries))
	workers := r.conns
	ph := &phases{}
	bound := func() int { return r.w.n }
	if r.w.ingest {
		workers = max(1, r.conns-1)
		ph.ing = newIngester(c, r.w)
		bound = ph.ing.bound
		ph.ing.start(cl)
		defer ph.ing.stop()
	}
	send := func(i int) outcome {
		return cl.search(&reqs[order[i%len(order)]], bound)
	}
	var poll *poller
	if rec != nil && ph.ing != nil {
		poll = startPoller(cl, in.walDir)
	}
	closedLoop(workers, time.Second, send) // warm-up, not measured

	closedDur := r.seconds / 2 / segments
	openDur := r.seconds / 2 / segments
	if rec != nil {
		closedDur = r.seconds / 4 / segments
		openDur = r.seconds / 2 / segments
		rec.on.Store(true)
	}
	var rates, untracedRates []float64
	closed := func(rates *[]float64) []outcome {
		t := time.Now()
		outs := closedLoop(workers, closedDur, send)
		*rates = append(*rates, windowRates(outs, t, closedDur)...)
		r.tally(outs)
		return outs
	}
	for seg := 0; seg < segments; seg++ {
		// Both connections serve the open-loop searches, the paced upserts
		// included: the transport caps connections at conns, so an upsert
		// waits for a free one like any other request.
		open := openLoop(r.conns, int(r.w.rate*openDur.Seconds()), r.w.rate, send)
		r.tally(open)
		ph.open = append(ph.open, open...)
		ph.closed = append(ph.closed, closed(&rates)...)
		if rec != nil {
			rec.off()
			closed(&untracedRates)
			rec.on.Store(true)
		}
	}
	rec.off()
	ph.qps = median(rates)
	if rec != nil {
		ph.qpsUntraced = median(untracedRates)
	}
	if rec != nil && ph.ing != nil {
		// Ingest capacity: the upsert stream as a closed loop beside
		// closed-loop searches. Only the traced run measures it, last, so
		// the compaction backlog it leaves cannot reach a measured phase.
		ph.closedStart = time.Now()
		ph.ing.pacing.Store(false)
		r.tally(closedLoop(workers, r.seconds/4, send))
	}
	if poll != nil {
		ph.memtableMax, ph.walBytes = poll.stop()
	}
	if ph.ing == nil {
		ph.recall = recall(append(ph.open, ph.closed...), c.truth)
		r.checkRecall(ph.recall)
		return ph, nil
	}
	ph.ing.stop()
	r.tally(ph.ing.paced)
	r.tally(ph.ing.closed)
	for _, v := range ph.ing.violations {
		r.violate("%s", v)
	}
	rc, err := r.finalRecall(c, cl, ph.ing)
	if err != nil {
		return nil, err
	}
	ph.recall = rc
	r.checkRecall(rc)
	return ph, nil
}

func (r *run) checkRecall(rc float64) {
	if rc < r.w.floor {
		r.violate("recall@%d %.4f below the workload's floor %.2f", k, rc, r.w.floor)
	}
}

// finalRecall searches every query once the upsert stream has stopped
// and scores the answers against brute force over the final corpus: the
// base rows plus every acknowledged insert.
func (r *run) finalRecall(c *corpus, cl *client, ing *ingester) (float64, error) {
	truth, err := dataset.BruteForceKNN(ing.vecs, c.queries, k, 0)
	if err != nil {
		return 0, err
	}
	n := len(ing.vecs)
	outs := make([]outcome, len(c.queries))
	for qi, q := range c.queries {
		req := newRequest(qi, q, r.w.mode)
		outs[qi] = cl.search(&req, func() int { return n })
	}
	r.tally(outs)
	return recall(outs, truth), nil
}

// ingester runs the /upsert stream of ingest-mixed, one request at a
// time, each inserting the next stream vector as a new row. Requests are
// due at the workload's fixed upsert rate until pacing is switched off for
// good; then they are sent back to back until the stream runs out. It
// tracks the corpus the acknowledged upserts leave.
type ingester struct {
	stream     [][]float32
	vecs       [][]float32 // vector of every ID
	rate       float64
	paced      []outcome // timed from their due time
	closed     []outcome // timed from their send time
	violations []string
	issued     atomic.Int64 // rows acknowledged or in flight
	pacing     atomic.Bool
	quit       chan struct{}
	done       chan struct{}
	quitOnce   sync.Once
}

func newIngester(c *corpus, w workload) *ingester {
	ing := &ingester{
		stream: c.stream,
		vecs:   append([][]float32(nil), c.base...),
		rate:   w.upsertRate,
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	ing.pacing.Store(true)
	return ing
}

// bound is one past the highest ID the server may have assigned: every
// acknowledged row plus the insert in flight.
func (ing *ingester) bound() int { return int(ing.issued.Load()) }

func (ing *ingester) start(cl *client) {
	ing.issued.Store(int64(len(ing.vecs)))
	go func() {
		defer close(ing.done)
		t0 := time.Now()
		for i, v := range ing.stream {
			select {
			case <-ing.quit:
				return
			default:
			}
			pacing := ing.pacing.Load()
			due := t0.Add(time.Duration(float64(i) / ing.rate * float64(time.Second)))
			if d := time.Until(due); pacing && d > 0 {
				time.Sleep(d)
			}
			ing.issued.Add(1)
			sent := time.Now()
			if !pacing {
				due = sent
			}
			got, ok := cl.upsert(upsertBody(v))
			o := outcome{qi: i, lat: time.Since(due), done: time.Now(), late: sent.Sub(due), ok: ok}
			if pacing {
				ing.paced = append(ing.paced, o)
			} else {
				ing.closed = append(ing.closed, o)
			}
			if !ok {
				continue
			}
			if got != len(ing.vecs) {
				ing.violations = append(ing.violations,
					fmt.Sprintf("upsert %d: insert acked as id %d, want %d", i, got, len(ing.vecs)))
				return
			}
			ing.vecs = append(ing.vecs, v)
		}
		if ing.pacing.Load() {
			ing.violations = append(ing.violations, "paced upsert stream exhausted before the run ended")
		}
	}()
}

// stop ends the stream and waits for its last request.
func (ing *ingester) stop() {
	ing.quitOnce.Do(func() { close(ing.quit) })
	<-ing.done
}

// poller samples /stats while a traced ingest-mixed pass runs: the
// deepest memtable seen and the WAL's on-disk bytes per record.
type poller struct {
	quit, done chan struct{}
	memMax     int
	walBytes   float64
}

func startPoller(cl *client, walDir string) *poller {
	p := &poller{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.quit:
				return
			case <-tick.C:
			}
			var st server.StatsSnapshot
			if cl.getJSON("/stats", &st) != nil || st.Mutation == nil {
				continue
			}
			p.memMax = max(p.memMax, st.Mutation.MemtableRows)
			if b, err := walBytesPerRecord(walDir, st.Mutation.WALLastLSN); err == nil {
				p.walBytes = b
			}
		}
	}()
	return p
}

func (p *poller) stop() (int, float64) {
	close(p.quit)
	<-p.done
	return p.memMax, p.walBytes
}

// traced runs the workload once more with spans recorded around the
// calls into each layer, then probes the layers in-process, and sets the
// per-layer metrics.
func (r *run) traced() error {
	c, err := generate(r.w, r.seed, r.seconds)
	if err != nil {
		return err
	}
	rec := &recorder{}
	in, _, err := r.setup(c, "trace", rec)
	if err != nil {
		return err
	}
	defer in.close()
	cl := newClient(in.addr, r.conns, rec)
	defer cl.close()
	ph, err := r.load(c, in, cl, rec)
	if err != nil {
		return err
	}

	l := buildLedger(rec.recorded())
	gap, spread, lerr := l.check()
	if lerr != nil {
		r.violate("%v", lerr)
	}
	r.set("ledger.requests", float64(l.requests), "count")
	r.set("ledger.http_ms_p50", median(l.http), "ms")
	r.set("ledger.gap_ms", gap, "ms")
	r.set("ledger.http_iqr_ms", spread, "ms")
	r.set("client.decode_ms_p50", median(l.client), "ms")
	r.set("server.self_ms_p50", median(l.self), "ms")
	r.set("server.stages_ms_p50", median(l.stages), "ms")
	r.set("fanout.self_ms_p50", median(l.fanout), "ms")
	r.set("shard.cover_ms_p50", median(l.shard), "ms")
	r.set("trace.overhead_pct", 100*(ph.qpsUntraced-ph.qps)/ph.qpsUntraced, "%")

	var comps, pruned, dims float64
	var answered int
	for _, o := range append(ph.closed, ph.open...) {
		if !o.ok {
			continue
		}
		answered++
		comps += float64(o.stats.Comparisons)
		pruned += float64(o.stats.Pruned)
		dims += float64(o.stats.Comparisons) * o.stats.ScanRate * float64(len(c.queries[0]))
	}
	perQuery, perComp := math.Max(float64(answered), 1), math.Max(comps, 1)
	r.set("dco.comparisons_per_query", comps/perQuery, "count")
	r.set("dco.pruned_rate", pruned/perComp, "ratio")
	r.set("dco.scan_rate", dims/(perComp*float64(len(c.queries[0]))), "ratio")
	r.set("vec.bytes_per_query", 4*dims/perQuery, "B")
	var late []time.Duration
	for _, o := range ph.open {
		late = append(late, o.late)
	}
	r.set("loadgen.late_ms_p99", percentile(sortedMs(late), 99), "ms")

	var st server.StatsSnapshot
	if err := cl.getJSON("/stats", &st); err != nil {
		return err
	}
	expo, err := cl.get("/metrics")
	if err != nil {
		return err
	}
	r.set("server.queue_wait_ms_p99", st.QueueWaitP99Ms, "ms")
	r.set("server.batch_size_avg", st.AvgBatchSize, "count")
	sampled := promValue(expo, "resinfer_quality_sampled_total")
	r.set("quality.dropped_ratio", promValue(expo, "resinfer_quality_dropped_total")/math.Max(sampled, 1), "ratio")

	var compactions float64
	if st.Mutation != nil {
		compactions = float64(st.Mutation.Compactions)
	}
	r.set("memtable.rows_max", float64(ph.memtableMax), "count")
	r.set("compaction.count", compactions, "count")
	r.set("compaction.build_ms_p50", 1e3*promHistQuantile(expo, "resinfer_compaction_build_seconds", 0.5), "ms")
	r.set("wal.append_us_p99", 1e6*promHistQuantile(expo, "resinfer_wal_append_seconds", 0.99), "us")
	r.set("wal.bytes_per_vector", ph.walBytes, "B")
	var vps, upP99 float64
	if ing := ph.ing; ing != nil {
		// Over the time to the last answer: the stream may run out
		// before the phase ends.
		ok, last := 0, ph.closedStart
		for _, o := range ing.closed {
			if o.ok {
				ok++
			}
			if o.done.After(last) {
				last = o.done
			}
		}
		vps = float64(ok) / math.Max(last.Sub(ph.closedStart).Seconds(), 1e-9)
		upP99 = percentile(latencies(ing.paced), 99)
	}
	r.set("ingest.vps", vps, "1/s")
	r.set("ingest.upsert_p99_ms", upP99, "ms")

	mode := resinfer.Mode(r.w.mode)
	if mode == "" {
		mode = resinfer.Exact
	}
	fanUs, shardUs, allocs, speedup, err := probeFanout(in.fan(), c.queries, mode)
	if err != nil {
		return err
	}
	r.set("fanout.search_us_p50", fanUs, "us")
	r.set("shard.search_us_p50", shardUs, "us")
	r.set("fanout.allocs_per_query", allocs, "count")
	r.set("dco.speedup_vs_exact", speedup, "x")
	prepUs, cmpNs, err := probeDCO(c.base[:len(c.base)/shards], c.queries, r.seed)
	if err != nil {
		return err
	}
	r.set("dco.prepare_us", prepUs, "us")
	r.set("dco.compare_ns", cmpNs, "ns")

	return rec.write(filepath.Join(r.out, fmt.Sprintf("spans-%s-%d.jsonl", r.w.name, r.seed)), r.host)
}
