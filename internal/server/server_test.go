package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"resinfer"
	"resinfer/internal/dataset"
)

func testFixtures(t *testing.T) (*dataset.Dataset, [][]int) {
	t.Helper()
	ds, err := dataset.Generate(dataset.GenConfig{
		Name: "server-test", N: 2000, Dim: 32, Queries: 40,
		VE32: 0.7, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	gt, err := dataset.BruteForceKNN(ds.Data, ds.Queries, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	return ds, gt
}

func postJSON(t *testing.T, url string, body, out any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp
}

// The acceptance test of the serving subsystem: a loopback server over a
// sharded index answers concurrent single and batch searches, and its
// recall@10 is at least the unsharded index's recall on the same data
// (the shard merge is lossless for exact mode, so both are 1.0 here).
func TestServerShardedRecall(t *testing.T) {
	ds, gt := testFixtures(t)

	unsharded, err := resinfer.New(ds.Data, resinfer.Flat, nil)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := resinfer.NewSharded(ds.Data, resinfer.Flat, 3, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Baseline: unsharded exact recall, computed library-side.
	baseResults := make([][]int, len(ds.Queries))
	for qi, q := range ds.Queries {
		ns, err := unsharded.Search(q, 10, resinfer.Exact, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range ns {
			baseResults[qi] = append(baseResults[qi], n.ID)
		}
	}
	baseRecall := dataset.Recall(baseResults, gt, 10)

	srv := New(sharded, Config{BatchWindow: time.Millisecond, BatchMaxSize: 8})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Concurrent single searches over the micro-batching path.
	results := make([][]int, len(ds.Queries))
	var wg sync.WaitGroup
	errCh := make(chan error, len(ds.Queries))
	for qi := range ds.Queries {
		wg.Add(1)
		go func(qi int) {
			defer wg.Done()
			var out searchResponse
			resp := postJSON(t, ts.URL+"/search",
				searchRequest{Query: ds.Queries[qi], K: 10, Mode: "exact", Budget: 1},
				&out)
			if resp.StatusCode != http.StatusOK {
				errCh <- fmt.Errorf("query %d: status %d", qi, resp.StatusCode)
				return
			}
			for _, n := range out.Neighbors {
				results[qi] = append(results[qi], n.ID)
			}
		}(qi)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	recall := dataset.Recall(results, gt, 10)
	if recall < baseRecall {
		t.Fatalf("sharded serving recall %v < unsharded %v", recall, baseRecall)
	}
	if recall < 1.0 {
		t.Fatalf("exact sharded recall = %v, want lossless 1.0", recall)
	}

	// Batch endpoint returns the same answers.
	var bout batchSearchResponse
	resp := postJSON(t, ts.URL+"/search/batch",
		batchSearchRequest{Queries: ds.Queries, K: 10, Mode: "exact", Budget: 1},
		&bout)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	if len(bout.Results) != len(ds.Queries) {
		t.Fatalf("batch returned %d results, want %d", len(bout.Results), len(ds.Queries))
	}
	batchResults := make([][]int, len(bout.Results))
	for i, entry := range bout.Results {
		if entry.Error != "" {
			t.Fatalf("batch entry %d: %s", i, entry.Error)
		}
		for _, n := range entry.Neighbors {
			batchResults[i] = append(batchResults[i], n.ID)
		}
	}
	if r := dataset.Recall(batchResults, gt, 10); r < baseRecall {
		t.Fatalf("batch recall %v < unsharded %v", r, baseRecall)
	}

	// Counters moved and the micro-batcher actually batched.
	var stats StatsSnapshot
	getJSON(t, ts.URL+"/stats", &stats)
	wantQueries := int64(2 * len(ds.Queries))
	if stats.Queries != wantQueries {
		t.Fatalf("stats.queries = %d, want %d", stats.Queries, wantQueries)
	}
	if stats.Requests != int64(len(ds.Queries))+1 {
		t.Fatalf("stats.requests = %d", stats.Requests)
	}
	if stats.Comparisons == 0 {
		t.Fatal("stats.comparisons should be non-zero")
	}
	if stats.Batches == 0 || stats.BatchedQueries != int64(len(ds.Queries)) {
		t.Fatalf("micro-batcher did not run: batches=%d batched=%d", stats.Batches, stats.BatchedQueries)
	}
	if stats.LatencyP99Ms <= 0 || stats.LatencyP50Ms > stats.LatencyP99Ms {
		t.Fatalf("implausible latency quantiles: p50=%v p99=%v", stats.LatencyP50Ms, stats.LatencyP99Ms)
	}
	if stats.SIMDLevel != resinfer.SIMDLevel() || stats.SIMDLevel == "" {
		t.Fatalf("stats.simd_level = %q, want %q", stats.SIMDLevel, resinfer.SIMDLevel())
	}
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

func TestServerHealthz(t *testing.T) {
	ds, _ := testFixtures(t)
	// InnerProduct augments vectors internally (dim 33), but /healthz
	// must report the dimensionality clients send queries in (32).
	ix, err := resinfer.New(ds.Data[:200], resinfer.Flat,
		&resinfer.Options{Metric: resinfer.InnerProduct})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(ix, Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var h healthResponse
	getJSON(t, ts.URL+"/healthz", &h)
	if h.Status != "ok" || h.Points != 200 || h.Dim != 32 {
		t.Fatalf("healthz = %+v", h)
	}
	if len(h.Modes) == 0 {
		t.Fatal("healthz should list enabled modes")
	}

	// A query sized from /healthz must be accepted.
	var out searchResponse
	resp := postJSON(t, ts.URL+"/search",
		searchRequest{Query: ds.Queries[0][:h.Dim], K: 3}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz-sized query rejected: status %d", resp.StatusCode)
	}
}

func TestServerBadRequests(t *testing.T) {
	ds, _ := testFixtures(t)
	ix, err := resinfer.New(ds.Data[:200], resinfer.Flat, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(ix, Config{BatchWindow: -1}) // direct path
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		url  string
		body any
	}{
		{"empty query", "/search", searchRequest{}},
		{"bad mode", "/search", searchRequest{Query: ds.Queries[0], Mode: "cosine-walk"}},
		{"bad dim", "/search", searchRequest{Query: []float32{1, 2}}},
		{"mode not enabled", "/search", searchRequest{Query: ds.Queries[0], Mode: "ddc-res"}},
		{"empty batch", "/search/batch", batchSearchRequest{}},
		{"batch bad dim", "/search/batch", batchSearchRequest{Queries: [][]float32{{1}}}},
	}
	for _, tc := range cases {
		var out errorResponse
		resp := postJSON(t, ts.URL+tc.url, tc.body, &out)
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("%s: expected failure, got 200", tc.name)
		}
		if out.Error == "" {
			t.Fatalf("%s: missing error message", tc.name)
		}
	}
	var stats StatsSnapshot
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.Errors != int64(len(cases)) {
		t.Fatalf("stats.errors = %d, want %d", stats.Errors, len(cases))
	}
}

// holdExecutors occupies every executor slot of srv, as long-running
// searches would, so /search queries stay queued in the admission queue
// until the returned release frees the slots. Release is idempotent and
// also runs at test cleanup; register srv.Close and the test server's
// Close with t.Cleanup before calling this, so on a failed test the
// slots free before either waits on a queued query.
func holdExecutors(t *testing.T, srv *Server) (release func()) {
	t.Helper()
	for i := 0; i < cap(srv.sem); i++ {
		srv.sem <- struct{}{}
	}
	var once sync.Once
	release = func() {
		once.Do(func() {
			for i := 0; i < cap(srv.sem); i++ {
				<-srv.sem
			}
		})
	}
	t.Cleanup(release)
	return release
}

// waitQueueDepth waits until n queries sit in srv's admission queue.
func waitQueueDepth(t *testing.T, srv *Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for srv.metrics.queueDepth.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d, want %d", srv.metrics.queueDepth.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// A malformed query from one client must not poison a batch containing
// other clients' valid queries: the handler rejects it before admission.
func TestServerBadQueryDoesNotPoisonBatch(t *testing.T) {
	ds, _ := testFixtures(t)
	ix, err := resinfer.New(ds.Data[:300], resinfer.Flat, nil)
	if err != nil {
		t.Fatal(err)
	}
	// With the only executor busy the good query waits in a collecting
	// batch, which the bad one would join if it were admitted.
	srv := New(ix, Config{MaxConcurrent: 1, BatchMaxSize: 8})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	release := holdExecutors(t, srv)

	goodDone := make(chan int, 1)
	go func() {
		var out searchResponse
		resp := postJSON(t, ts.URL+"/search", searchRequest{Query: ds.Queries[0], K: 5}, &out)
		goodDone <- resp.StatusCode
	}()
	waitQueueDepth(t, srv, 1)
	var eout errorResponse
	resp := postJSON(t, ts.URL+"/search", searchRequest{Query: []float32{1, 2, 3}, K: 5}, &eout)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad-dim query: status %d", resp.StatusCode)
	}
	release()
	if code := <-goodDone; code != http.StatusOK {
		t.Fatalf("valid query failed alongside a malformed one: status %d", code)
	}
}

func TestServerCloseFailsQueued(t *testing.T) {
	ds, _ := testFixtures(t)
	ix, err := resinfer.New(ds.Data[:200], resinfer.Flat, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(ix, Config{MaxConcurrent: 1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	release := holdExecutors(t, srv) // a busy executor keeps the query queued

	done := make(chan int, 1)
	go func() {
		var out errorResponse
		resp := postJSON(t, ts.URL+"/search", searchRequest{Query: ds.Queries[0]}, &out)
		done <- resp.StatusCode
	}()
	waitQueueDepth(t, srv, 1)
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case code := <-done:
		// Either its batch got a slot within the drain grace (200) or it
		// failed with 503; both mean the server did not hang.
		if code != http.StatusOK && code != http.StatusServiceUnavailable {
			t.Fatalf("unexpected status %d", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued query hung after Close")
	}
	// Close returns once the collected batch has run on a freed slot.
	release()
	<-closed
}

// TestServerIdleDispatch: on an idle server a lone /search dispatches at
// once — the configured BatchWindow is not a wait.
func TestServerIdleDispatch(t *testing.T) {
	_, ts, queries := tracedServer(t, Config{BatchWindow: time.Second})
	start := time.Now()
	var out searchResponse
	resp := postJSON(t, ts.URL+"/search", searchRequest{Query: queries[0], K: 5, Trace: true}, &out)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if elapsed >= 500*time.Millisecond {
		t.Fatalf("lone query took %v against a 1s BatchWindow; an idle server must not wait", elapsed)
	}
	if out.Trace == nil {
		t.Fatal("no trace in response")
	}
	for _, st := range out.Trace.Stages {
		if st.Name == "queue_wait" {
			if st.DurUs >= 100_000 {
				t.Fatalf("queue wait %dus on an idle server, want < 100ms", st.DurUs)
			}
			return
		}
	}
	t.Fatalf("no queue_wait stage in %v", stageNames(out.Trace))
}

// TestServerBatchesWhileBusy: queries that arrive while the only executor
// is busy are grouped into batches once it frees, and all of them answer.
func TestServerBatchesWhileBusy(t *testing.T) {
	const n = 8
	srv, ts, queries := tracedServer(t, Config{MaxConcurrent: 1})
	release := holdExecutors(t, srv)

	codes := make(chan int, n)
	for i := 0; i < n; i++ {
		body, err := json.Marshal(searchRequest{Query: queries[i], K: 5})
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			resp, err := http.Post(ts.URL+"/search", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				codes <- 0
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	waitQueueDepth(t, srv, n)
	release()
	for i := 0; i < n; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("query answered %d, want 200", code)
		}
	}
	st := srv.Stats()
	if st.BatchedQueries != n || st.Batches >= n {
		t.Fatalf("batches=%d batched=%d: queries queued behind a busy executor must share batches",
			st.Batches, st.BatchedQueries)
	}
	if st.AvgBatchSize <= 1 {
		t.Fatalf("avg_batch_size %.2f, want > 1", st.AvgBatchSize)
	}
}
