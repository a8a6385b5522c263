package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// client drives one server over loopback HTTP through a transport that
// never opens more than conns connections; requests beyond that wait for
// a free one.
type client struct {
	base  string
	hc    *http.Client
	spans *recorder // in a traced run, each request records an "http" span
}

func newClient(addr string, conns int, spans *recorder) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{base: "http://" + addr, hc: &http.Client{Transport: tr, Timeout: time.Minute}, spans: spans}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// request is one pre-encoded /search, so the generators spend no CPU on
// request encoding while they measure: the plain body, the same body
// asking the server for its stage timeline (traced runs), and the query.
type request struct {
	qi           int
	plain, trace []byte
	vec          []float32
}

func newRequest(qi int, q []float32, mode string) request {
	enc := func(trace bool) []byte {
		req := map[string]any{"query": q, "k": k}
		if mode != "" {
			req["mode"] = mode
		}
		if trace {
			req["trace"] = true
		}
		b, err := json.Marshal(req)
		if err != nil {
			panic(err) // finite float32s and ints always encode
		}
		return b
	}
	return request{qi: qi, plain: enc(false), trace: enc(true), vec: q}
}

type searchStats struct {
	Comparisons int64   `json:"comparisons"`
	Pruned      int64   `json:"pruned"`
	ScanRate    float64 `json:"scan_rate"`
}

// serverStage is one stage of the timeline the server returns for a
// request that asks for it, in microseconds from the handler's start.
type serverStage struct {
	Name    string `json:"name"`
	StartUs int64  `json:"start_us"`
	DurUs   int64  `json:"dur_us"`
}

type searchResponse struct {
	Neighbors []struct {
		ID int `json:"id"`
	} `json:"neighbors"`
	Stats   searchStats `json:"stats"`
	Partial bool        `json:"partial"`
	Trace   *struct {
		Stages []serverStage `json:"stages"`
	} `json:"trace"`
}

// outcome is one request as the generator saw it.
type outcome struct {
	qi    int           // query index (search) or stream row (upsert)
	lat   time.Duration // from due time (open loop) or send time (closed loop) to response
	done  time.Time     // when the response arrived (closed loop)
	late  time.Duration // how late the request was sent past its due time
	ok    bool          // HTTP 200 and, for searches, a full (non-partial) answer
	bad   string        // a 200 search answer that breaks the output contract
	ids   []int
	stats searchStats
}

// search sends one /search and checks the answer: k unique IDs, each
// below idBound (read when the response arrives, so IDs of upserts acked
// meanwhile count as in range). While spans are recorded it asks the
// server for its stage timeline and records the stages with the round
// trip and the client's own reading and decoding of the response body.
func (c *client) search(req *request, idBound func() int) outcome {
	var rid int64
	qi := req.qi
	body := req.plain
	traced := c.spans.active()
	if traced {
		rid = c.spans.register(req.vec)
		body = req.trace
	}
	start := time.Now()
	resp, err := c.hc.Post(c.base+"/search", "application/json", bytes.NewReader(body))
	o := outcome{qi: qi}
	if err != nil {
		return o
	}
	headers := time.Now()
	var sr searchResponse
	derr := json.NewDecoder(resp.Body).Decode(&sr)
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	end := time.Now()
	if traced {
		c.spans.add(span{Name: "http", Query: rid, Start: start, End: end})
		c.spans.add(span{Name: "client_decode", Query: rid, Start: headers, End: end})
		if sr.Trace != nil {
			c.spans.stages(rid, sr.Trace.Stages)
		}
	}
	o.lat = end.Sub(start)
	if resp.StatusCode != http.StatusOK || sr.Partial {
		return o
	}
	o.ok = true
	if derr != nil {
		o.bad = fmt.Sprintf("query %d: undecodable 200 body: %v", qi, derr)
		return o
	}
	o.stats = sr.Stats
	o.ids = make([]int, len(sr.Neighbors))
	for i, nb := range sr.Neighbors {
		o.ids[i] = nb.ID
	}
	o.bad = checkIDs(qi, o.ids, idBound())
	return o
}

// checkIDs returns why ids is not a valid top-k answer, or "".
func checkIDs(qi int, ids []int, bound int) string {
	if len(ids) != k {
		return fmt.Sprintf("query %d: %d neighbors, want %d", qi, len(ids), k)
	}
	seen := make(map[int]bool, k)
	for _, id := range ids {
		if id < 0 || id >= bound {
			return fmt.Sprintf("query %d: id %d out of range [0,%d)", qi, id, bound)
		}
		if seen[id] {
			return fmt.Sprintf("query %d: duplicate id %d", qi, id)
		}
		seen[id] = true
	}
	return ""
}

// upsert sends one /upsert that asks the index to assign an ID, and
// returns the acknowledged ID.
func (c *client) upsert(body []byte) (int, bool) {
	resp, err := c.hc.Post(c.base+"/upsert", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	var ur struct {
		ID int `json:"id"`
	}
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&ur) != nil {
		return 0, false
	}
	return ur.ID, true
}

func upsertBody(v []float32) []byte {
	b, err := json.Marshal(map[string]any{"vector": v})
	if err != nil {
		panic(err)
	}
	return b
}

// getJSON fetches a GET endpoint into v.
func (c *client) getJSON(path string, v any) error {
	body, err := c.get(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

func (c *client) get(path string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, strconv.Quote(string(body)))
	}
	return body, nil
}

// closedLoop runs workers goroutines that each send their next request as
// soon as the previous one completes, for dur. send(i) issues the i-th
// request of the phase.
func closedLoop(workers int, dur time.Duration, send func(i int) outcome) []outcome {
	var next atomic.Int64
	deadline := time.Now().Add(dur)
	var mu sync.Mutex
	var out []outcome
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []outcome
			for time.Now().Before(deadline) {
				o := send(int(next.Add(1) - 1))
				o.done = time.Now()
				mine = append(mine, o)
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

// rateWindow is the width of the windows closed-loop throughput is
// counted in.
const rateWindow = 250 * time.Millisecond

// windowRates returns, for each whole rateWindow-wide window of
// [start, start+d), the rate at which answered requests completed in it:
// completions after the window's first, over the time from its first to
// its last. A window with fewer than two completions rates 0.
func windowRates(outs []outcome, start time.Time, d time.Duration) []float64 {
	type span struct {
		n           int
		first, last time.Time
	}
	ws := make([]span, int(d/rateWindow))
	for _, o := range outs {
		w := int(o.done.Sub(start) / rateWindow)
		if !o.ok || w < 0 || w >= len(ws) {
			continue
		}
		s := &ws[w]
		if s.n == 0 || o.done.Before(s.first) {
			s.first = o.done
		}
		if s.n == 0 || o.done.After(s.last) {
			s.last = o.done
		}
		s.n++
	}
	rates := make([]float64, len(ws))
	for i, s := range ws {
		if s.n >= 2 {
			rates[i] = float64(s.n-1) / s.last.Sub(s.first).Seconds()
		}
	}
	return rates
}

// openLoop sends n requests due at a fixed rate, the i-th at start+i/rate,
// from workers senders. A request is timed from its due time, so a stall
// also charges the requests it delayed; late records how far past its due
// time each request actually left the generator.
func openLoop(workers, n int, rate float64, send func(i int) outcome) []outcome {
	out := make([]outcome, n)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				o := send(i)
				o.late = sent.Sub(due)
				o.lat = time.Since(due)
				out[i] = o
			}
		}()
	}
	wg.Wait()
	return out
}
