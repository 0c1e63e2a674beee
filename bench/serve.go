package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"partree/internal/dataset"
	"partree/internal/flat"
	"partree/internal/quest"
	"partree/internal/serve"
	"partree/internal/sprint"
	"partree/internal/tree"
)

const (
	serveTrainRows = 50000
	serveBatch     = 256 // records per request
	serveBodies    = 8   // distinct prebuilt request bodies
	serveModel     = "m"
)

// served is an in-process dtserve: what cmd/dtserve does with its default
// flags, on a loopback port of the kernel's choosing.
type served struct {
	srv    *serve.Server
	tr     *tree.Tree
	path   string // the model file the registry loaded
	url    string
	cancel context.CancelFunc
	done   chan error
}

// stop drains the server and waits for it to end.
func (s *served) stop() {
	if s == nil {
		return
	}
	s.cancel()
	if err := <-s.done; err != nil {
		panic(fmt.Sprintf("serve: shutdown: %v", err))
	}
	s.srv.Close()
}

// setupServe trains the model, saves it, and starts a server that loads it:
// everything before the first request.
func setupServe(e *env, parent int, dir string) *served {
	s := &served{path: filepath.Join(dir, "model.json")}
	id := e.rec.begin("quest.generate", parent, 0, 0)
	train, err := quest.Generate(quest.Config{Function: 2, Seed: dataSeed}, e.rows(serveTrainRows))
	e.rec.end(id)
	if err != nil {
		panic(err)
	}
	id = e.rec.begin("sprint.build", parent, 0, 0)
	s.tr = sprint.Build(train, tree.Options{Binary: true})
	e.rec.end(id)
	id = e.rec.begin("tree.write_json", parent, 0, 0)
	f, err := os.Create(s.path)
	if err == nil {
		err = tree.WriteJSON(f, s.tr)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	e.rec.end(id)
	if err != nil {
		panic(err)
	}

	s.srv = serve.New(serve.Config{})
	id = e.rec.begin("serve.registry_load", parent, 0, 0)
	f, err = os.Open(s.path)
	if err == nil {
		_, err = s.srv.Registry().Load(serveModel, f)
		f.Close()
	}
	e.rec.end(id)
	if err != nil {
		panic(err)
	}
	id = e.rec.begin("serve.listen", parent, 0, 0)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	var ctx context.Context
	ctx, s.cancel = context.WithCancel(context.Background())
	s.done = make(chan error, 1)
	go func() { s.done <- s.srv.Serve(ctx, l) }()
	s.url = "http://" + l.Addr().String() + "/v1/predict"
	e.rec.end(id)
	return s
}

// predictBody renders rows [lo, hi) of d as a /v1/predict request body, the
// way cmd/dtload does: categorical values by name, continuous as numbers.
func predictBody(d *dataset.Dataset, lo, hi int) []byte {
	records := make([]map[string]any, 0, hi-lo)
	for i := lo; i < hi; i++ {
		rec := make(map[string]any, len(d.Schema.Attrs))
		for a, attr := range d.Schema.Attrs {
			if attr.Kind == dataset.Categorical {
				rec[attr.Name] = attr.Values[d.Cat[a][i]]
			} else {
				rec[attr.Name] = d.Cont[a][i]
			}
		}
		records = append(records, rec)
	}
	body, err := json.Marshal(map[string]any{"model": serveModel, "records": records})
	if err != nil {
		panic(err)
	}
	return body
}

// post sends one request and returns the status and, if keep is set, the
// reply body; otherwise the reply is read and dropped.
func post(client *http.Client, url string, body []byte, keep bool) (int, []byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if keep {
		reply, err := io.ReadAll(resp.Body)
		return resp.StatusCode, reply, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil, err
}

// sample is one request as its client saw it.
type sample struct {
	start, end time.Time
	ok         bool
}

// closedLoop runs clients closed-loop clients against url for warm + window:
// each posts its next prebuilt body the moment the previous reply is fully
// read. It returns the requests that completed inside the window. With a
// recorder, requests of the window's second half carry a span each.
func closedLoop(client *http.Client, url string, bodies [][]byte, clients int, warm, window time.Duration, rec *recorder, parent int) (in []sample, from, mid, to time.Time) {
	var stop, traced atomic.Bool
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; !stop.Load(); i++ {
				id := -1
				if traced.Load() {
					id = rec.begin("serve.http_request", parent, 100+c, i)
				}
				t0 := time.Now()
				status, _, err := post(client, url, bodies[i%len(bodies)], false)
				t1 := time.Now()
				if id >= 0 {
					rec.end(id)
				}
				per[c] = append(per[c], sample{start: t0, end: t1, ok: err == nil && status == http.StatusOK})
			}
		}(c)
	}
	time.Sleep(warm)
	from = time.Now()
	time.Sleep(window / 2)
	mid = time.Now()
	traced.Store(rec != nil)
	time.Sleep(window - window/2)
	to = time.Now()
	stop.Store(true)
	wg.Wait()
	for _, ss := range per {
		for _, s := range ss {
			if s.end.After(from) && !s.end.After(to) {
				in = append(in, s)
			}
		}
	}
	return in, from, mid, to
}

func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.end.Sub(s.start).Nanoseconds()) / 1e6
	}
	return out
}

func runServe(e *env) map[string]float64 {
	dir, err := os.MkdirTemp(e.outDir, "serve-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	s, setupS := setupMedian(e, (*served).stop, func(parent int) *served { return setupServe(e, parent, dir) })
	defer s.stop()

	// Request rows come from the workload seed, far beyond any training row
	// of the stream so that equal seeds do not replay the training set.
	rows, err := quest.GenerateBlock(quest.Config{Function: 2, Seed: e.seed}, 1<<30, 1<<30+serveBatch*serveBodies)
	if err != nil {
		panic(err)
	}
	bodies := make([][]byte, serveBodies)
	for b := range bodies {
		bodies[b] = predictBody(rows, b*serveBatch, (b+1)*serveBatch)
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConns: 2 * httpClients, MaxIdleConnsPerHost: 2 * httpClients}}
	defer client.CloseIdleConnections()

	// Every body once, checked against the pointer walk of the trained tree.
	var replyBytes []float64
	rec := dataset.NewRecord(rows.Schema)
	for b, body := range bodies {
		status, reply, err := post(client, s.url, body, true)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, reply)
		}
		var got struct {
			ClassIDs []int32 `json:"class_ids"`
		}
		if err == nil {
			err = json.Unmarshal(reply, &got)
		}
		if err == nil && len(got.ClassIDs) != serveBatch {
			err = fmt.Errorf("body %d: %d class ids for %d records", b, len(got.ClassIDs), serveBatch)
		}
		for i := 0; err == nil && i < serveBatch; i++ {
			rows.RowInto(b*serveBatch+i, &rec)
			if want := s.tr.Classify(&rec); got.ClassIDs[i] != want {
				err = fmt.Errorf("body %d record %d: served class %d, pointer walk %d", b, i, got.ClassIDs[i], want)
			}
		}
		e.op(err)
		replyBytes = append(replyBytes, float64(len(reply)))
	}

	if e.rec != nil {
		return traceServe(e, s, client, rows, bodies, median(replyBytes))
	}
	rss := startRSS()
	warm := time.Duration(min(2, e.seconds/5) * float64(time.Second))
	in, from, _, to := closedLoop(client, s.url, bodies, httpClients, warm, time.Duration(e.seconds*float64(time.Second)), nil, -1)
	elapsed := to.Sub(from)
	answered := 0
	for _, sm := range in {
		if sm.ok {
			answered += serveBatch
			e.op(nil)
		} else {
			e.op(fmt.Errorf("request failed or was refused"))
		}
	}
	e.count("serve.request_bytes", meanLen(bodies))
	e.note("%d requests of %d records from %d closed-loop clients in %.2f s; server counted %d sheds", len(in), serveBatch, httpClients, elapsed.Seconds(), s.srv.Sheds())
	m := timedMetrics(e, latencies(in), float64(answered)/elapsed.Seconds())
	m["setup_s"], m["peak_rss_mb"] = setupS, rss.peakMB()
	return m
}

// meanLen is the mean length of the request bodies, in bytes.
func meanLen(bodies [][]byte) float64 {
	total := 0
	for _, b := range bodies {
		total += len(b)
	}
	return float64(total) / float64(len(bodies))
}

// predictWire is the documented shape of a /v1/predict body; decoding a
// body into it with encoding/json is the floor under the handler's decode.
type predictWire struct {
	Model   string           `json:"model"`
	Records []map[string]any `json:"records"`
}

// timeCalls calls f n times and returns the median duration.
func timeCalls(n int, f func()) time.Duration {
	d := make([]float64, n)
	for i := range d {
		t0 := time.Now()
		f()
		d[i] = float64(time.Since(t0))
	}
	return time.Duration(median(d))
}

// throughput repeats f, which handles rows rows, for about d and returns
// rows per second.
func throughput(rows int, d time.Duration, f func()) float64 {
	start := time.Now()
	calls := 0
	for calls == 0 || time.Since(start) < d {
		f()
		calls++
	}
	return float64(calls*rows) / time.Since(start).Seconds()
}

// traceServe is the traced run of serve_tree1. It times the stages of
// set-up and of one request alone, by direct calls from the outermost layer
// inwards (handler, batch engine, compiled walk), then the same request
// over loopback with one client, then the two-client load.
func traceServe(e *env, s *served, client *http.Client, rows *dataset.Dataset, bodies [][]byte, replyBytes float64) map[string]float64 {
	rec := e.rec
	m := map[string]float64{}
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

	g := rec.total("quest.generate")
	m["quest.generate_rows_per_s"] = rate(float64(e.rows(serveTrainRows)), g)
	load := rec.total("serve.registry_load")
	m["serve.registry_load_ms"] = ms(load)
	// What Registry.Load does inside, called directly.
	loadID := -1
	for i, sp := range rec.spans {
		if sp.Name == "serve.registry_load" {
			loadID = i
		}
	}
	id := rec.begin("tree.model_read", loadID, 0, 0)
	f, err := os.Open(s.path)
	if err != nil {
		panic(err)
	}
	tr, err := tree.ReadJSON(f)
	f.Close()
	rec.end(id)
	if err != nil {
		panic(err)
	}
	id = rec.begin("flat.compile", loadID, 0, 0)
	if _, err := flat.Compile(tr); err != nil {
		panic(err)
	}
	rec.end(id)
	rd := rec.total("tree.model_read")
	cp := rec.total("flat.compile")
	m["tree.model_read_ms"] = ms(rd)
	m["flat.compile_ms"] = ms(cp)

	m["serve.request_bytes"] = meanLen(bodies)
	m["serve.response_bytes"] = replyBytes

	// One request, layer by layer.
	entry := s.srv.Registry().Get(serveModel)
	handler := s.srv.Handler()
	batch := rows.Slice(0, serveBatch)
	out := make([]int32, serveBatch)
	for b := 0; b < serveBodies; b++ {
		hid := rec.begin("serve.handler", -1, 0, b)
		handler.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(bodies[b])))
		rec.end(hid)
		did := rec.begin("serve.json_decode", hid, 0, b)
		var wire predictWire
		if err := json.Unmarshal(bodies[b], &wire); err != nil {
			panic(err)
		}
		rec.end(did)
		pid := rec.begin("predict.batch", hid, 0, b)
		if err := entry.Engine.PredictBatch(batch, out); err != nil {
			panic(err)
		}
		rec.end(pid)
		wid := rec.begin("flat.walk", pid, 0, b)
		entry.Model.PredictInto(batch, out, 0, serveBatch)
		rec.end(wid)
	}
	// Call counts and budgets shrink with -seconds so that a smoke run stays
	// short; at the default they are 300 handler calls and 0.3 s per rate.
	calls := max(30, int(25*e.seconds))
	budget := time.Duration(e.seconds / 40 * float64(time.Second))
	i := 0
	hp50 := timeCalls(calls, func() {
		w := httptest.NewRecorder()
		handler.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(bodies[i%serveBodies])))
		if w.Code != http.StatusOK {
			panic(fmt.Sprintf("handler replied %d", w.Code))
		}
		i++
	})
	m["serve.handler_p50_ms"] = ms(hp50)
	m["serve.json_decode_ms"] = ms(timeCalls(calls/3, func() {
		var wire predictWire
		if err := json.Unmarshal(bodies[i%serveBodies], &wire); err != nil {
			panic(err)
		}
		i++
	}))
	b256 := timeCalls(20*calls, func() {
		if err := entry.Engine.PredictBatch(batch, out); err != nil {
			panic(err)
		}
	})
	walk := timeCalls(20*calls, func() { entry.Model.PredictInto(batch, out, 0, serveBatch) })
	m["predict.batch256_us"] = float64(b256.Nanoseconds()) / 1e3
	m["predict.pool_overhead_us"] = float64((b256 - walk).Nanoseconds()) / 1e3

	// The engine and the compiled walk on a batch large enough to shard.
	big, err := quest.GenerateBlock(quest.Config{Function: 2, Seed: e.seed}, 1<<30, 1<<30+e.rows(scoreBatchRows))
	if err != nil {
		panic(err)
	}
	bigOut := make([]int32, big.Len())
	m["flat.rows_per_s"] = throughput(big.Len(), budget, func() { entry.Model.PredictInto(big, bigOut, 0, big.Len()) })
	m["predict.batch_rows_per_s"] = throughput(big.Len(), budget, func() {
		if err := entry.Engine.PredictBatch(big, bigOut); err != nil {
			panic(err)
		}
	})

	one, _, _, _ := closedLoop(client, s.url, bodies, 1, 200*time.Millisecond, time.Duration(e.seconds*0.15*float64(time.Second)), nil, -1)
	c1 := median(latencies(one))
	m["serve.http_conc1_p50_ms"] = c1
	m["serve.transport_p50_ms"] = c1 - ms(hp50)

	lid := rec.begin("serve.load", -1, 0, 0)
	warm := time.Duration(min(2, e.seconds/5) * float64(time.Second))
	in, from, mid, to := closedLoop(client, s.url, bodies, httpClients, warm, time.Duration(e.seconds/2*float64(time.Second)), rec, lid)
	rec.end(lid)
	errs, plain, traced := 0, 0, 0
	for _, sm := range in {
		if sm.ok {
			e.op(nil)
		} else {
			errs++
			e.op(fmt.Errorf("request failed or was refused"))
		}
		if sm.end.After(mid) {
			traced++
		} else {
			plain++
		}
	}
	m["serve.http_p99_ms"] = percentile(latencies(in), 0.99)
	m["serve.requests"] = float64(len(in))
	m["serve.sheds"] = float64(s.srv.Sheds())
	m["serve.errors"] = float64(errs)
	m["serve.server_window_p50_ms"] = s.srv.Latency().Quantile(0.5)
	// Requests per second of the untraced half against the traced half.
	m["bench.trace_overhead_share"] = (float64(plain)/mid.Sub(from).Seconds())/(float64(traced)/to.Sub(mid).Seconds()) - 1
	e.note("%d requests under load (%d untraced, %d traced), %d with one client; server window from %d observations", len(in), plain, traced, len(one), s.srv.Latency().Count())
	return m
}
