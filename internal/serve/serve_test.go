package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"partree/internal/core"
	"partree/internal/dataset"
	"partree/internal/flat"
	"partree/internal/quest"
	"partree/internal/serve"
	"partree/internal/tree"
)

// modelJSON trains a small tree on function-2 data and serializes it.
func modelJSON(t testing.TB, seed uint64) []byte {
	t.Helper()
	return treeJSON(t, modelTree(t, seed))
}

// modelTree trains the binary tree modelJSON serializes.
func modelTree(t testing.TB, seed uint64) *tree.Tree {
	t.Helper()
	d, err := quest.Generate(quest.Config{Function: 2, Seed: seed}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	return tree.BuildHunt(d, tree.Options{Binary: true, MaxDepth: 8})
}

func treeJSON(t testing.TB, tr *tree.Tree) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tree.WriteJSON(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// recordsJSON renders rows of d as the request's record objects.
func recordsJSON(d *dataset.Dataset, lo, hi int) []map[string]interface{} {
	out := make([]map[string]interface{}, 0, hi-lo)
	for i := lo; i < hi; i++ {
		rec := make(map[string]interface{}, d.Schema.NumAttrs())
		for a, attr := range d.Schema.Attrs {
			if attr.Kind == dataset.Categorical {
				rec[attr.Name] = attr.Values[d.Cat[a][i]]
			} else {
				rec[attr.Name] = d.Cont[a][i]
			}
		}
		out = append(out, rec)
	}
	return out
}

func predictBody(t *testing.T, model string, records []map[string]interface{}) *bytes.Reader {
	t.Helper()
	b, err := json.Marshal(map[string]interface{}{"model": model, "records": records})
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(b)
}

type predictReply struct {
	Model      string   `json:"model"`
	Generation int      `json:"generation"`
	N          int      `json:"n"`
	Labels     []string `json:"labels"`
	ClassIDs   []int32  `json:"class_ids"`
}

func newTestServer(t *testing.T) (*serve.Server, *httptest.Server, *dataset.Dataset) {
	t.Helper()
	srv := serve.New(serve.Config{MaxBatch: 500, Workers: 4})
	t.Cleanup(srv.Close)
	if _, err := srv.Registry().Load("quest", bytes.NewReader(modelJSON(t, 1))); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	d, err := quest.Generate(quest.Config{Function: 2, Seed: 99}, 600)
	if err != nil {
		t.Fatal(err)
	}
	return srv, ts, d
}

// TestPredictEndpoint: tree files serve as one-member fused tables. A
// binary tree takes the step walk, a tree with per-node binned
// continuous tests the bounds-checked walk; both answer exactly what the
// pointer tree does, and the listing reports flat.Compile's shape.
func TestPredictEndpoint(t *testing.T) {
	srv, ts, d := newTestServer(t)
	train, err := quest.Generate(quest.Config{Function: 2, Seed: 1}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	o := core.Options{Tree: tree.Options{Binary: true, MaxDepth: 8}}
	binned := tree.BuildBFS(train, o.SerialOptions(train))
	if _, err := srv.Registry().Load("binned", bytes.NewReader(treeJSON(t, binned))); err != nil {
		t.Fatal(err)
	}
	stepWalkable := func(k tree.SplitKind) bool {
		return k == tree.Leaf || k == tree.ContBinary || k == tree.CatBinary
	}
	for _, c := range []struct {
		model string
		tr    *tree.Tree
		step  bool // every node kind is one the step walk takes
	}{
		{"quest", modelTree(t, 1), true},
		{"binned", binned, false},
	} {
		e := srv.Registry().Get(c.model)
		if got := !slices.ContainsFunc(e.Model.Kind, func(k tree.SplitKind) bool { return !stepWalkable(k) }); got != c.step {
			t.Fatalf("%s: step-walkable kinds %v, want %v", c.model, got, c.step)
		}
		resp, err := http.Post(ts.URL+"/v1/predict", "application/json",
			predictBody(t, c.model, recordsJSON(d, 0, 100)))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("%s: status %d: %s", c.model, resp.StatusCode, body)
		}
		var pr predictReply
		err = json.NewDecoder(resp.Body).Decode(&pr)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if pr.N != 100 || len(pr.Labels) != 100 || len(pr.ClassIDs) != 100 {
			t.Fatalf("%s: malformed reply: %+v", c.model, pr)
		}
		// Predictions must match the pointer tree the file was written from.
		for i := 0; i < 100; i++ {
			if want := c.tr.ClassifyRow(d, i); pr.ClassIDs[i] != want {
				t.Fatalf("%s: record %d: server predicts %d, tree %d", c.model, i, pr.ClassIDs[i], want)
			}
			if pr.Labels[i] != e.Schema().Classes[pr.ClassIDs[i]] {
				t.Fatalf("%s: record %d: label %q does not match class id %d", c.model, i, pr.Labels[i], pr.ClassIDs[i])
			}
		}
	}

	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Models []struct {
			Name   string `json:"name"`
			Kind   string `json:"kind"`
			Trees  int    `json:"trees"`
			Nodes  int    `json:"nodes"`
			Leaves int    `json:"leaves"`
		} `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	trees := map[string]*tree.Tree{"quest": modelTree(t, 1), "binned": binned}
	if len(list.Models) != len(trees) {
		t.Fatalf("listing has %d models, want %d", len(list.Models), len(trees))
	}
	for _, got := range list.Models {
		m, err := flat.Compile(trees[got.Name])
		if err != nil {
			t.Fatal(err)
		}
		if got.Kind != "tree" || got.Trees != 1 || got.Nodes != m.Len() || got.Leaves != m.Leaves() {
			t.Fatalf("%s listed as kind=%q trees=%d nodes=%d leaves=%d, want tree/1/%d/%d",
				got.Name, got.Kind, got.Trees, got.Nodes, got.Leaves, m.Len(), m.Leaves())
		}
	}
}

func TestPredictGuards(t *testing.T) {
	_, ts, d := newTestServer(t)
	post := func(body io.Reader) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/predict", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := post(strings.NewReader("{not json")); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage body: status %d", resp.StatusCode)
	}
	if resp := post(predictBody(t, "nope", recordsJSON(d, 0, 1))); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown model: status %d", resp.StatusCode)
	}
	if resp := post(predictBody(t, "quest", recordsJSON(d, 0, 501))); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch: status %d", resp.StatusCode)
	}
	if resp := post(predictBody(t, "quest", nil)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status %d", resp.StatusCode)
	}
	bad := recordsJSON(d, 0, 1)
	delete(bad[0], "salary")
	if resp := post(predictBody(t, "quest", bad)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing attribute: status %d", resp.StatusCode)
	}
	bad = recordsJSON(d, 0, 1)
	bad[0]["car"] = "made-up-make"
	if resp := post(predictBody(t, "quest", bad)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown categorical value: status %d", resp.StatusCode)
	}
	bad = recordsJSON(d, 0, 1)
	bad[0]["salary"] = "a string"
	if resp := post(predictBody(t, "quest", bad)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("non-numeric continuous value: status %d", resp.StatusCode)
	}
}

func TestHealthzMetricsAndListing(t *testing.T) {
	_, ts, d := newTestServer(t)
	if resp, err := http.Post(ts.URL+"/v1/predict", "application/json",
		predictBody(t, "quest", recordsJSON(d, 0, 10))); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
		Models int    `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.Models != 1 {
		t.Fatalf("healthz: %+v", health)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"dtserve_http_requests_total",
		"dtserve_pool_rows_total 10",
		`dtserve_model_rows_total{model="quest"} 10`,
		`dtserve_model_generation{model="quest"} 1`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}

	resp, err = http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Models []map[string]interface{} `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listing.Models) != 1 || listing.Models[0]["name"] != "quest" {
		t.Fatalf("listing: %+v", listing)
	}
}

// TestConcurrentPredictDuringHotSwap is the acceptance scenario: clients
// hammer POST /v1/predict while the model is hot-swapped repeatedly.
// Every request must succeed against a consistent model generation; run
// under -race this also proves the registry/engine synchronization.
func TestConcurrentPredictDuringHotSwap(t *testing.T) {
	_, ts, d := newTestServer(t)
	m1, m2 := modelJSON(t, 1), modelJSON(t, 2)
	records := recordsJSON(d, 0, 200)

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	maxGen := 1 + 6 // initial load + swaps below
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 15; iter++ {
				resp, err := http.Post(ts.URL+"/v1/predict", "application/json",
					predictBody(t, "quest", records))
				if err != nil {
					errs <- err
					return
				}
				var pr predictReply
				err = json.NewDecoder(resp.Body).Decode(&pr)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK || pr.N != len(records) {
					errs <- fmt.Errorf("status %d, n %d", resp.StatusCode, pr.N)
					return
				}
				if pr.Generation < 1 || pr.Generation > maxGen {
					errs <- fmt.Errorf("impossible generation %d", pr.Generation)
					return
				}
			}
		}()
	}
	// Hot-swap the model back and forth while the clients run.
	client := &http.Client{}
	for i := 0; i < 6; i++ {
		body := m1
		if i%2 == 0 {
			body = m2
		}
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/models/quest", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("swap %d: status %d", i, resp.StatusCode)
		}
		time.Sleep(5 * time.Millisecond)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestLoadModelRejectsHostileFiles: the registry must surface ReadJSON's
// validation errors, not register a broken model.
func TestLoadModelRejectsHostileFiles(t *testing.T) {
	_, ts, _ := newTestServer(t)
	for name, body := range map[string]string{
		"garbage":      "ceci n'est pas un modèle",
		"wrong-format": `{"format": "something-else", "version": 1}`,
	} {
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/models/evil", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Models []map[string]interface{} `json:"models"`
	}
	json.NewDecoder(resp.Body).Decode(&listing)
	resp.Body.Close()
	if len(listing.Models) != 1 {
		t.Fatalf("hostile load registered a model: %+v", listing)
	}
}

// TestGracefulShutdown starts a real listener, puts a request in flight,
// cancels the serve context mid-request, and requires both that the
// in-flight request completes successfully and that Serve returns only
// after the drain.
func TestGracefulShutdown(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 2, ShutdownGrace: 5 * time.Second})
	defer srv.Close()
	if _, err := srv.Registry().Load("quest", bytes.NewReader(modelJSON(t, 1))); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, l) }()
	url := "http://" + l.Addr().String()

	// A large batch keeps the request in flight across the cancel below.
	d, err := quest.Generate(quest.Config{Function: 2, Seed: 5}, 40000)
	if err != nil {
		t.Fatal(err)
	}
	body := predictBody(t, "quest", recordsJSON(d, 0, d.Len()))
	type result struct {
		status int
		n      int
		err    error
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Post(url+"/v1/predict", "application/json", body)
		if err != nil {
			resc <- result{err: err}
			return
		}
		var pr predictReply
		err = json.NewDecoder(resp.Body).Decode(&pr)
		resp.Body.Close()
		resc <- result{status: resp.StatusCode, n: pr.N, err: err}
	}()

	time.Sleep(20 * time.Millisecond) // let the request get in flight
	cancel()

	r := <-resc
	if r.err != nil {
		t.Fatalf("in-flight request dropped during shutdown: %v", r.err)
	}
	if r.status != http.StatusOK || r.n != d.Len() {
		t.Fatalf("in-flight request: status %d, n %d (want 200, %d)", r.status, r.n, d.Len())
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve returned error: %v", err)
	}
	// The listener is closed: new requests must be refused, not hang.
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after shutdown")
	}
}
