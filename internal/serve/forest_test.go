package serve_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"partree/internal/forest"
	"partree/internal/quest"
	"partree/internal/serve"
	"partree/internal/tree"
)

// forestJSON trains a small bagged forest and serializes it.
func forestJSON(t *testing.T, trees int) []byte {
	t.Helper()
	d, err := quest.Generate(quest.Config{Function: 2, Seed: 4}, 1500)
	if err != nil {
		t.Fatal(err)
	}
	f, err := forest.Train(d, forest.Config{
		Trees:     trees,
		Seed:      17,
		Bootstrap: true,
		Tree:      tree.Options{Binary: true, MaxDepth: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := forest.WriteJSON(&buf, f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestServeForestModel: a forest file loads through the same registry
// path as a tree, serves /v1/predict with fused-vote answers, and reports
// its shape in the listing and metrics.
func TestServeForestModel(t *testing.T) {
	srv := serve.New(serve.Config{MaxBatch: 500, Workers: 2})
	t.Cleanup(srv.Close)
	if _, err := srv.Registry().Load("grove", bytes.NewReader(forestJSON(t, 5))); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	e := srv.Registry().Get("grove")
	if e.Kind() != "forest" || e.Trees() != 5 || e.Model == nil {
		t.Fatalf("forest entry malformed: kind=%s trees=%d", e.Kind(), e.Trees())
	}

	d, err := quest.Generate(quest.Config{Function: 2, Seed: 31}, 300)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json",
		predictBody(t, "grove", recordsJSON(d, 0, 200)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var pr predictReply
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if pr.N != 200 {
		t.Fatalf("n = %d", pr.N)
	}
	// Server answers must equal the fused forest evaluated directly on the
	// same rows (decode round trip: records went name->value->name).
	want := make([]int32, 200)
	e.Model.PredictInto(d, want, 0, 200)
	for i := 0; i < 200; i++ {
		if pr.ClassIDs[i] != want[i] {
			t.Fatalf("record %d: server predicts %d, fused forest %d", i, pr.ClassIDs[i], want[i])
		}
	}

	// Hot-swap the forest for a bigger one under the same name.
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/models/grove", bytes.NewReader(forestJSON(t, 7)))
	if err != nil {
		t.Fatal(err)
	}
	sresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(sresp.Body)
		t.Fatalf("swap status %d: %s", sresp.StatusCode, body)
	}
	e2 := srv.Registry().Get("grove")
	if e2.Generation != 2 || e2.Trees() != 7 {
		t.Fatalf("swap did not take: gen=%d trees=%d", e2.Generation, e2.Trees())
	}

	// Metrics expose the latency histogram and the per-model forest shape.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	metrics, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		`dtserve_predict_latency_ms{quantile="0.5"}`,
		`dtserve_predict_latency_ms{quantile="0.99"}`,
		"dtserve_predict_latency_ms_count 1",
		`dtserve_model_kind{model="grove",kind="forest"} 1`,
		`dtserve_model_trees{model="grove"} 7`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestLoadRejectsCorruptForest: a hostile forest body never replaces a
// serving entry.
func TestLoadRejectsCorruptForest(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 1})
	t.Cleanup(srv.Close)
	if _, err := srv.Registry().Load("grove", bytes.NewReader(forestJSON(t, 3))); err != nil {
		t.Fatal(err)
	}
	bad := []byte(`{"format":"partree-decision-forest","version":1,"vote":"weighted","weights":[-1,1],"members":[{},{}]}`)
	if _, err := srv.Registry().Load("grove", bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupt forest accepted")
	}
	if e := srv.Registry().Get("grove"); e == nil || e.Generation != 1 || e.Trees() != 3 {
		t.Fatal("corrupt load disturbed the serving entry")
	}
}
