package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"partree/internal/quest"
	"partree/internal/serve"
)

// predictFixture is a server with one tree model, "quest", its class
// labels, and a JSON array of two valid records for it.
type predictFixture struct {
	h       http.Handler
	classes []string
	records string
}

func newPredictFixture(t testing.TB) predictFixture {
	t.Helper()
	srv := serve.New(serve.Config{MaxBatch: 500, Workers: 2})
	t.Cleanup(srv.Close)
	if _, err := srv.Registry().Load("quest", bytes.NewReader(modelJSON(t, 1))); err != nil {
		t.Fatal(err)
	}
	d, err := quest.Generate(quest.Config{Function: 2, Seed: 99}, 2)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := json.Marshal(recordsJSON(d, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	return predictFixture{h: srv.Handler(), classes: srv.Registry().Get("quest").Schema().Classes, records: string(recs)}
}

// post sends body to /v1/predict and returns the recorded reply.
func (f predictFixture) post(body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	f.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
	return rec
}

// statusCases pins the status /v1/predict answers for bodies whose
// outcome depends on the order of its checks or on encoding/json's
// leniency: a record that fails to decode is a 400 before the model is
// looked up, a null record decodes, a repeated key keeps its last value,
// keys match case-insensitively, bytes after the object are ignored,
// and the batch limit is checked before the model lookup. Any
// replacement request decoder must answer these the same way.
func statusCases(f predictFixture) []struct {
	name, body string
	status     int
} {
	oversized := "[" + strings.Repeat("{},", 500) + "{}]"
	return []struct {
		name, body string
		status     int
	}{
		{"number overflow under unknown model", `{"model":"nope","records":[{"x":1e400}]}`, 400},
		{"null record under unknown model", `{"model":"nope","records":[null]}`, 404},
		{"non-object record under unknown model", `{"model":"nope","records":[5]}`, 400},
		{"records before model", `{"records":` + f.records + `,"model":"quest"}`, 200},
		{"second model key", `{"model":"quest","records":` + f.records + `,"model":"nope"}`, 404},
		{"upper-case keys", `{"MODEL":"quest","Records":` + f.records + `}`, 200},
		{"trailing bytes", `{"model":"quest","records":` + f.records + `} trailing`, 200},
		{"oversized batch under unknown model", `{"model":"nope","records":` + oversized + `}`, 413},
	}
}

func TestPredictStatusPrecedence(t *testing.T) {
	f := newPredictFixture(t)
	for _, c := range statusCases(f) {
		if rec := f.post([]byte(c.body)); rec.Code != c.status {
			t.Errorf("%s: status %d, want %d: %s", c.name, rec.Code, c.status, rec.Body)
		}
	}
}

// FuzzPredictRequest: no request body panics the handler or gets an
// answer outside {200, 400, 404, 413}, and every 200 is a well-formed
// reply whose labels are the model's class names of its class ids.
func FuzzPredictRequest(f *testing.F) {
	fx := newPredictFixture(f)
	for _, c := range statusCases(fx) {
		f.Add([]byte(c.body))
	}
	f.Add([]byte(`{"model":"quest","records":` + fx.records + `}`))
	f.Add([]byte(`{"model":"quest","records":[]}`))
	f.Add([]byte(`{"model":"","records":[{}]}`))
	f.Add([]byte(`{not json`))
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := fx.post(body)
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge:
			return
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		var pr predictReply
		if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil {
			t.Fatalf("200 reply does not parse: %v: %s", err, rec.Body)
		}
		if pr.N != len(pr.ClassIDs) || pr.N != len(pr.Labels) {
			t.Fatalf("reply n=%d with %d class ids and %d labels", pr.N, len(pr.ClassIDs), len(pr.Labels))
		}
		for i, c := range pr.ClassIDs {
			if c < 0 || int(c) >= len(fx.classes) || pr.Labels[i] != fx.classes[c] {
				t.Fatalf("record %d: label %q for class id %d of %q", i, pr.Labels[i], c, fx.classes)
			}
		}
	})
}
