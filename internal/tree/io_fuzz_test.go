package tree_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"partree/internal/dataset"
	"partree/internal/flat"
	"partree/internal/tree"
)

// weatherModelJSON serializes a tree trained on the weather table — the
// fuzz corpus's well-formed seed.
func weatherModelJSON(tb testing.TB, binary bool) []byte {
	tb.Helper()
	w := dataset.Weather()
	t := tree.BuildHunt(w, tree.Options{Binary: binary})
	var buf bytes.Buffer
	if err := tree.WriteJSON(&buf, t); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadJSON feeds arbitrary bytes to the model loader. The server
// loads operator-supplied model files through this path, so the
// invariant is: ReadJSON either returns a descriptive error or a tree
// that is fully usable — classifiable, re-encodable, and compilable to
// the flat serving form — without panicking.
func FuzzReadJSON(f *testing.F) {
	valid := weatherModelJSON(f, true)
	f.Add(valid)
	f.Add(weatherModelJSON(f, false))
	f.Add(valid[:len(valid)/2]) // truncated JSON
	f.Add([]byte(`{"format":"partree-decision-tree","version":1}`))
	f.Add([]byte(`{"format":"partree-decision-tree","version":1,` +
		`"schema":{"attrs":[{"name":"x","kind":"continuous"}],"classes":["a","b"]},` +
		`"root":{"kind":"leaf","class":0,"n":1,"dist":[1,0]}}`))
	// Hostile shapes the hardened decoder must reject: a mask with bits
	// beyond the attribute's cardinality, and a wrong child count.
	f.Add([]byte(strings.Replace(string(valid), `"mask": 1`, `"mask": 255`, 1)))
	f.Add([]byte(`{"format":"partree-decision-tree","version":1,` +
		`"schema":{"attrs":[{"name":"x","kind":"continuous"}],"classes":["a","b"]},` +
		`"root":{"kind":"cont-binary","attr":0,"thresh":1,"class":0,"n":2,"dist":[1,1],` +
		`"children":[{"kind":"leaf","class":0,"n":1,"dist":[1,0]}]}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := tree.ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever loaded must be safe to use end to end.
		_ = tr.Stats()
		rec := dataset.NewRecord(tr.Schema)
		_ = tr.Classify(&rec)
		var buf bytes.Buffer
		if err := tree.WriteJSON(&buf, tr); err != nil {
			t.Fatalf("re-encoding a loaded model failed: %v", err)
		}
		m, err := flat.Compile(tr)
		if err != nil {
			t.Fatalf("compiling a loaded model failed: %v", err)
		}
		row := dataset.New(tr.Schema, 1)
		row.Append(rec)
		if got, want := m.PredictFrom(row, 0, 0), tr.ClassifyRow(row, 0); got != want {
			t.Fatalf("flat predicts %d, pointer tree %d", got, want)
		}
	})
}

// mutateModel decodes the valid weather model, applies f, and re-encodes.
func mutateModel(t *testing.T, f func(m map[string]interface{})) []byte {
	t.Helper()
	var m map[string]interface{}
	if err := json.Unmarshal(weatherModelJSON(t, true), &m); err != nil {
		t.Fatal(err)
	}
	f(m)
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestReadJSONRejectsHostileModels pins the hardened validation paths
// with targeted malformed files and asserts descriptive errors.
func TestReadJSONRejectsHostileModels(t *testing.T) {
	// A standalone one-continuous-attribute model whose root chain is
	// deeper than MaxModelDepth.
	deepModel := func() []byte {
		node := map[string]interface{}{"kind": "leaf", "class": 0, "n": 0}
		for i := 0; i < tree.MaxModelDepth+2; i++ {
			node = map[string]interface{}{
				"kind": "cont-binary", "attr": 0, "thresh": 1.0,
				"class": 0, "n": 1, "dist": []int64{1, 0},
				"children": []interface{}{node, map[string]interface{}{"kind": "leaf", "class": 0, "n": 0}},
			}
		}
		body, err := json.Marshal(map[string]interface{}{
			"format": "partree-decision-tree", "version": 1,
			"schema": map[string]interface{}{
				"attrs":   []interface{}{map[string]interface{}{"name": "x", "kind": "continuous"}},
				"classes": []interface{}{"a", "b"},
			},
			"root": node,
		})
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	cases := []struct {
		name    string
		body    []byte
		wantErr string
	}{
		{
			"absurd depth",
			deepModel(),
			"deeper than",
		},
		{
			"class out of range",
			mutateModel(t, func(m map[string]interface{}) {
				m["root"].(map[string]interface{})["class"] = 99
			}),
			"class 99 out of range",
		},
		{
			"negative case count",
			mutateModel(t, func(m map[string]interface{}) {
				m["root"].(map[string]interface{})["n"] = -4
			}),
			"negative case count",
		},
		{
			"dist wrong arity",
			mutateModel(t, func(m map[string]interface{}) {
				m["root"].(map[string]interface{})["dist"] = []int64{1, 2, 3}
			}),
			"distribution has 3 classes",
		},
		{
			"kind/child mismatch",
			mutateModel(t, func(m map[string]interface{}) {
				root := m["root"].(map[string]interface{})
				root["children"] = root["children"].([]interface{})[:1]
			}),
			"children, want",
		},
		{
			"unknown kind",
			mutateModel(t, func(m map[string]interface{}) {
				m["root"].(map[string]interface{})["kind"] = "quantum"
			}),
			"unknown node kind",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tree.ReadJSON(bytes.NewReader(tc.body))
			if err == nil {
				t.Fatal("hostile model accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestReadJSONRejectsWideMasks covers the mask-overflow satellite: a
// cat-binary test on a 70-value attribute (index ≥ 64 would shift past
// the mask) and a mask with bits beyond the cardinality must both load
// as errors, not silently misroute.
func TestReadJSONRejectsWideMasks(t *testing.T) {
	values := make([]string, 70)
	children := make([]interface{}, 0, 2)
	for i := range values {
		values[i] = "v" + string(rune('A'+i%26)) + string(rune('0'+i/26))
	}
	for i := 0; i < 2; i++ {
		children = append(children, map[string]interface{}{"kind": "leaf", "class": 0, "n": 0})
	}
	wide := map[string]interface{}{
		"format":  "partree-decision-tree",
		"version": 1,
		"schema": map[string]interface{}{
			"attrs":   []interface{}{map[string]interface{}{"name": "wide", "kind": "categorical", "values": values}},
			"classes": []interface{}{"a", "b"},
		},
		"root": map[string]interface{}{
			"kind": "cat-binary", "attr": 0, "mask": 5,
			"class": 0, "n": 2, "dist": []int64{1, 1}, "children": children,
		},
	}
	body, err := json.Marshal(wide)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tree.ReadJSON(bytes.NewReader(body)); err == nil ||
		!strings.Contains(err.Error(), "mask can hold") {
		t.Fatalf("70-value cat-binary accepted: %v", err)
	}

	// A legal 3-value attribute whose mask sets bits far beyond the
	// cardinality: silently those values would all route left or right
	// depending on nothing in the schema, so the loader must refuse.
	wide["schema"].(map[string]interface{})["attrs"] = []interface{}{
		map[string]interface{}{"name": "narrow", "kind": "categorical", "values": []interface{}{"a", "b", "c"}},
	}
	wide["root"].(map[string]interface{})["mask"] = float64(1 << 40)
	body, err = json.Marshal(wide)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tree.ReadJSON(bytes.NewReader(body)); err == nil ||
		!strings.Contains(err.Error(), "bits beyond") {
		t.Fatalf("mask with out-of-range bits accepted: %v", err)
	}
}
