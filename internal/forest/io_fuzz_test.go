package forest

import (
	"bytes"
	"testing"

	"partree/internal/dataset"
	"partree/internal/quest"
	"partree/internal/tree"
)

// FuzzReadForestJSON: whatever bytes arrive, the forest reader either
// rejects them with an error or returns a forest that compiles and serves
// without panicking — the serving registry feeds uploaded model files
// straight into this path.
func FuzzReadForestJSON(f *testing.F) {
	// Seed with a real forest file, a single-member file, and envelope
	// fragments so the fuzzer starts inside the format.
	d, err := quest.Generate(quest.Config{Function: 2, Seed: 13}, 300)
	if err != nil {
		f.Fatal(err)
	}
	for _, trees := range []int{1, 3} {
		fr, err := Train(d, Config{Trees: trees, Seed: 8, Bootstrap: true, Tree: tree.Options{Binary: true, MaxDepth: 6}})
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, fr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(`{"format":"partree-decision-forest","version":1,"vote":"majority","members":[]}`))
	f.Add([]byte(`{"format":"partree-decision-forest","version":1,"vote":"weighted","weights":[1e308,1e308],"members":[{},{}]}`))
	f.Add([]byte(`{"format":"partree-decision-tree"}`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything accepted must compile and classify a synthetic row
		// without panicking, and the fused and naive walks must vote
		// alike. Zero values
		// exercise the out-of-range fallbacks (a categorical code 0 may
		// exceed a hostile schema's cardinality; the walk must still
		// terminate).
		fz, err := Compile(fr)
		if err != nil {
			return
		}
		row := dataset.New(fr.Schema, 1)
		row.Append(dataset.NewRecord(fr.Schema))
		fused, naive := make([]int32, 1), make([]int32, 1)
		fz.PredictInto(row, fused, 0, 1)
		fz.PredictNaiveInto(row, naive, 0, 1)
		if fused[0] < 0 || int(fused[0]) >= fr.Schema.NumClasses() {
			t.Fatalf("prediction %d outside class range", fused[0])
		}
		if fused[0] != naive[0] {
			t.Fatalf("fused %d, naive %d", fused[0], naive[0])
		}
	})
}
