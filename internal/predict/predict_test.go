package predict_test

import (
	"sync"
	"testing"

	"partree/internal/dataset"
	"partree/internal/flat"
	"partree/internal/predict"
	"partree/internal/quest"
	"partree/internal/tree"
)

func compiled(t *testing.T, n int, seed uint64) (*flat.Model, *dataset.Dataset) {
	t.Helper()
	d, err := quest.Generate(quest.Config{Function: 2, Seed: seed}, n)
	if err != nil {
		t.Fatal(err)
	}
	tr := tree.BuildHunt(d.Slice(0, n/2), tree.Options{Binary: true, MaxDepth: 10})
	m, err := flat.Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	return m, d
}

// TestPredictBatchMatchesSerial: the sharded batch path must agree with
// row-at-a-time prediction on every row, for batch sizes around the
// inline/sharded threshold.
func TestPredictBatchMatchesSerial(t *testing.T) {
	m, d := compiled(t, 6000, 9)
	pool := predict.NewPool(4)
	defer pool.Close()
	eng := predict.NewBatchEngine(pool, m, m.Schema)
	for _, n := range []int{1, 17, 255, 256, 4096, d.Len()} {
		batch := d.Slice(0, n)
		out := make([]int32, n)
		if err := eng.PredictBatch(batch, out); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if want := m.PredictFrom(batch, i, 0); out[i] != want {
				t.Fatalf("n=%d row %d: batch %d, serial %d", n, i, out[i], want)
			}
		}
	}
	st := eng.Stats()
	if st.Batches != 6 || st.Rows == 0 {
		t.Fatalf("engine stats not recorded: %+v", st)
	}
	if ps := pool.Stats(); ps.Rows != st.Rows {
		t.Fatalf("pool rows %d != engine rows %d", ps.Rows, st.Rows)
	}
}

// TestPredictBatchConcurrent hammers one pool from many goroutines and
// two engines (the serving hot-swap shape) under the race detector.
func TestPredictBatchConcurrent(t *testing.T) {
	m1, d := compiled(t, 4000, 3)
	m2, _ := compiled(t, 4000, 4)
	pool := predict.NewPool(4)
	defer pool.Close()
	engines := []*predict.Engine{predict.NewBatchEngine(pool, m1, m1.Schema), predict.NewBatchEngine(pool, m2, m2.Schema)}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			eng := engines[g%2]
			out := make([]int32, d.Len())
			for iter := 0; iter < 5; iter++ {
				if err := eng.PredictBatch(d, out); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if ps := pool.Stats(); ps.Batches != 40 || ps.Rows != int64(40*d.Len()) {
		t.Fatalf("pool counters off: %+v", ps)
	}
}

// TestPredictBatchErrors covers the guard rails: short output buffer and
// mismatched schema.
func TestPredictBatchErrors(t *testing.T) {
	m, d := compiled(t, 1000, 5)
	pool := predict.NewPool(2)
	defer pool.Close()
	eng := predict.NewBatchEngine(pool, m, m.Schema)
	if err := eng.PredictBatch(d, make([]int32, d.Len()-1)); err == nil {
		t.Error("short output buffer accepted")
	}
	other := dataset.New(&dataset.Schema{
		Attrs:   []dataset.Attribute{{Name: "only", Kind: dataset.Continuous}},
		Classes: []string{"a", "b"},
	}, 0)
	if err := eng.PredictBatch(other, nil); err == nil {
		t.Error("mismatched schema accepted")
	}
}

// TestStatsThroughput sanity-checks the derived metric.
func TestStatsThroughput(t *testing.T) {
	s := predict.Stats{Rows: 2000, WallNS: 1e9}
	if got := s.Throughput(); got != 2000 {
		t.Fatalf("throughput %v, want 2000", got)
	}
	if (predict.Stats{}).Throughput() != 0 {
		t.Fatal("zero stats must report zero throughput")
	}
}
