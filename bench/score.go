package main

import (
	"fmt"
	"time"

	"partree/internal/dataset"
	"partree/internal/forest"
	"partree/internal/predict"
	"partree/internal/quest"
	"partree/internal/tree"
)

const (
	scoreTrainRows = 10000
	scoreTrees     = 100
	scoreBatchRows = 100000
	scoreCheckRows = 2000
)

// scorer is the offline scoring path (dtree -load -flat): a fused forest
// behind the pooled batch engine, and the columnar batch it scores.
type scorer struct {
	f     *forest.Forest
	fz    *forest.Fused
	pool  *predict.Pool
	eng   *predict.Engine
	batch *dataset.Dataset
}

func (s *scorer) stop() {
	if s != nil {
		s.pool.Close()
	}
}

// setupScore trains and compiles the forest (from dataSeed), starts the
// worker pool and generates the batch (from -seed).
func setupScore(e *env, parent int) *scorer {
	s := &scorer{}
	id := e.rec.begin("quest.generate", parent, 0, 0)
	train, err := quest.Generate(quest.Config{Function: 9, Seed: dataSeed}, e.rows(scoreTrainRows))
	if err == nil {
		s.batch, err = quest.GenerateBlock(quest.Config{Function: 9, Seed: e.seed}, 1<<30, 1<<30+e.rows(scoreBatchRows))
	}
	e.rec.end(id)
	if err != nil {
		panic(err)
	}
	id = e.rec.begin("forest.train", parent, 0, 0)
	s.f, err = forest.Train(train, forest.Config{
		Trees: max(10, int(scoreTrees*min(1, e.scale))), Builder: "hunt", Seed: dataSeed, Bootstrap: true,
		Tree: tree.Options{Binary: true, MaxDepth: 6},
	})
	e.rec.end(id)
	if err != nil {
		panic(err)
	}
	id = e.rec.begin("forest.compile", parent, 0, 0)
	s.fz, err = forest.Compile(s.f)
	e.rec.end(id)
	if err != nil {
		panic(err)
	}
	s.pool = predict.NewPool(0)
	s.eng = predict.NewBatchEngine(s.pool, s.fz, s.fz.Schema)
	return s
}

// checkVotes compares the engine's output on the first rows of the batch
// with the member-by-member majority vote of the pointer trees (ties to the
// smallest class, as everywhere in the repository).
func (s *scorer) checkVotes(out []int32) error {
	votes := make([]int, s.f.Schema.NumClasses())
	for i := 0; i < min(scoreCheckRows, s.batch.Len()); i++ {
		clear(votes)
		for _, t := range s.f.Trees {
			votes[t.ClassifyRow(s.batch, i)]++
		}
		want := 0
		for c, v := range votes {
			if v > votes[want] {
				want = c
			}
		}
		if out[i] != int32(want) {
			return fmt.Errorf("row %d: engine class %d, member vote %d", i, out[i], want)
		}
	}
	return nil
}

func runScore(e *env) map[string]float64 {
	s, setupS := setupMedian(e, (*scorer).stop, func(parent int) *scorer { return setupScore(e, parent) })
	defer s.stop()
	n := s.batch.Len()
	out := make([]int32, n)
	e.op(s.eng.PredictBatch(s.batch, out)) // warm-up
	e.op(s.checkVotes(out))
	if e.rec != nil {
		return traceScore(e, s, out)
	}

	rss := startRSS()
	var latMS []float64
	var elapsed time.Duration // to the end of the last batch inside the window
	window := time.Duration(e.seconds * float64(time.Second))
	start := time.Now()
	for {
		t0 := time.Now()
		err := s.eng.PredictBatch(s.batch, out)
		end := time.Since(start)
		if end > window && len(latMS) > 0 {
			break
		}
		latMS = append(latMS, float64((end-t0.Sub(start)).Nanoseconds())/1e6)
		elapsed = end
		e.op(err)
	}
	e.op(s.checkVotes(out))
	e.count("forest.fused_nodes", float64(s.fz.Nodes()))
	e.note("%d batches of %d rows through %d trees in %.2f s", len(latMS), n, s.fz.Trees(), elapsed.Seconds())
	m := timedMetrics(e, latMS, float64(len(latMS)*n)/elapsed.Seconds())
	m["setup_s"], m["peak_rss_mb"] = setupS, rss.peakMB()
	return m
}

// traceScore is the traced run of score_forest100: the engine, the fused
// walk beneath it and one member's compiled walk, each called directly.
func traceScore(e *env, s *scorer, out []int32) map[string]float64 {
	rec := e.rec
	m := map[string]float64{}
	n := s.batch.Len()
	g := rec.total("quest.generate")
	tr := rec.total("forest.train")
	cp := rec.total("forest.compile")
	m["quest.generate_rows_per_s"] = rate(float64(e.rows(scoreTrainRows)+n), g)
	m["forest.train_s"] = tr.Seconds()
	m["forest.compile_ms"] = float64(cp.Nanoseconds()) / 1e6
	m["forest.fused_nodes"] = float64(s.fz.Nodes())

	small := s.batch.Slice(0, min(256, n))
	b256 := timeCalls(300, func() {
		if err := s.eng.PredictBatch(small, out); err != nil {
			panic(err)
		}
	})
	walk := timeCalls(300, func() { s.fz.PredictInto(small, out, 0, small.Len()) })
	m["predict.batch256_us"] = float64(b256.Nanoseconds()) / 1e3
	m["predict.pool_overhead_us"] = float64((b256 - walk).Nanoseconds()) / 1e3

	budget := time.Duration(e.seconds / 8 * float64(time.Second))
	m["flat.rows_per_s"] = throughput(n, budget, func() { s.fz.Members[0].PredictInto(s.batch, out, 0, n) })
	m["forest.fused_rows_per_s"] = throughput(n, budget, func() { s.fz.PredictInto(s.batch, out, 0, n) })

	// The engine over the whole batch, alternately without and with a span;
	// the traced calls also show the fused walk beneath, called directly.
	var plain, traced []float64
	sid := rec.begin("score", -1, 0, 0)
	start := time.Now()
	for rep := 0; len(traced) < 2 || time.Since(start).Seconds() < e.seconds/2; rep++ {
		id := -1
		if rep%2 == 1 {
			id = rec.begin("predict.batch", sid, 0, rep)
		}
		t0 := time.Now()
		err := s.eng.PredictBatch(s.batch, out)
		d := time.Since(t0).Seconds()
		e.op(err)
		if id < 0 {
			plain = append(plain, d)
			continue
		}
		rec.end(id)
		traced = append(traced, d)
		if len(traced) <= 2 {
			wid := rec.begin("forest.walk", id, 0, rep)
			s.fz.PredictInto(s.batch, out, 0, n)
			rec.end(wid)
		}
	}
	rec.end(sid)
	e.op(s.checkVotes(out))
	m["predict.batch_rows_per_s"] = float64(n) / median(plain)
	m["bench.trace_overhead_share"] = median(traced)/median(plain) - 1
	e.note("%d plain and %d traced batches of %d rows through %d trees", len(plain), len(traced), n, s.fz.Trees())
	return m
}
