// Package predict is the batched inference engine over compiled models,
// abstracted as Predictors: served models are fused tables
// (internal/forest; a single tree is a one-member one). A Pool owns a
// fixed set of worker goroutines — one per available CPU by default —
// that serve row shards; an Engine binds a Pool to one Predictor and
// exposes PredictBatch, which shards a columnar batch across the workers. Pools are model-agnostic and
// long-lived, so hot-swapping a model (the serving registry does this)
// creates a fresh Engine without tearing down or leaking worker
// goroutines.
//
// Both Pool and Engine keep always-on counters (batches, rows, busy and
// wall nanoseconds) in the spirit of the training-side observability
// layer: cheap enough to never turn off, exported through Stats and the
// serving /metrics endpoint.
package predict

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"partree/internal/dataset"
)

// minShard is the smallest number of rows worth dispatching to a worker;
// below it the per-shard synchronization dominates the row loop.
const minShard = 256

// Predictor is anything that classifies a contiguous row range of a
// columnar batch. Serving and dtree -flat hand it a *forest.Fused, one
// member for a tree and many for a forest; a per-tree *flat.Model
// satisfies it too. The engine shards batches over Predictors without
// knowing which; PredictInto must be safe for concurrent calls on
// disjoint [lo, hi) ranges.
type Predictor interface {
	PredictInto(d *dataset.Dataset, out []int32, lo, hi int)
}

// task is one contiguous row shard of one batch.
type task struct {
	pred   Predictor
	d      *dataset.Dataset
	out    []int32
	lo, hi int
	done   *sync.WaitGroup
}

// Pool is a reusable set of prediction workers shared by any number of
// Engines. It is safe for concurrent use; Close may only be called after
// every PredictBatch call has returned.
type Pool struct {
	tasks   chan task
	wg      sync.WaitGroup
	workers int

	batches atomic.Int64
	rows    atomic.Int64
	busyNS  atomic.Int64 // summed worker time across shards
}

// NewPool starts a pool with the given number of workers; workers <= 0
// means GOMAXPROCS.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{tasks: make(chan task, 4*workers), workers: workers}
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go p.work()
	}
	return p
}

func (p *Pool) work() {
	defer p.wg.Done()
	for t := range p.tasks {
		start := time.Now()
		t.pred.PredictInto(t.d, t.out, t.lo, t.hi)
		p.busyNS.Add(time.Since(start).Nanoseconds())
		t.done.Done()
	}
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// Close stops the workers and waits for them to drain. No PredictBatch
// call may be in flight or issued afterwards.
func (p *Pool) Close() {
	close(p.tasks)
	p.wg.Wait()
}

// Stats is a snapshot of engine or pool counters.
type Stats struct {
	Batches int64 // PredictBatch calls completed
	Rows    int64 // rows classified
	// WallNS is the summed wall-clock latency of the batches;
	// Rows/(WallNS/1e9) is the observed batch throughput.
	WallNS int64
	// BusyNS is the summed per-worker shard time (pool stats only); it
	// exceeds WallNS when shards of one batch run in parallel.
	BusyNS int64
}

// Throughput returns rows per second over the recorded wall time, or 0
// before any batch completed.
func (s Stats) Throughput() float64 {
	if s.WallNS <= 0 {
		return 0
	}
	return float64(s.Rows) / (float64(s.WallNS) / 1e9)
}

// Stats snapshots the pool-wide counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Batches: p.batches.Load(),
		Rows:    p.rows.Load(),
		BusyNS:  p.busyNS.Load(),
	}
}

// Engine binds a Pool to one Predictor, such as a fused table. Engines
// are cheap: a hot-swap builds a new Engine on the shared Pool. Safe for
// concurrent PredictBatch calls.
type Engine struct {
	pool   *Pool
	pred   Predictor
	schema *dataset.Schema

	batches atomic.Int64
	rows    atomic.Int64
	wallNS  atomic.Int64
}

// NewBatchEngine returns an engine sharding batches over pred, which
// classifies data laid out under schema: a *forest.Fused with its merged
// table's, or a *flat.Model with its Schema.
func NewBatchEngine(p *Pool, pred Predictor, schema *dataset.Schema) *Engine {
	if p == nil || pred == nil || schema == nil {
		panic("predict: NewBatchEngine requires a pool, a predictor and a schema")
	}
	return &Engine{pool: p, pred: pred, schema: schema}
}

// Schema returns the schema the engine's predictor routes on.
func (e *Engine) Schema() *dataset.Schema { return e.schema }

// PredictBatch classifies every row of d into out (len(out) must be at
// least d.Len()), sharding the rows across the pool's workers. The
// dataset must use the model's schema layout (same attribute count and
// kinds). Small batches run inline on the calling goroutine.
func (e *Engine) PredictBatch(d *dataset.Dataset, out []int32) error {
	n := d.Len()
	if len(out) < n {
		return fmt.Errorf("predict: output buffer holds %d rows, batch has %d", len(out), n)
	}
	if err := compatibleSchemas(e.schema, d.Schema); err != nil {
		return err
	}
	start := time.Now()
	shards := e.pool.workers * 2
	if max := (n + minShard - 1) / minShard; shards > max {
		shards = max
	}
	if shards <= 1 {
		e.pred.PredictInto(d, out, 0, n)
	} else {
		var done sync.WaitGroup
		done.Add(shards)
		for s := 0; s < shards; s++ {
			lo := s * n / shards
			hi := (s + 1) * n / shards
			e.pool.tasks <- task{pred: e.pred, d: d, out: out, lo: lo, hi: hi, done: &done}
		}
		done.Wait()
	}
	ns := time.Since(start).Nanoseconds()
	e.batches.Add(1)
	e.rows.Add(int64(n))
	e.wallNS.Add(ns)
	e.pool.batches.Add(1)
	e.pool.rows.Add(int64(n))
	return nil
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Batches: e.batches.Load(),
		Rows:    e.rows.Load(),
		WallNS:  e.wallNS.Load(),
	}
}

// compatibleSchemas verifies that data laid out under got can be routed
// by a model compiled under want: same attribute count and, per
// position, the same kind. Value names may differ (the server re-encodes
// through the model schema, so they match by construction there).
func compatibleSchemas(want, got *dataset.Schema) error {
	if got == nil {
		return fmt.Errorf("predict: batch has no schema")
	}
	if want.NumAttrs() != got.NumAttrs() {
		return fmt.Errorf("predict: batch has %d attributes, model expects %d", got.NumAttrs(), want.NumAttrs())
	}
	for i := range want.Attrs {
		if want.Attrs[i].Kind != got.Attrs[i].Kind {
			return fmt.Errorf("predict: attribute %d (%s) is %v in batch, model expects %v",
				i, want.Attrs[i].Name, got.Attrs[i].Kind, want.Attrs[i].Kind)
		}
	}
	return nil
}
