// Package serve is the model-serving layer: a named registry of compiled
// models with atomic hot-swap, and an HTTP JSON API over the batched
// prediction engine. It turns the repository from a training-only
// reproduction into the north-star serving system — load a tree-JSON
// model trained by cmd/dtree or a forest-JSON ensemble, POST record
// batches at it, swap in a retrained model under live traffic without
// dropping a request. Uploaded bodies are routed on their "format" field
// to the tree or forest reader; tree files compile to a one-member fused
// table, forest files to the merged *forest.Fused layout, and both serve
// through the same engine and the same walk.
//
// Endpoints (cmd/dtserve wires them to a listener):
//
//	POST /v1/predict          {"model": name, "records": [{attr: value, ...}]}
//	PUT  /v1/models/{name}    body = tree-JSON or forest-JSON model file; load or hot-swap
//	GET  /v1/models           registry listing
//	GET  /healthz             liveness + model count
//	GET  /metrics             registry and engine counters plus predict
//	                          latency quantiles, Prometheus text format
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"partree/internal/dataset"
	"partree/internal/forest"
	"partree/internal/predict"
	"partree/internal/tree"
)

// ErrBusy reports a model load rejected because another load for the same
// name is already in flight. Loads are serialized per name so that two
// concurrent swaps cannot interleave parse/compile work and race on the
// generation counter; callers should retry after a short backoff (the HTTP
// handler does this automatically).
var ErrBusy = errors.New("serve: a load for this model is already in flight")

// ErrBreakerOpen reports a model load rejected because the model's circuit
// breaker is open after repeated load failures. The last successfully
// loaded generation keeps serving; match with errors.Is and retry after
// the cooldown.
var ErrBreakerOpen = errors.New("serve: model load circuit breaker is open")

// BreakerOpenError carries the remaining cooldown of an open breaker.
// It matches ErrBreakerOpen under errors.Is.
type BreakerOpenError struct {
	Name       string
	RetryAfter time.Duration
}

func (e *BreakerOpenError) Error() string {
	return fmt.Sprintf("serve: model %q: load circuit breaker open for another %s", e.Name, e.RetryAfter.Round(time.Millisecond))
}

func (e *BreakerOpenError) Is(target error) bool { return target == ErrBreakerOpen }

// ErrDrainTimeout reports that graceful shutdown could not drain every
// in-flight request within the drain window and remaining connections were
// force-closed. The server is fully stopped when Serve returns this.
var ErrDrainTimeout = errors.New("serve: shutdown drain timed out; remaining connections force-closed")

// Entry is one registered model: the compiled fused table plus the
// engine serving it. A tree file compiles to a one-member table, a forest
// file to its members' merged one. Entries are immutable after
// registration; a hot-swap replaces the whole entry, so in-flight
// requests holding the old one finish against a consistent model.
type Entry struct {
	Name       string
	Model      *forest.Fused
	Engine     *predict.Engine
	Generation int // 1 on first load, +1 per swap
	LoadedAt   time.Time

	kind string // the model file's format: "tree" or "forest"
}

// Kind returns "tree" or "forest", the format of the loaded file.
func (e *Entry) Kind() string { return e.kind }

// Schema returns the schema the entry routes on.
func (e *Entry) Schema() *dataset.Schema { return e.Model.Schema }

// Trees returns the member count (1 for a single tree).
func (e *Entry) Trees() int { return e.Model.Trees() }

// Nodes returns the total compiled node count.
func (e *Entry) Nodes() int { return e.Model.Nodes() }

// Leaves returns the total compiled leaf count.
func (e *Entry) Leaves() int { return e.Model.Leaves() }

// breaker tracks consecutive load failures for one model name. While
// openUntil is in the future, loads for the name are rejected immediately;
// once it passes, the next load runs as a half-open probe (the per-name
// load serialization guarantees only one probe at a time). A successful
// load deletes the breaker; a failed probe re-opens it for another
// cooldown.
type breaker struct {
	fails     int
	openUntil time.Time
}

// RegistryStats are cumulative counters over the registry's lifetime.
type RegistryStats struct {
	Loads        int64 // successful loads and hot-swaps
	LoadFailures int64 // loads rejected by parse/compile errors
	BusyRejects  int64 // loads rejected with ErrBusy
	BreakerTrips int64 // times a breaker (re-)opened
}

// Registry maps model names to entries. All methods are safe for
// concurrent use; Get is a read-lock lookup so predictions scale across
// clients while swaps are rare writers. Loads are serialized per name and
// guarded by a per-name circuit breaker: a corrupt hot-swap never
// replaces the entry (the last good generation keeps serving), and after
// BreakerThreshold consecutive failures further loads fail fast with
// ErrBreakerOpen until the cooldown admits a half-open probe.
type Registry struct {
	pool *predict.Pool

	// BreakerThreshold consecutive load failures open a model's breaker;
	// 0 means the default of 3. BreakerCooldown is how long an open
	// breaker rejects loads before admitting a probe; 0 means the default
	// of 5s. Set both before serving traffic.
	BreakerThreshold int
	BreakerCooldown  time.Duration

	mu       sync.RWMutex
	models   map[string]*Entry
	loading  map[string]bool
	breakers map[string]*breaker
	degraded map[string]string
	stats    RegistryStats
}

// NewRegistry returns an empty registry whose engines run on pool.
func NewRegistry(pool *predict.Pool) *Registry {
	return &Registry{
		pool:     pool,
		models:   make(map[string]*Entry),
		loading:  make(map[string]bool),
		breakers: make(map[string]*breaker),
		degraded: make(map[string]string),
	}
}

// SetDegraded records that name could not be (re)loaded from its source —
// e.g. the model file failed its checksum at boot — while the server keeps
// running. The mark is advisory: whatever entry is currently registered
// (possibly none) keeps serving, /healthz reports status "degraded", and a
// later successful Load of the name clears it.
func (g *Registry) SetDegraded(name, reason string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.degraded[name] = reason
}

// Degraded returns a copy of the degraded-model marks (name → reason).
func (g *Registry) Degraded() map[string]string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make(map[string]string, len(g.degraded))
	for k, v := range g.degraded {
		out[k] = v
	}
	return out
}

func (g *Registry) threshold() int {
	if g.BreakerThreshold > 0 {
		return g.BreakerThreshold
	}
	return 3
}

func (g *Registry) cooldown() time.Duration {
	if g.BreakerCooldown > 0 {
		return g.BreakerCooldown
	}
	return 5 * time.Second
}

// Stats returns a snapshot of the registry's counters.
func (g *Registry) Stats() RegistryStats {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.stats
}

// Load parses a tree-JSON or forest-JSON model from r (dispatching on the
// document's "format" field), compiles it, and registers (or atomically
// replaces) it under name. The swap is the single map write;
// requests observe either the old entry or the new one, never a mix.
// Returns ErrBusy if another load for name is in flight and ErrBreakerOpen
// (a *BreakerOpenError) if the name's circuit breaker is open. On any
// error the previously registered entry, if one exists, keeps serving.
func (g *Registry) Load(name string, r io.Reader) (*Entry, error) {
	if name == "" {
		return nil, fmt.Errorf("serve: empty model name")
	}
	if err := g.beginLoad(name); err != nil {
		return nil, err
	}
	e, err := g.compile(name, r)
	g.endLoad(name, e, err)
	return e, err
}

// beginLoad claims the per-name load slot, or reports why it cannot run.
func (g *Registry) beginLoad(name string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.loading[name] {
		g.stats.BusyRejects++
		return fmt.Errorf("serve: model %q: %w", name, ErrBusy)
	}
	if b := g.breakers[name]; b != nil && b.fails >= g.threshold() {
		if rem := time.Until(b.openUntil); rem > 0 {
			return &BreakerOpenError{Name: name, RetryAfter: rem}
		}
		// Cooldown over: this load runs as the half-open probe.
	}
	g.loading[name] = true
	return nil
}

// compile does the expensive parse+compile work outside the registry
// lock. The body is buffered once to sniff its "format" envelope field,
// then handed to the matching hardened reader; a tree becomes a
// one-member forest, so both kinds compile to one fused table.
func (g *Registry) compile(name string, r io.Reader) (*Entry, error) {
	body, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("serve: reading model %q: %w", name, err)
	}
	var env struct {
		Format string `json:"format"`
	}
	// A sniff failure falls through with Format "" — the tree reader then
	// reports the malformed document with its own diagnostics.
	_ = json.Unmarshal(body, &env)
	kind, f := "forest", (*forest.Forest)(nil)
	if env.Format == forest.ModelFormat {
		f, err = forest.ReadJSON(bytes.NewReader(body))
	} else {
		kind = "tree"
		var t *tree.Tree
		if t, err = tree.ReadJSON(bytes.NewReader(body)); err == nil {
			f = &forest.Forest{Schema: t.Schema, Trees: []*tree.Tree{t}}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("serve: loading model %q: %w", name, err)
	}
	fz, err := forest.Compile(f)
	if err != nil {
		return nil, fmt.Errorf("serve: compiling model %q: %w", name, err)
	}
	return &Entry{
		Name:     name,
		Model:    fz,
		Engine:   predict.NewBatchEngine(g.pool, fz, fz.Schema),
		LoadedAt: time.Now(),
		kind:     kind,
	}, nil
}

// endLoad releases the per-name slot and either swaps the entry in (and
// closes the breaker) or records the failure (tripping the breaker once
// the threshold is reached; a failed half-open probe re-opens it).
func (g *Registry) endLoad(name string, e *Entry, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	delete(g.loading, name)
	if err != nil {
		g.stats.LoadFailures++
		b := g.breakers[name]
		if b == nil {
			b = &breaker{}
			g.breakers[name] = b
		}
		b.fails++
		if b.fails >= g.threshold() {
			b.openUntil = time.Now().Add(g.cooldown())
			g.stats.BreakerTrips++
		}
		return
	}
	delete(g.breakers, name)
	delete(g.degraded, name)
	g.stats.Loads++
	if old := g.models[name]; old != nil {
		e.Generation = old.Generation + 1
	} else {
		e.Generation = 1
	}
	g.models[name] = e
}

// Get returns the current entry for name, or nil.
func (g *Registry) Get(name string) *Entry {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.models[name]
}

// List returns the entries sorted by name.
func (g *Registry) List() []*Entry {
	g.mu.RLock()
	out := make([]*Entry, 0, len(g.models))
	for _, e := range g.models {
		out = append(out, e)
	}
	g.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of registered models.
func (g *Registry) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.models)
}

// Config bounds the server's resource use.
type Config struct {
	// MaxBatch rejects predict requests with more records (413). 0 means
	// the default of 100000.
	MaxBatch int
	// RequestTimeout bounds handling of one request (503 on expiry).
	// 0 means the default of 30s.
	RequestTimeout time.Duration
	// ShutdownGrace bounds the drain of in-flight requests after the
	// serve context is canceled; connections still open when it expires
	// are force-closed and Serve returns ErrDrainTimeout. 0 means the
	// default of 10s.
	ShutdownGrace time.Duration
	// Workers sizes the prediction pool; <= 0 means GOMAXPROCS.
	Workers int
	// MaxInflight bounds concurrently handled /v1/ requests; excess
	// requests are shed immediately with 429 and a Retry-After header
	// instead of queueing behind a saturated pool. 0 means the default of
	// 256; negative disables shedding.
	MaxInflight int
	// BreakerThreshold consecutive model-load failures open that model's
	// circuit breaker. 0 means the default of 3.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects loads with 503
	// before admitting a half-open probe. 0 means the default of 5s.
	BreakerCooldown time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 100000
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.ShutdownGrace <= 0 {
		c.ShutdownGrace = 10 * time.Second
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = 256
	}
	return c
}

// Server owns the registry, the prediction pool, and the HTTP handlers.
type Server struct {
	cfg      Config
	pool     *predict.Pool
	registry *Registry
	start    time.Time

	requests atomic.Int64
	errors   atomic.Int64
	sheds    atomic.Int64
	latency  *Hist // end-to-end /v1/predict handling latency
}

// New returns a server with an empty registry.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	pool := predict.NewPool(cfg.Workers)
	reg := NewRegistry(pool)
	reg.BreakerThreshold = cfg.BreakerThreshold
	reg.BreakerCooldown = cfg.BreakerCooldown
	return &Server{
		cfg:      cfg,
		pool:     pool,
		registry: reg,
		start:    time.Now(),
		latency:  NewHist(),
	}
}

// Latency exposes the predict latency histogram (cmd/dtserve prints a
// summary on shutdown; tests read quantiles directly).
func (s *Server) Latency() *Hist { return s.latency }

// Sheds returns the number of requests rejected by the concurrency
// limiter.
func (s *Server) Sheds() int64 { return s.sheds.Load() }

// Registry exposes the model registry (cmd/dtserve preloads models into
// it; tests drive hot-swaps through it).
func (s *Server) Registry() *Registry { return s.registry }

// Close stops the prediction pool. Call only after the HTTP server has
// fully shut down (no predict request may be in flight).
func (s *Server) Close() { s.pool.Close() }

// Handler returns the routed HTTP handler. The API routes are wrapped,
// outermost first, in the concurrency limiter (shedding excess load with
// 429 before it queues) and the request timeout. /healthz and /metrics
// bypass both wrappers so probes stay cheap even when the server sheds.
func (s *Server) Handler() http.Handler {
	api := http.NewServeMux()
	api.HandleFunc("POST /v1/predict", s.handlePredict)
	api.HandleFunc("PUT /v1/models/{name}", s.handleLoadModel)
	api.HandleFunc("GET /v1/models", s.handleListModels)

	root := http.NewServeMux()
	root.HandleFunc("GET /healthz", s.handleHealthz)
	root.HandleFunc("GET /metrics", s.handleMetrics)
	root.Handle("/v1/", s.limited(http.TimeoutHandler(s.counted(api), s.cfg.RequestTimeout, "request timed out\n")))
	return root
}

// limited admits at most MaxInflight concurrent requests into h; the rest
// are shed with 429 + Retry-After so a burst degrades to fast rejections
// instead of a growing queue of requests that will time out anyway.
func (s *Server) limited(h http.Handler) http.Handler {
	if s.cfg.MaxInflight < 0 {
		return h
	}
	sem := make(chan struct{}, s.cfg.MaxInflight)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case sem <- struct{}{}:
			defer func() { <-sem }()
			h.ServeHTTP(w, r)
		default:
			s.sheds.Add(1)
			s.requests.Add(1)
			s.errors.Add(1)
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests,
				"server at capacity (%d requests in flight)", s.cfg.MaxInflight)
		}
	})
}

// counted wraps h with the request/error counters.
func (s *Server) counted(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		sw := &statusWriter{ResponseWriter: w}
		h.ServeHTTP(sw, r)
		if sw.status >= 400 {
			s.errors.Add(1)
		}
	})
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

// Serve runs the HTTP server on l until ctx is canceled, then drains
// in-flight requests (bounded by ShutdownGrace) before returning. If the
// drain window expires with requests still in flight, the remaining
// connections are force-closed and Serve returns ErrDrainTimeout — the
// server never hangs past ShutdownGrace on a stuck client. The prediction
// pool stays open; call Close afterwards.
func (s *Server) Serve(ctx context.Context, l net.Listener) error {
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       s.cfg.RequestTimeout + 5*time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(l) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownGrace)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		hs.Close()
		if errors.Is(err, context.DeadlineExceeded) {
			return ErrDrainTimeout
		}
		return err
	}
	return nil
}

// ListenAndServe binds addr and calls Serve.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, l)
}

// predictRequest is the POST /v1/predict body.
type predictRequest struct {
	Model   string                   `json:"model"`
	Records []map[string]interface{} `json:"records"`
}

// predictResponse is the POST /v1/predict reply: per-record class labels
// and ids, in request order.
type predictResponse struct {
	Model      string   `json:"model"`
	Generation int      `json:"generation"`
	N          int      `json:"n"`
	Labels     []string `json:"labels"`
	ClassIDs   []int32  `json:"class_ids"`
	LatencyMS  float64  `json:"latency_ms"`
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req predictRequest
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if req.Model == "" {
		httpError(w, http.StatusBadRequest, "missing \"model\"")
		return
	}
	if len(req.Records) == 0 {
		httpError(w, http.StatusBadRequest, "empty \"records\"")
		return
	}
	if len(req.Records) > s.cfg.MaxBatch {
		httpError(w, http.StatusRequestEntityTooLarge,
			"batch of %d records exceeds the limit of %d", len(req.Records), s.cfg.MaxBatch)
		return
	}
	e := s.registry.Get(req.Model)
	if e == nil {
		httpError(w, http.StatusNotFound, "model %q not loaded", req.Model)
		return
	}
	start := time.Now()
	batch, err := decodeRecords(e.Schema(), req.Records)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	out := make([]int32, batch.Len())
	if err := e.Engine.PredictBatch(batch, out); err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	s.latency.Observe(ms)
	resp := predictResponse{
		Model:      e.Name,
		Generation: e.Generation,
		N:          batch.Len(),
		ClassIDs:   out,
		Labels:     make([]string, batch.Len()),
		LatencyMS:  ms,
	}
	for i, c := range out {
		resp.Labels[i] = e.Schema().Classes[c]
	}
	writeJSON(w, http.StatusOK, resp)
}

// loadRetries and loadBackoff shape the handler-side retry of ErrBusy:
// up to loadRetries extra attempts, sleeping loadBackoff·2^i plus full
// jitter between attempts (≈ 300ms worst case in total).
const loadRetries = 5
const loadBackoff = 5 * time.Millisecond

func (s *Server) handleLoadModel(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	// Buffer the body so a retried load can re-read it.
	body, err := io.ReadAll(r.Body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading model body: %v", err)
		return
	}
	var e *Entry
	delay := loadBackoff
	for attempt := 0; ; attempt++ {
		e, err = s.registry.Load(name, bytes.NewReader(body))
		if !errors.Is(err, ErrBusy) || attempt == loadRetries {
			break
		}
		time.Sleep(delay + time.Duration(rand.Int63n(int64(delay))))
		delay *= 2
	}
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, modelInfo(e))
	case errors.Is(err, ErrBusy):
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, ErrBreakerOpen):
		var boe *BreakerOpenError
		if errors.As(err, &boe) {
			w.Header().Set("Retry-After", fmt.Sprintf("%d", int(math.Ceil(boe.RetryAfter.Seconds()))))
		}
		httpError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		httpError(w, http.StatusBadRequest, "%v", err)
	}
}

func (s *Server) handleListModels(w http.ResponseWriter, r *http.Request) {
	entries := s.registry.List()
	out := make([]map[string]interface{}, 0, len(entries))
	for _, e := range entries {
		out = append(out, modelInfo(e))
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"models": out})
}

func modelInfo(e *Entry) map[string]interface{} {
	st := e.Engine.Stats()
	return map[string]interface{}{
		"name":       e.Name,
		"kind":       e.Kind(),
		"generation": e.Generation,
		"loaded_at":  e.LoadedAt.UTC().Format(time.RFC3339Nano),
		"trees":      e.Trees(),
		"nodes":      e.Nodes(),
		"leaves":     e.Leaves(),
		"classes":    e.Schema().Classes,
		"batches":    st.Batches,
		"rows":       st.Rows,
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := map[string]interface{}{
		"status":     "ok",
		"models":     s.registry.Len(),
		"uptime_sec": time.Since(s.start).Seconds(),
	}
	// A degraded model (checksum failure at preload, say) does not fail the
	// probe — the process is alive and the remaining models serve — but the
	// state is visible so operators notice the skipped model.
	if deg := s.registry.Degraded(); len(deg) > 0 {
		body["status"] = "degraded"
		body["degraded"] = deg
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	ps := s.pool.Stats()
	fmt.Fprintf(&b, "dtserve_uptime_seconds %g\n", time.Since(s.start).Seconds())
	fmt.Fprintf(&b, "dtserve_http_requests_total %d\n", s.requests.Load())
	fmt.Fprintf(&b, "dtserve_http_errors_total %d\n", s.errors.Load())
	fmt.Fprintf(&b, "dtserve_http_shed_total %d\n", s.sheds.Load())
	fmt.Fprintf(&b, "dtserve_models %d\n", s.registry.Len())
	rs := s.registry.Stats()
	fmt.Fprintf(&b, "dtserve_model_loads_total %d\n", rs.Loads)
	fmt.Fprintf(&b, "dtserve_model_load_failures_total %d\n", rs.LoadFailures)
	fmt.Fprintf(&b, "dtserve_model_load_busy_total %d\n", rs.BusyRejects)
	fmt.Fprintf(&b, "dtserve_breaker_trips_total %d\n", rs.BreakerTrips)
	deg := s.registry.Degraded()
	fmt.Fprintf(&b, "dtserve_models_degraded %d\n", len(deg))
	for _, name := range sortedKeys(deg) {
		fmt.Fprintf(&b, "dtserve_model_degraded{model=%q} 1\n", name)
	}
	fmt.Fprintf(&b, "dtserve_pool_workers %d\n", s.pool.Workers())
	fmt.Fprintf(&b, "dtserve_pool_batches_total %d\n", ps.Batches)
	fmt.Fprintf(&b, "dtserve_pool_rows_total %d\n", ps.Rows)
	fmt.Fprintf(&b, "dtserve_pool_busy_seconds_total %g\n", float64(ps.BusyNS)/1e9)
	for _, q := range []struct {
		label string
		q     float64
	}{{"0.5", 0.5}, {"0.95", 0.95}, {"0.99", 0.99}} {
		fmt.Fprintf(&b, "dtserve_predict_latency_ms{quantile=%q} %g\n", q.label, s.latency.Quantile(q.q))
	}
	fmt.Fprintf(&b, "dtserve_predict_latency_ms_count %d\n", s.latency.Count())
	fmt.Fprintf(&b, "dtserve_predict_latency_ms_sum %g\n", s.latency.SumMS())
	for _, e := range s.registry.List() {
		st := e.Engine.Stats()
		fmt.Fprintf(&b, "dtserve_model_generation{model=%q} %d\n", e.Name, e.Generation)
		fmt.Fprintf(&b, "dtserve_model_kind{model=%q,kind=%q} 1\n", e.Name, e.Kind())
		fmt.Fprintf(&b, "dtserve_model_trees{model=%q} %d\n", e.Name, e.Trees())
		fmt.Fprintf(&b, "dtserve_model_nodes{model=%q} %d\n", e.Name, e.Nodes())
		fmt.Fprintf(&b, "dtserve_model_batches_total{model=%q} %d\n", e.Name, st.Batches)
		fmt.Fprintf(&b, "dtserve_model_rows_total{model=%q} %d\n", e.Name, st.Rows)
		fmt.Fprintf(&b, "dtserve_model_wall_seconds_total{model=%q} %g\n", e.Name, float64(st.WallNS)/1e9)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	io.WriteString(w, b.String())
}

// decodeRecords converts JSON records (attribute name → value) into a
// columnar batch under the model's schema. Categorical values may be
// given by name (string) or by integer code; continuous values must be
// numbers. Every schema attribute must be present.
func decodeRecords(s *dataset.Schema, records []map[string]interface{}) (*dataset.Dataset, error) {
	d := dataset.New(s, len(records))
	rec := dataset.NewRecord(s)
	for ri, raw := range records {
		for a, attr := range s.Attrs {
			v, ok := raw[attr.Name]
			if !ok {
				return nil, fmt.Errorf("record %d: missing attribute %q", ri, attr.Name)
			}
			if attr.Kind == dataset.Categorical {
				code, err := categoricalCode(attr, v)
				if err != nil {
					return nil, fmt.Errorf("record %d: attribute %q: %w", ri, attr.Name, err)
				}
				rec.Cat[a] = code
			} else {
				f, ok := v.(float64)
				if !ok {
					return nil, fmt.Errorf("record %d: attribute %q: want a number, got %T", ri, attr.Name, v)
				}
				rec.Cont[a] = f
			}
		}
		rec.RID = int64(ri)
		d.Append(rec)
	}
	return d, nil
}

func categoricalCode(attr dataset.Attribute, v interface{}) (int32, error) {
	switch x := v.(type) {
	case string:
		code := attr.ValueIndex(x)
		if code < 0 {
			return 0, fmt.Errorf("unknown value %q", x)
		}
		return int32(code), nil
	case float64:
		code := int(x)
		if float64(code) != x || code < 0 || code >= attr.Cardinality() {
			return 0, fmt.Errorf("value code %v out of range 0..%d", x, attr.Cardinality()-1)
		}
		return int32(code), nil
	default:
		return 0, fmt.Errorf("want a value name or code, got %T", v)
	}
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func httpError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
