// Package serve is the network front door of the repository: an HTTP/JSON
// daemon over the internal/session serving layer. Clients register graphs
// (by edge-list upload or generator spec, keyed by graph.Fingerprint),
// compile plans (keyed by decomp.PlanKey), and submit decompose requests
// that ride the session cache and singleflight; per-round RoundStats
// stream to clients over SSE through the session's observer fan-out, and
// the telemetry registry is exposed on /metrics next to expvar and pprof.
//
// A Server with a store path is durable: the completed-partition LRU (and
// the graph/plan registries) snapshot to disk periodically and on Close,
// and recover on boot behind an integrity hash — warm hits survive
// restarts (see internal/session/persistence.go and persist.go here).
//
// The API (full anatomy in DESIGN.md §12):
//
//	GET  /healthz                 liveness
//	GET  /v1/algorithms           registry + generator family names
//	POST /v1/graphs               register: JSON GraphSpec or edge-list body
//	GET  /v1/graphs               list registered graphs
//	GET  /v1/graphs/{fp}          one graph's metadata
//	POST /v1/plans                compile a PlanSpec
//	GET  /v1/plans                list compiled plans
//	GET  /v1/plans/{key}          one plan's metadata
//	POST /v1/decompose            execute (or serve cached); JSON result
//	POST /v1/decompose/stream     same, streaming round stats over SSE
//	POST /v1/pipeline             execute a typed stage DAG (internal/pipeline)
//	POST /v1/pipeline/stream      same, streaming per-stage events over SSE
//	GET  /v1/stats                session counters + SSE + store state
//	POST /v1/store/flush          force a snapshot now
//	GET  /metrics                 Prometheus text (plus /debug/vars, /debug/pprof/)
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"netdecomp/internal/decomp"
	"netdecomp/internal/graph"
	"netdecomp/internal/graphio"
	"netdecomp/internal/obs"
	"netdecomp/internal/resilience"
	"netdecomp/internal/session"
)

// Options configures a Server.
type Options struct {
	// Workers bounds the session's execution pool (0 = GOMAXPROCS).
	Workers int
	// CacheSize bounds the completed-result LRU (0 = session default 256).
	CacheSize int
	// StorePath enables the persistent result store at this file path.
	StorePath string
	// FlushInterval is the periodic snapshot cadence when StorePath is set
	// (0 = flush only on Close and explicit /v1/store/flush).
	FlushInterval time.Duration
	// Recorder is an externally owned telemetry recorder; nil builds a
	// private metrics registry.
	Recorder *obs.Recorder
	// Logf receives operational log lines (nil discards them).
	Logf func(format string, args ...any)
	// Resilience configures admission control, load shedding, and request
	// deadlines (see internal/resilience). The zero value disables every
	// limit — the pre-resilience serving behavior.
	Resilience resilience.Options
	// Injector, when set, injects deterministic faults into the session
	// runner and the snapshot writer — the chaos harness's hook.
	Injector *resilience.Injector
	// FlushRetry shapes the snapshot-flush retry ladder (zero = defaults:
	// 3 attempts, 25ms base, exponential with jitter).
	FlushRetry resilience.Backoff
}

// graphEntry is one registered graph. The graph is held behind the
// interface so an entry can be a flat CSR *graph.Graph (registration,
// recovery, post-compaction) or a *dyn.Overlay version produced by the
// mutation endpoint — both immutable once stored.
type graphEntry struct {
	g    graph.Interface
	info GraphInfo
}

// planEntry is one compiled plan.
type planEntry struct {
	pl   *decomp.Plan
	info PlanInfo
}

// Server is the HTTP serving daemon: session + registries + persistence.
// Create with New, mount Handler, and Close on shutdown (Close flushes the
// store).
type Server struct {
	sess *session.Session
	rec  *obs.Recorder
	logf func(string, ...any)

	mu     sync.RWMutex
	graphs map[uint64]*graphEntry
	plans  map[uint64]*planEntry
	// lastMutPrev/lastMutNew record the most recent mutation swap (old and
	// new fingerprint, API form) for /v1/stats — the serve-smoke round trip
	// asserts the flip here. Guarded by mu.
	lastMutPrev string
	lastMutNew  string

	store *persister // nil when persistence is disabled
	mux   *http.ServeMux

	gov      *resilience.Governor
	injector *resilience.Injector // nil without fault injection

	cRequests         *obs.Counter
	cErrors           *obs.Counter
	cSSEClients       *obs.Counter
	cSSEDropped       *obs.Counter
	cSSEDroppedEvents *obs.Counter
	cRejected         *obs.Counter
	cShed             *obs.Counter
	cTimeouts         *obs.Counter
	cClientCancels    *obs.Counter
	cPanics           *obs.Counter
	cMutBatches       *obs.Counter
	cMutApplied       *obs.Counter
	cMutNoops         *obs.Counter
	cMutCompact       *obs.Counter
	cMutInvalid       *obs.Counter
	gSSEActive        *obs.Gauge
	hRequest          *obs.Histogram
	hDecompose        *obs.Histogram
	hPipeline         *obs.Histogram

	closeOnce sync.Once
	closeErr  error
}

// New builds the server: starts the session, recovers the persistent
// store (when configured), and wires the routes. A corrupt snapshot is
// never fatal — the server logs it, reports it under /v1/stats, and boots
// cold; see persist.go.
func New(opts Options) *Server {
	rec := opts.Recorder
	if rec == nil {
		rec = obs.New(obs.NewRegistry(), nil)
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	sopts := []session.Option{session.WithRecorder(rec)}
	if opts.Workers > 0 {
		sopts = append(sopts, session.WithWorkers(opts.Workers))
	}
	if opts.CacheSize > 0 {
		sopts = append(sopts, session.WithCacheSize(opts.CacheSize))
	}
	if opts.Injector != nil {
		// The injector slots in as the session runner, under the cache and
		// dedup machinery — injected faults behave exactly like decomposer
		// faults, which is the point.
		sopts = append(sopts, session.WithRunner(session.Runner(opts.Injector.WrapRunner(nil))))
	}
	s := &Server{
		sess:     session.New(sopts...),
		rec:      rec,
		logf:     logf,
		graphs:   map[uint64]*graphEntry{},
		plans:    map[uint64]*planEntry{},
		gov:      resilience.NewGovernor(opts.Resilience, rec),
		injector: opts.Injector,
	}
	s.cRequests = rec.Counter("serve.requests")
	s.cErrors = rec.Counter("serve.errors")
	s.cSSEClients = rec.Counter("serve.sse.clients")
	s.cSSEDropped = rec.Counter("serve.sse.dropped_rounds")
	s.cSSEDroppedEvents = rec.Counter("serve.sse.dropped_events")
	s.cRejected = rec.Counter("serve.rejected")
	s.cShed = rec.Counter("serve.shed")
	s.cTimeouts = rec.Counter("serve.deadline.timeouts")
	s.cClientCancels = rec.Counter("serve.client_cancels")
	s.cPanics = rec.Counter("serve.handler.panics")
	s.cMutBatches = rec.Counter("serve.mutations.batches")
	s.cMutApplied = rec.Counter("serve.mutations.applied")
	s.cMutNoops = rec.Counter("serve.mutations.noops")
	s.cMutCompact = rec.Counter("serve.mutations.compactions")
	s.cMutInvalid = rec.Counter("serve.mutations.invalidated")
	s.gSSEActive = rec.Gauge("serve.sse.active")
	s.hRequest = rec.Histogram("serve.request.ns")
	s.hDecompose = rec.Histogram("serve.decompose.ns")
	s.hPipeline = rec.Histogram("serve.pipeline.ns")
	if opts.StorePath != "" {
		s.store = newPersister(s, opts.StorePath, opts.FlushInterval, opts.FlushRetry)
		s.store.recover()
		s.store.start()
	}
	s.routes()
	return s
}

// Session exposes the underlying serving session (telemetry, stats).
func (s *Server) Session() *session.Session { return s.sess }

// Registry returns the telemetry registry behind the server's recorder.
func (s *Server) Registry() *obs.Registry { return s.rec.Registry() }

// Close flushes the store (when configured) and shuts the session down.
// Idempotent; the first call's error sticks.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		if s.store != nil {
			s.closeErr = s.store.stop()
		}
		s.sess.Close()
	})
	return s.closeErr
}

// Flush forces a snapshot of the result store now, returning the number
// of entries written. It errors when persistence is disabled.
func (s *Server) Flush() (int, error) {
	if s.store == nil {
		return 0, errors.New("serve: no store configured")
	}
	return s.store.flush()
}

// Handler returns the server's HTTP handler (mount it on any listener).
func (s *Server) Handler() http.Handler { return s.mux }

// Governor exposes the admission authority (drain state, degradation,
// counters) — the daemon's shutdown path and tests drive it directly.
func (s *Server) Governor() *resilience.Governor { return s.gov }

// Injector returns the fault injector, nil when chaos is not configured.
func (s *Server) Injector() *resilience.Injector { return s.injector }

// StartDrain begins graceful shutdown: /readyz flips to 503 and every
// admission — queued waiters included — fails with 503. Already-admitted
// requests run to completion. Idempotent.
func (s *Server) StartDrain() { s.gov.StartDrain() }

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.gov.Draining() }

// Degraded reports whether heavy in-flight work has crossed the shed
// watermark (cold-miss work is being rejected; cache hits still serve).
func (s *Server) Degraded() bool { return s.gov.Degraded() }

// Drain performs the graceful-shutdown wait: stop admissions, give
// in-flight requests up to timeout to finish, and report how many
// completed versus how many are being abandoned. Call Close after to
// flush the store.
func (s *Server) Drain(timeout time.Duration) (completed, abandoned int) {
	s.gov.StartDrain()
	start := s.gov.InFlight()
	abandoned = s.gov.WaitIdle(timeout)
	return start - abandoned, abandoned
}

// routes wires the mux. Method-qualified patterns (Go 1.22 ServeMux) give
// 405s for free.
func (s *Server) routes() {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.instrument(s.handleHealth))
	mux.HandleFunc("GET /readyz", s.instrument(s.handleReady))
	mux.HandleFunc("GET /v1/algorithms", s.instrument(s.handleAlgorithms))
	mux.HandleFunc("POST /v1/graphs", s.instrument(s.handleRegisterGraph))
	mux.HandleFunc("GET /v1/graphs", s.instrument(s.handleListGraphs))
	mux.HandleFunc("GET /v1/graphs/{fp}", s.instrument(s.handleGetGraph))
	mux.HandleFunc("POST /v1/graphs/{fp}/mutate", s.instrument(s.handleMutateGraph))
	mux.HandleFunc("POST /v1/plans", s.instrument(s.handleRegisterPlan))
	mux.HandleFunc("GET /v1/plans", s.instrument(s.handleListPlans))
	mux.HandleFunc("GET /v1/plans/{key}", s.instrument(s.handleGetPlan))
	mux.HandleFunc("POST /v1/decompose", s.instrument(s.handleDecompose))
	mux.HandleFunc("POST /v1/decompose/stream", s.instrument(s.handleDecomposeStream))
	mux.HandleFunc("POST /v1/pipeline", s.instrument(s.handlePipeline))
	mux.HandleFunc("POST /v1/pipeline/stream", s.instrument(s.handlePipelineStream))
	mux.HandleFunc("GET /v1/stats", s.instrument(s.handleStats))
	mux.HandleFunc("POST /v1/store/flush", s.instrument(s.handleStoreFlush))
	MountDebug(mux, s.rec.Registry())
	s.mux = mux
}

// instrument wraps a handler with the request counter, the latency
// histogram, and panic isolation: a handler that panics — a bug, an
// injected fault that escaped deeper recovery — answers 500 and counts in
// serve.handler.panics instead of killing the connection's goroutine with
// a stack trace and, under http.Server defaults, leaving the client with
// an aborted response. The process keeps serving.
func (s *Server) instrument(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.cRequests.Inc()
		defer func() {
			if rec := recover(); rec != nil {
				s.cPanics.Inc()
				s.logf("serve: handler %s %s panicked: %v", r.Method, r.URL.Path, rec)
				s.fail(w, http.StatusInternalServerError, "internal error: handler panicked")
			}
			s.hRequest.Observe(time.Since(start).Nanoseconds())
		}()
		h(w, r)
	}
}

// writeJSON emits one JSON document with status code. The document is
// encoded before anything is sent, so an encoding error still answers
// 500 instead of a 200 with an empty body.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		s.logf("serve: encoding response: %v", err)
		s.fail(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	s.writeBody(w, code, append(b, '\n'))
}

// writeBody sends a complete JSON body with its Content-Length.
func (s *Server) writeBody(w http.ResponseWriter, code int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	if _, err := w.Write(body); err != nil {
		s.logf("serve: writing response: %v", err)
	}
}

// fail emits the uniform error document.
func (s *Server) fail(w http.ResponseWriter, code int, format string, args ...any) {
	s.cErrors.Inc()
	s.writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReady is the readiness probe: 200 while admitting, 503 once the
// drain began — load balancers stop routing here before the listener
// actually closes. Liveness (/healthz) stays 200 throughout the drain.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if s.gov.Draining() {
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// statusClientClosedRequest is nginx's 499: the client abandoned the
// request before the server could answer. Distinct from 504 so operators
// can tell "we were too slow" from "they stopped caring".
const statusClientClosedRequest = 499

// retryAfterSeconds renders a Retry-After header value, minimum 1s.
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// admit acquires an admission slot for class c, answering the rejection
// itself when the governor refuses: 429 + Retry-After on saturation, 503
// + Retry-After while draining, 499 when the client gave up queued. On
// true the caller must invoke the returned release when done.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, c resilience.Class) (func(), bool) {
	release, err := s.gov.Acquire(r.Context(), c)
	if err == nil {
		return release, true
	}
	switch {
	case errors.Is(err, resilience.ErrDraining):
		w.Header().Set("Retry-After", retryAfterSeconds(s.gov.RetryAfter(c)))
		s.fail(w, http.StatusServiceUnavailable, "draining: no new %s work admitted", c)
	case errors.Is(err, resilience.ErrSaturated):
		s.cRejected.Inc()
		w.Header().Set("Retry-After", retryAfterSeconds(s.gov.RetryAfter(c)))
		s.fail(w, http.StatusTooManyRequests, "%s admission saturated, retry later", c)
	default: // the client's ctx expired while queued
		s.cClientCancels.Inc()
		s.fail(w, statusClientClosedRequest, "abandoned while queued: %v", err)
	}
	return nil, false
}

// shedColdWork rejects cold-miss work while the server is degraded —
// the request would execute a fresh decomposition and heavy in-flight is
// already past the watermark. Cache hits never reach this check: the
// degraded server keeps serving everything it already knows.
func (s *Server) shedColdWork(w http.ResponseWriter, c resilience.Class) bool {
	if !s.gov.Degraded() {
		return false
	}
	s.cShed.Inc()
	w.Header().Set("Retry-After", retryAfterSeconds(s.gov.RetryAfter(c)))
	s.fail(w, http.StatusTooManyRequests, "degraded: shedding cold %s work (cache hits still served)", c)
	return true
}

// requestDeadline extracts the client's requested budget: the JSON field
// when positive, else the X-Deadline-Ms header. 0 = none requested (the
// server default applies).
func requestDeadline(r *http.Request, bodyMs int64) time.Duration {
	ms := bodyMs
	if ms <= 0 {
		if h := r.Header.Get("X-Deadline-Ms"); h != "" {
			if v, err := strconv.ParseInt(h, 10, 64); err == nil {
				ms = v
			}
		}
	}
	if ms <= 0 {
		return 0
	}
	return time.Duration(ms) * time.Millisecond
}

// failExec classifies an execution error into the right status: 504 when
// the server-side budget expired (the client is still there), 499 when
// the client itself went away, 500 otherwise. Each class has its own
// counter so "every 5xx has a cause" stays auditable.
func (s *Server) failExec(w http.ResponseWriter, r *http.Request, err error, what string) {
	switch {
	case errors.Is(err, context.DeadlineExceeded) && r.Context().Err() == nil:
		s.cTimeouts.Inc()
		s.fail(w, http.StatusGatewayTimeout, "%s: deadline exceeded", what)
	case r.Context().Err() != nil:
		s.cClientCancels.Inc()
		s.fail(w, statusClientClosedRequest, "%s: client cancelled: %v", what, err)
	default:
		s.fail(w, http.StatusInternalServerError, "%s: %v", what, err)
	}
}

// countExecErr is failExec's counter half for paths that already
// committed a 200 (SSE streams): classify, count, no status write.
func (s *Server) countExecErr(r *http.Request, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded) && r.Context().Err() == nil:
		s.cTimeouts.Inc()
	case r.Context().Err() != nil:
		s.cClientCancels.Inc()
	}
}

func (s *Server) handleAlgorithms(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{
		"algorithms": decomp.Names(),
		"families":   familyNames(),
	})
}

// handleRegisterGraph accepts either a JSON GraphSpec (Content-Type
// application/json) or a raw edge-list body in the graphio interchange
// format. Registration is idempotent: the graph is keyed by its content
// fingerprint, so re-registering returns the existing entry.
func (s *Server) handleRegisterGraph(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w, r, resilience.ClassRegister)
	if !ok {
		return
	}
	defer release()
	body := http.MaxBytesReader(w, r.Body, maxUploadBytes)
	var (
		g    *graph.Graph
		info GraphInfo
	)
	if isJSONRequest(r) {
		var spec GraphSpec
		if err := json.NewDecoder(body).Decode(&spec); err != nil {
			s.fail(w, http.StatusBadRequest, "decoding graph spec: %v", err)
			return
		}
		built, err := spec.Build()
		if err != nil {
			s.fail(w, http.StatusBadRequest, "%v", err)
			return
		}
		g = built
		sp := spec
		info = GraphInfo{Source: spec.String(), Spec: &sp}
	} else {
		parsed, err := graphio.Read(body)
		if err != nil {
			s.fail(w, http.StatusBadRequest, "parsing edge list: %v", err)
			return
		}
		g = parsed
		info = GraphInfo{Source: "upload"}
	}
	info.Fingerprint = keyString(g.Fingerprint())
	info.N = g.N()
	info.M = graph.EdgeCount(g)
	s.mu.Lock()
	if existing, ok := s.graphs[g.Fingerprint()]; ok {
		info = existing.info // idempotent: first registration wins
	} else {
		s.graphs[g.Fingerprint()] = &graphEntry{g: g, info: info}
		s.rec.Gauge("serve.graphs").Set(int64(len(s.graphs)))
	}
	s.mu.Unlock()
	s.writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleListGraphs(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	out := make([]GraphInfo, 0, len(s.graphs))
	for _, e := range s.graphs {
		out = append(out, e.info)
	}
	s.mu.RUnlock()
	sortByString(out, func(gi GraphInfo) string { return gi.Fingerprint })
	s.writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGetGraph(w http.ResponseWriter, r *http.Request) {
	fp, err := parseKey(r.PathValue("fp"))
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.mu.RLock()
	e, ok := s.graphs[fp]
	s.mu.RUnlock()
	if !ok {
		s.fail(w, http.StatusNotFound, "graph %s not registered", keyString(fp))
		return
	}
	s.writeJSON(w, http.StatusOK, e.info)
}

// handleRegisterPlan compiles a PlanSpec. Compilation is the expensive
// validating half of the split API; it happens exactly once per
// configuration — re-registering an equivalent spec returns the existing
// plan (keyed by PlanKey).
func (s *Server) handleRegisterPlan(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w, r, resilience.ClassRegister)
	if !ok {
		return
	}
	defer release()
	var spec PlanSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxUploadBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		s.fail(w, http.StatusBadRequest, "decoding plan spec: %v", err)
		return
	}
	pl, err := spec.Compile()
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	info := PlanInfo{Plan: keyString(pl.PlanKey()), Algorithm: pl.Name(), Seed: pl.Seed(), Spec: spec}
	s.mu.Lock()
	if existing, ok := s.plans[pl.PlanKey()]; ok {
		info = existing.info
	} else {
		s.plans[pl.PlanKey()] = &planEntry{pl: pl, info: info}
		s.rec.Gauge("serve.plans").Set(int64(len(s.plans)))
	}
	s.mu.Unlock()
	s.writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleListPlans(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	out := make([]PlanInfo, 0, len(s.plans))
	for _, e := range s.plans {
		out = append(out, e.info)
	}
	s.mu.RUnlock()
	sortByString(out, func(pi PlanInfo) string { return pi.Plan })
	s.writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGetPlan(w http.ResponseWriter, r *http.Request) {
	key, err := parseKey(r.PathValue("key"))
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.mu.RLock()
	e, ok := s.plans[key]
	s.mu.RUnlock()
	if !ok {
		s.fail(w, http.StatusNotFound, "plan %s not registered", keyString(key))
		return
	}
	s.writeJSON(w, http.StatusOK, e.info)
}

// resolve looks up the graph and plan a decompose request addresses and
// applies the seed override.
func (s *Server) resolve(req DecomposeRequest) (graph.Interface, *decomp.Plan, error) {
	fp, err := parseKey(req.Graph)
	if err != nil {
		return nil, nil, fmt.Errorf("graph: %w", err)
	}
	key, err := parseKey(req.Plan)
	if err != nil {
		return nil, nil, fmt.Errorf("plan: %w", err)
	}
	s.mu.RLock()
	ge, gok := s.graphs[fp]
	pe, pok := s.plans[key]
	s.mu.RUnlock()
	if !gok {
		return nil, nil, fmt.Errorf("graph %s not registered (POST /v1/graphs first)", keyString(fp))
	}
	if !pok {
		return nil, nil, fmt.Errorf("plan %s not registered (POST /v1/plans first)", keyString(key))
	}
	pl := pe.pl
	if req.Seed != nil {
		pl = pl.WithSeed(*req.Seed)
	}
	return ge.g, pl, nil
}

// handleDecompose is the synchronous serving path: resolve, try the
// cache-only read (a warm hit answers without admission — it holds no
// worker and must survive saturation, degradation, and drain alike),
// then shed/admit/deadline-bound the cold execution. Both answers encode
// the session's shared frozen result straight into the response buffer
// (see respond.go).
func (s *Server) handleDecompose(w http.ResponseWriter, r *http.Request) {
	var req DecomposeRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxUploadBytes)).Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	g, pl, err := s.resolve(req)
	if err != nil {
		s.fail(w, http.StatusNotFound, "%v", err)
		return
	}
	start := time.Now()
	if f, ok := s.sess.PeekFrozen(pl, g); ok {
		lat := time.Since(start)
		s.hDecompose.Observe(lat.Nanoseconds())
		s.writeDecompose(w, &decomposeDoc{
			graph:     graph.Fingerprint(g),
			plan:      pl.PlanKey(),
			seed:      pl.Seed(),
			algorithm: pl.Name(),
			cacheHit:  true,
			latencyNs: lat.Nanoseconds(),
			partition: f,
		})
		return
	}
	if s.shedColdWork(w, resilience.ClassDecompose) {
		return
	}
	release, ok := s.admit(w, r, resilience.ClassDecompose)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := s.gov.Deadline().Context(r.Context(), requestDeadline(r, req.DeadlineMs))
	defer cancel()
	j := s.sess.Submit(ctx, pl, g)
	f, err := j.WaitFrozen()
	if err != nil {
		s.failExec(w, r, err, "decompose")
		return
	}
	lat := time.Since(start)
	s.hDecompose.Observe(lat.Nanoseconds())
	s.writeDecompose(w, &decomposeDoc{
		graph:     j.Key().Graph,
		plan:      j.Key().Plan,
		seed:      j.Key().Seed,
		algorithm: pl.Name(),
		cacheHit:  j.CacheHit(),
		latencyNs: lat.Nanoseconds(),
		partition: f,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	ngraphs, nplans := len(s.graphs), len(s.plans)
	lastPrev, lastNew := s.lastMutPrev, s.lastMutNew
	s.mu.RUnlock()
	resp := StatsResponse{
		Session: s.sess.Stats(),
		Graphs:  ngraphs,
		Plans:   nplans,
		SSE: SSEInfo{
			Clients:       s.cSSEClients.Value(),
			DroppedRounds: s.cSSEDropped.Value(),
			DroppedEvents: s.cSSEDroppedEvents.Value(),
		},
	}
	if s.store != nil {
		resp.Store = s.store.info()
	}
	resp.Resilience = s.resilienceInfo()
	if s.cMutBatches.Value() > 0 {
		resp.Mutations = &MutationInfo{
			Batches:         s.cMutBatches.Value(),
			Applied:         s.cMutApplied.Value(),
			Noops:           s.cMutNoops.Value(),
			Compactions:     s.cMutCompact.Value(),
			Invalidated:     s.cMutInvalid.Value(),
			LastPrevious:    lastPrev,
			LastFingerprint: lastNew,
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// resilienceInfo assembles the /v1/stats resilience block.
func (s *Server) resilienceInfo() *ResilienceInfo {
	info := &ResilienceInfo{
		Governor:      s.gov.Snapshot(),
		Shed:          s.cShed.Value(),
		Timeouts:      s.cTimeouts.Value(),
		ClientCancels: s.cClientCancels.Value(),
		HandlerPanics: s.cPanics.Value(),
	}
	if s.injector != nil {
		st := s.injector.Stats()
		info.Injector = &st
		info.InjectorEnabled = s.injector.Enabled()
	}
	return info
}

func (s *Server) handleStoreFlush(w http.ResponseWriter, _ *http.Request) {
	n, err := s.Flush()
	if err != nil {
		s.fail(w, http.StatusInternalServerError, "flush: %v", err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]int{"entries": n})
}

// maxUploadBytes bounds request bodies (edge lists included): 256 MiB
// admits graphs in the tens of millions of edges while keeping one client
// from exhausting memory.
const maxUploadBytes = 256 << 20

// isJSONRequest reports whether the request declared a JSON body.
func isJSONRequest(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	return ct == "application/json" || len(ct) > 16 && ct[:16] == "application/json"
}
