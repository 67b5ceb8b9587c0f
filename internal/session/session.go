// Package session is the serving layer on top of compiled decomposition
// plans: a bounded worker pool that executes decomp.Plan jobs with
// singleflight deduplication of identical in-flight work and a
// size-bounded LRU cache of completed Partitions.
//
// The cache and dedup key is the triple
//
//	(graph.Fingerprint, Plan.PlanKey, seed)
//
// — the graph's content digest, the plan's semantic digest (every Config
// field except seed and observer), and the seed. Two submissions agreeing
// on the triple are guaranteed the same Partition (every algorithm is
// deterministic in its seed), so the session runs the work once: a second
// submission while the first is still executing attaches to it
// (deduplicated), and a submission after it completed is served from the
// cache. The cache holds each result once, as an immutable
// decomp.Frozen: Run, Wait, Peek and ExportCache materialize a fresh
// Partition per call, so callers can mutate what they receive without
// corrupting the cache or each other, while PeekFrozen and Job.WaitFrozen
// hand read-only consumers (the serving daemon's encoder) the shared
// frozen form itself, with no copy at all.
//
// Typical use:
//
//	s := session.New(session.WithWorkers(8), session.WithCacheSize(512))
//	defer s.Close()
//	pl, _ := decomp.Compile("elkin-neiman", decomp.WithForceComplete())
//	p, err := s.Run(ctx, pl.WithSeed(7), g)      // blocking
//	for r := range s.SubmitAll(ctx, reqs) { ... } // streaming batch
//	fmt.Println(s.Stats())                        // hits / misses / dedups
package session

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"netdecomp/internal/decomp"
	"netdecomp/internal/dist"
	"netdecomp/internal/graph"
	"netdecomp/internal/obs"
)

// ErrClosed is returned by submissions made after Close.
var ErrClosed = errors.New("session: closed")

// Key is the cache and dedup key triple: graph fingerprint × plan key ×
// seed. Distinct workloads collide with probability ~2⁻⁶⁴ per component
// (see graph.Fingerprint), which is the usual content-digest caching
// trade.
type Key struct {
	Graph uint64
	Plan  uint64
	Seed  uint64
}

// KeyFor returns the key a submission of pl on g would use.
func KeyFor(pl *decomp.Plan, g graph.Interface) Key {
	return Key{Graph: graph.Fingerprint(g), Plan: pl.PlanKey(), Seed: pl.Seed()}
}

// Stats is a point-in-time snapshot of the session counters. The same
// numbers — plus the latency histograms — live in the session's telemetry
// registry (Registry) under the session.* names; Stats remains as the
// programmatic convenience view. Its JSON document is byte-stable:
// encoding/json emits the tagged fields in declaration order.
type Stats struct {
	// Hits counts submissions served from the completed-result cache.
	Hits uint64 `json:"hits"`
	// Misses counts submissions that scheduled a fresh execution.
	Misses uint64 `json:"misses"`
	// Dedups counts submissions that attached to an identical in-flight
	// execution instead of scheduling their own.
	Dedups uint64 `json:"dedups"`
	// Evictions counts cache entries displaced by the LRU bound.
	Evictions uint64 `json:"evictions"`
	// ObserverPanics counts observer callbacks that panicked during the
	// round fan-out and were disabled (see SubmitObserved).
	ObserverPanics uint64 `json:"observerPanics"`
	// ExecPanics counts executions that panicked and were converted into
	// per-key errors instead of crashing the process (see WithRunner).
	ExecPanics uint64 `json:"execPanics"`
	// InFlight is the number of executions currently scheduled or running.
	InFlight int `json:"inFlight"`
	// Cached is the number of completed results currently held.
	Cached int `json:"cached"`
}

// Option configures a Session.
type Option func(*Session)

// WithWorkers bounds the worker pool to n concurrent executions
// (default and minimum 1; the zero Session default is GOMAXPROCS).
func WithWorkers(n int) Option {
	return func(s *Session) { s.workers = n }
}

// WithCacheSize bounds the completed-result LRU to n entries (default
// 256). n = 0 disables caching entirely — every submission either
// executes or dedups onto an in-flight execution.
func WithCacheSize(n int) Option {
	return func(s *Session) { s.cacheCap = n }
}

// Runner executes one compiled plan on one graph — the session's
// execution primitive. The default runner is Plan.Run; WithRunner
// replaces it, which is how the resilience layer's fault injector (and
// any other execution middleware) slots under the cache and dedup
// machinery: wrapped runs still dedup, still cache, still fan out
// observers.
type Runner func(ctx context.Context, pl *decomp.Plan, g graph.Interface) (*decomp.Partition, error)

// WithRunner replaces the execution primitive (nil keeps Plan.Run). The
// runner is invoked once per deduplicated execution, never per waiter,
// and runs panic-isolated: a panicking runner — injected fault or real
// decomposer bug — resolves that execution with an error for all its
// waiters, counts in session.exec.panics, and leaves the process alive.
func WithRunner(r Runner) Option {
	return func(s *Session) { s.runner = r }
}

// WithRecorder makes the session report into an externally owned
// telemetry recorder — typically obs.New(registry, tracer) shared with an
// exposition endpoint, so session counters, latency histograms and job
// spans land beside the engine metrics. Without this option the session
// creates a private metrics-only registry (no tracer); passing nil keeps
// that default.
func WithRecorder(rec *obs.Recorder) Option {
	return func(s *Session) { s.rec = rec }
}

// Session is the concurrent plan-execution service. It is safe for use by
// multiple goroutines; create one per process (or per tenant) and share
// it, so identical work is actually deduplicated.
type Session struct {
	workers  int
	cacheCap int
	runner   Runner // nil = Plan.Run

	// rec is the telemetry recorder; never nil after New. All session
	// instruments below are resolved once at construction so the submit
	// and execute paths never do a name lookup.
	rec         *obs.Recorder
	cHits       *obs.Counter
	cMisses     *obs.Counter
	cDedups     *obs.Counter
	cEvicted    *obs.Counter
	cPanics     *obs.Counter
	cExecPanics *obs.Counter
	cInvalid    *obs.Counter
	gInflight   *obs.Gauge
	gCached     *obs.Gauge
	hHit        *obs.Histogram
	hMiss       *obs.Histogram
	hDedup      *obs.Histogram

	wg sync.WaitGroup

	mu       sync.Mutex
	cond     *sync.Cond
	pending  []*flight
	closing  bool
	inflight map[Key]*flight
	items    map[Key]*list.Element
	order    *list.List // front = most recently used
}

// cacheEntry is one LRU slot.
type cacheEntry struct {
	key Key
	f   *decomp.Frozen
}

// flight is one scheduled execution plus everyone waiting on it.
type flight struct {
	s    *Session
	key  Key
	plan *decomp.Plan
	g    graph.Interface

	runCtx context.Context
	cancel context.CancelFunc

	obsMu     sync.Mutex
	observers []*obsEntry

	waiters int // guarded by s.mu; at 0 the execution is cancelled

	done chan struct{}
	f    *decomp.Frozen
	err  error
}

// obsEntry is one attached round observer plus the job it belongs to. The
// failed flag quarantines an observer that panicked: it is written and
// read only on the goroutine driving the execution (broadcast is called
// from the engine loop), so it needs no lock.
type obsEntry struct {
	fn     func(dist.RoundStats)
	job    *Job
	failed bool
}

// New starts a Session with the given options.
func New(opts ...Option) *Session {
	s := &Session{
		workers:  runtime.GOMAXPROCS(0),
		cacheCap: 256,
		inflight: map[Key]*flight{},
		items:    map[Key]*list.Element{},
		order:    list.New(),
	}
	for _, o := range opts {
		o(s)
	}
	if s.workers < 1 {
		s.workers = 1
	}
	if s.cacheCap < 0 {
		s.cacheCap = 0
	}
	if s.rec == nil {
		s.rec = obs.New(obs.NewRegistry(), nil)
	}
	s.cHits = s.rec.Counter("session.hits")
	s.cMisses = s.rec.Counter("session.misses")
	s.cDedups = s.rec.Counter("session.dedups")
	s.cEvicted = s.rec.Counter("session.evictions")
	s.cPanics = s.rec.Counter("session.observer.panics")
	s.cExecPanics = s.rec.Counter("session.exec.panics")
	s.cInvalid = s.rec.Counter("session.invalidations")
	s.gInflight = s.rec.Gauge("session.inflight")
	s.gCached = s.rec.Gauge("session.cached")
	s.hHit = s.rec.Histogram("session.hit.ns")
	s.hMiss = s.rec.Histogram("session.miss.ns")
	s.hDedup = s.rec.Histogram("session.dedup.ns")
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(s.workers)
	for i := 0; i < s.workers; i++ {
		go s.worker()
	}
	return s
}

// Close stops accepting submissions, lets already-accepted work finish,
// and waits for the workers to exit. It is idempotent.
func (s *Session) Close() {
	s.mu.Lock()
	s.closing = true
	s.mu.Unlock()
	s.cond.Broadcast()
	s.wg.Wait()
}

// Run submits one job and blocks until its result (or ctx expiry).
func (s *Session) Run(ctx context.Context, pl *decomp.Plan, g graph.Interface) (*decomp.Partition, error) {
	return s.Submit(ctx, pl, g).Wait()
}

// Submit schedules pl on g and returns immediately with a Job handle.
// Identical completed work is served from cache; identical in-flight work
// is joined rather than repeated. ctx cancellation abandons only this
// job's wait — the shared execution is cancelled when its last waiter
// abandons it.
func (s *Session) Submit(ctx context.Context, pl *decomp.Plan, g graph.Interface) *Job {
	return s.SubmitObserved(ctx, pl, g, nil)
}

// SubmitObserved is Submit with a per-job round observer. All observers of
// one shared execution are fanned out to; an observer attached by a
// deduplicated submission sees only the rounds emitted after it attached,
// and a cache hit (no execution at all) emits nothing.
//
// Observers are panic-isolated: a callback that panics is disabled for
// the rest of the execution, counted in session.observer.panics, and
// surfaced as an error to the waiter that attached it — the shared
// execution itself keeps running, its result still caches, and every
// other waiter is unaffected.
func (s *Session) SubmitObserved(ctx context.Context, pl *decomp.Plan, g graph.Interface, fn func(dist.RoundStats)) *Job {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	j := &Job{ctx: ctx, start: start}
	switch {
	case pl == nil:
		j.err = errors.New("session: Submit with nil Plan")
		return j
	case g == nil:
		j.err = errors.New("session: Submit with nil graph")
		return j
	}
	key := KeyFor(pl, g)
	j.key = key

	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		j.err = ErrClosed
		return j
	}
	if f, ok := s.cacheGet(key); ok {
		s.cHits.Inc()
		s.mu.Unlock()
		j.f, j.hit = f, true
		s.hHit.Observe(time.Since(start).Nanoseconds())
		return j
	}
	// Attach only to a flight that still has waiters: once the last waiter
	// has abandoned one (observed under s.mu), its execution is doomed to
	// cancellation, and a fresh submission must not share its fate — it
	// schedules a replacement instead (the doomed flight only removes the
	// inflight entry if it is still its own, see execute).
	if fl, ok := s.inflight[key]; ok && fl.waiters > 0 {
		s.cDedups.Inc()
		fl.waiters++
		fl.addObservers(j, fn, pl.Config().Observer)
		s.mu.Unlock()
		j.fl = fl
		j.lat = s.hDedup
		return j
	}
	s.cMisses.Inc()
	runCtx, cancel := context.WithCancel(context.Background())
	fl := &flight{
		s: s, key: key, plan: pl, g: g,
		runCtx: runCtx, cancel: cancel,
		waiters: 1, done: make(chan struct{}),
	}
	// Observers attach before the flight becomes visible to workers, so
	// the initiating submission never misses a round.
	fl.addObservers(j, fn, pl.Config().Observer)
	s.inflight[key] = fl
	s.gInflight.Set(int64(len(s.inflight)))
	s.pending = append(s.pending, fl)
	s.mu.Unlock()
	s.cond.Signal()
	j.fl = fl
	j.lat = s.hMiss
	return j
}

// Request is one entry of a SubmitAll batch.
type Request struct {
	// Plan is the compiled plan to execute (derive per-seed copies with
	// Plan.WithSeed).
	Plan *decomp.Plan
	// Graph is the input graph.
	Graph graph.Interface
	// Observer optionally streams this job's per-round statistics (fanned
	// out when executions are shared; silent on cache hits).
	Observer func(dist.RoundStats)
}

// Result is one streamed SubmitAll outcome.
type Result struct {
	// Index is the position of the originating Request.
	Index int
	// Partition is a fresh copy of the result (nil when Err is set).
	Partition *decomp.Partition
	// Err is the job error, ctx expiry included.
	Err error
	// CacheHit reports that the result was served without any execution.
	CacheHit bool
}

// SubmitAll submits the whole batch and streams results on the returned
// channel as jobs complete, in completion order (Result.Index ties each
// result back to its request). The channel is closed after the last
// result; the batch shares ctx.
func (s *Session) SubmitAll(ctx context.Context, reqs []Request) <-chan Result {
	out := make(chan Result, len(reqs))
	var wg sync.WaitGroup
	wg.Add(len(reqs))
	go func() {
		for i := range reqs {
			r := reqs[i]
			j := s.SubmitObserved(ctx, r.Plan, r.Graph, r.Observer)
			go func(i int, j *Job) {
				defer wg.Done()
				p, err := j.Wait()
				out <- Result{Index: i, Partition: p, Err: err, CacheHit: j.CacheHit()}
			}(i, j)
		}
	}()
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}

// Stats returns a snapshot of the session counters.
func (s *Session) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits:           uint64(s.cHits.Value()),
		Misses:         uint64(s.cMisses.Value()),
		Dedups:         uint64(s.cDedups.Value()),
		Evictions:      uint64(s.cEvicted.Value()),
		ObserverPanics: uint64(s.cPanics.Value()),
		ExecPanics:     uint64(s.cExecPanics.Value()),
		InFlight:       len(s.inflight),
		Cached:         s.order.Len(),
	}
}

// Peek serves pl-on-g from the completed-result cache alone: a freshly
// materialized copy and true on a hit (counted as a session hit), nil and
// false otherwise — no execution is scheduled, no dedup attach happens,
// and a miss counts nothing. This is the degraded-mode read path: an
// overloaded or draining server can keep answering everything it already
// knows while admitting no new work.
func (s *Session) Peek(pl *decomp.Plan, g graph.Interface) (*decomp.Partition, bool) {
	f, ok := s.PeekFrozen(pl, g)
	if !ok {
		return nil, false
	}
	return f.Partition(), true
}

// PeekFrozen is Peek without the copy: on a hit (counted exactly as Peek
// counts one) it returns the cached immutable form itself, shared with
// the cache and every other reader. Encode it or materialize it with
// Frozen.Partition; it stays valid after the entry is evicted.
func (s *Session) PeekFrozen(pl *decomp.Plan, g graph.Interface) (*decomp.Frozen, bool) {
	if pl == nil || g == nil {
		return nil, false
	}
	start := time.Now()
	key := KeyFor(pl, g)
	s.mu.Lock()
	f, ok := s.cacheGet(key)
	if ok {
		s.cHits.Inc()
	}
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	s.hHit.Observe(time.Since(start).Nanoseconds())
	return f, true
}

// InvalidateGraph drops every cached result keyed to the graph fingerprint
// fp and returns how many entries were removed. The narrow invalidation
// primitive for mutable graphs: when a graph is mutated in place behind one
// serving key, only the results of its old content version become wrong —
// every other graph's entries (and the mutated graph's new-fingerprint
// entries, which cannot exist yet) stay cached. Dropped entries count in
// session.invalidations, not session.evictions: they were removed for
// correctness, not displaced by the LRU bound.
//
// In-flight executions on the old content are left alone: they were keyed
// by the old fingerprint, so they complete, cache under the old key, and
// are simply never requested again (the serving layer retires the old
// fingerprint when it swaps the graph). Callers that re-expose the old
// fingerprint after an invalidation get recomputed — not stale — results.
func (s *Session) InvalidateGraph(fp uint64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	removed := 0
	for key, el := range s.items {
		if key.Graph != fp {
			continue
		}
		s.order.Remove(el)
		delete(s.items, key)
		removed++
	}
	if removed > 0 {
		s.cInvalid.Add(int64(removed))
		s.gCached.Set(int64(s.order.Len()))
	}
	return removed
}

// Recorder returns the session's telemetry recorder (never nil). Layers
// that want their own metrics beside the session's — harness experiments,
// exposition endpoints — resolve instruments through it.
func (s *Session) Recorder() *obs.Recorder { return s.rec }

// Registry returns the telemetry registry behind the session's recorder
// (nil only when the session was built over a metrics-less recorder).
func (s *Session) Registry() *obs.Registry { return s.rec.Registry() }

// WritePrometheus writes the session registry in Prometheus text format —
// the convenience form of Registry().WritePrometheus for HTTP handlers.
func (s *Session) WritePrometheus(w io.Writer) error {
	reg := s.Registry()
	if reg == nil {
		return nil
	}
	return reg.WritePrometheus(w)
}

// worker is one pool goroutine: pop, execute, repeat until the session
// drains after Close.
func (s *Session) worker() {
	defer s.wg.Done()
	s.mu.Lock()
	for {
		for len(s.pending) == 0 && !s.closing {
			s.cond.Wait()
		}
		if len(s.pending) == 0 {
			s.mu.Unlock()
			return
		}
		fl := s.pending[0]
		s.pending = s.pending[1:]
		s.mu.Unlock()
		s.execute(fl)
		s.mu.Lock()
	}
}

// execute runs one flight, freezes and stores the result, and wakes the
// waiters. The execution is wrapped in a "job" span carrying the cache
// key triple, and unless the plan brought its own recorder it inherits
// the session's, rooted at that span — so the plan, phase and round
// telemetry of a session-served run lands in the session registry. A
// result that cannot be frozen (a value outside int32) resolves the
// flight with that error and caches nothing.
func (s *Session) execute(fl *flight) {
	defer fl.cancel()
	var f *decomp.Frozen
	err := fl.runCtx.Err() // all waiters may have abandoned while queued
	if err == nil {
		span := s.rec.Span("job",
			obs.KV{K: "graph", V: int64(fl.key.Graph)},
			obs.KV{K: "plan", V: int64(fl.key.Plan)},
			obs.KV{K: "seed", V: int64(fl.key.Seed)})
		pl := fl.plan.WithObserver(fl.broadcast)
		if pl.Recorder() == nil {
			pl = pl.WithRecorder(s.rec.Under(span))
		}
		var p *decomp.Partition
		if p, err = s.runProtected(fl.runCtx, pl, fl.g); err == nil {
			f, err = p.Freeze()
		}
		span.End()
	}
	s.mu.Lock()
	if err == nil {
		s.cacheAdd(fl.key, f)
	}
	// A doomed flight (all waiters abandoned) may have been replaced in
	// the inflight table by a fresh submission; only remove our own entry.
	if s.inflight[fl.key] == fl {
		delete(s.inflight, fl.key)
	}
	s.gInflight.Set(int64(len(s.inflight)))
	s.mu.Unlock()
	fl.f, fl.err = f, err
	close(fl.done)
}

// runProtected invokes the session's runner (default Plan.Run) with
// panic isolation: a panicking execution — a decomposer bug, an injected
// fault — becomes an error resolved to all the flight's waiters, counted
// in session.exec.panics. Nothing caches, the worker survives, and the
// process keeps serving.
func (s *Session) runProtected(ctx context.Context, pl *decomp.Plan, g graph.Interface) (p *decomp.Partition, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.cExecPanics.Inc()
			p, err = nil, fmt.Errorf("session: execution panicked: %v", r)
		}
	}()
	if s.runner != nil {
		return s.runner(ctx, pl, g)
	}
	return pl.Run(ctx, g)
}

// broadcast fans one round record out to every attached observer,
// isolating panics: a panicking observer is disabled for the rest of the
// execution, counted, and its error is pinned to the job that attached it
// (read by that job's Wait after fl.done closes, so the write is ordered
// by the channel close). Entries are only appended, never removed, and
// the slice header is copied under obsMu, so concurrent attaches from
// deduplicated submissions are safe.
func (fl *flight) broadcast(rs dist.RoundStats) {
	fl.obsMu.Lock()
	entries := fl.observers
	fl.obsMu.Unlock()
	for _, e := range entries {
		if !e.failed {
			fl.callObserver(e, rs)
		}
	}
}

// callObserver invokes one observer, converting a panic into quarantine.
func (fl *flight) callObserver(e *obsEntry, rs dist.RoundStats) {
	defer func() {
		if r := recover(); r != nil {
			e.failed = true
			fl.s.cPanics.Inc()
			if e.job != nil {
				e.job.obsErr = fmt.Errorf("session: round observer panicked: %v", r)
			}
		}
	}()
	e.fn(rs)
}

// addObservers attaches the non-nil observers to the flight on behalf of
// job j.
func (fl *flight) addObservers(j *Job, fns ...func(dist.RoundStats)) {
	fl.obsMu.Lock()
	for _, f := range fns {
		if f != nil {
			fl.observers = append(fl.observers, &obsEntry{fn: f, job: j})
		}
	}
	fl.obsMu.Unlock()
}

// cacheGet returns the cached result for key, refreshing its LRU
// position. Caller holds s.mu.
func (s *Session) cacheGet(key Key) (*decomp.Frozen, bool) {
	el, ok := s.items[key]
	if !ok {
		return nil, false
	}
	s.order.MoveToFront(el)
	return el.Value.(*cacheEntry).f, true
}

// cacheAdd inserts (or refreshes) a completed result, evicting the least
// recently used entry past the bound. Caller holds s.mu.
func (s *Session) cacheAdd(key Key, f *decomp.Frozen) {
	if s.cacheCap == 0 {
		return
	}
	if el, ok := s.items[key]; ok {
		el.Value.(*cacheEntry).f = f
		s.order.MoveToFront(el)
		return
	}
	s.items[key] = s.order.PushFront(&cacheEntry{key: key, f: f})
	for s.order.Len() > s.cacheCap {
		oldest := s.order.Back()
		s.order.Remove(oldest)
		delete(s.items, oldest.Value.(*cacheEntry).key)
		s.cEvicted.Inc()
	}
	s.gCached.Set(int64(s.order.Len()))
}

// Job is the handle of one submission.
type Job struct {
	ctx context.Context
	key Key

	fl *flight // nil when resolved at submit time (cache hit or error)

	f   *decomp.Frozen
	err error
	hit bool

	// obsErr is set when an observer this job attached panicked during the
	// fan-out. It is written on the execution goroutine before fl.done
	// closes and read by Wait only after, so the channel orders the access.
	obsErr error

	// start/lat feed the session's per-path latency histograms: lat is the
	// miss or dedup histogram (nil for submit-time resolutions, whose hit
	// latency is observed inline), and latOnce observes exactly once at
	// the first completed Wait.
	start   time.Time
	lat     *obs.Histogram
	latOnce sync.Once

	detachOnce sync.Once
}

// Key returns the cache key the job was routed by.
func (j *Job) Key() Key { return j.key }

// CacheHit reports whether the job was served from the completed-result
// cache at submit time.
func (j *Job) CacheHit() bool { return j.hit }

// Done returns a channel closed when the result is available. For jobs
// resolved at submit time (cache hits, submit errors) it is already
// closed.
func (j *Job) Done() <-chan struct{} {
	if j.fl != nil {
		return j.fl.done
	}
	ch := make(chan struct{})
	close(ch)
	return ch
}

// Wait blocks until the job resolves and returns a freshly materialized
// copy of the result (safe to mutate). If the job's ctx expires first,
// Wait abandons the wait and returns the ctx error; the shared execution
// keeps running for its other waiters and is cancelled only when the last
// one abandons it. Wait may be called multiple times; each successful
// call returns a fresh copy.
//
// If an observer attached by this job panicked during the execution, Wait
// returns that error to this job alone: the shared execution completed,
// its result is cached, and the other waiters receive it normally.
func (j *Job) Wait() (*decomp.Partition, error) {
	f, err := j.WaitFrozen()
	if err != nil {
		return nil, err
	}
	return f.Partition(), nil
}

// WaitFrozen is Wait without the copy: it returns the shared immutable
// result, the same value the cache holds, for read-only consumers.
func (j *Job) WaitFrozen() (*decomp.Frozen, error) {
	if j.fl == nil {
		return j.f, j.err
	}
	select {
	case <-j.fl.done:
		return j.resolve()
	case <-j.ctx.Done():
		j.detach()
		// Completion may have raced the cancellation; prefer the result.
		select {
		case <-j.fl.done:
			return j.resolve()
		default:
		}
		return nil, j.ctx.Err()
	}
}

// resolve reads the completed flight's outcome for this job. Must only be
// called after j.fl.done is closed.
func (j *Job) resolve() (*decomp.Frozen, error) {
	j.latOnce.Do(func() {
		j.lat.Observe(time.Since(j.start).Nanoseconds())
	})
	if j.fl.err != nil {
		// The last waiter to abandon cancels the execution, so a waiter
		// whose own ctx expired can find the flight resolved with that
		// cancellation; it reports its own ctx error, as Wait documents.
		if errors.Is(j.fl.err, context.Canceled) && j.ctx.Err() != nil {
			return nil, j.ctx.Err()
		}
		return nil, j.fl.err
	}
	if j.obsErr != nil {
		return nil, j.obsErr
	}
	return j.fl.f, nil
}

// detach removes this job from its flight's waiter count, cancelling the
// execution when nobody is left waiting on it.
func (j *Job) detach() {
	j.detachOnce.Do(func() {
		s := j.fl.s
		s.mu.Lock()
		j.fl.waiters--
		last := j.fl.waiters == 0
		s.mu.Unlock()
		if last {
			j.fl.cancel()
		}
	})
}
