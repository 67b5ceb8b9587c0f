package main

// decompose-cold: a library caller issuing one fresh-seed request at a time
// through session.Session.Run. Every request misses, so the session's
// write path (miss, insert, evict) runs, and decomp, core and dist do
// nearly all the work; serve does none.

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"netdecomp/internal/core"
	"netdecomp/internal/decomp"
	"netdecomp/internal/dist"
	"netdecomp/internal/gen"
	"netdecomp/internal/graph"
	"netdecomp/internal/obs"
	"netdecomp/internal/randx"
	"netdecomp/internal/session"
)

const (
	coldN        = 8192 // vertices per pool graph
	coldGnp      = 16   // gnp graphs in the pool
	coldPowerLaw = 8    // powerlaw graphs in the pool
	coldCache    = 64   // session LRU bound: once full, every insert evicts
)

// coldPool is the set-up product: the graph pool, fingerprinted.
type coldPool struct {
	graphs            []*graph.Graph
	buildMs, fingerMs float64
}

// coldPoolSpecs is the pool's (family, generator seed) list for a
// workload seed.
func coldPoolSpecs(seed uint64) (fams []gen.Family, seeds []uint64) {
	rng := randx.Derive(seed, 3)
	for i := range coldGnp + coldPowerLaw {
		f := gen.FamilyGnp
		if i >= coldGnp {
			f = gen.FamilyPowerLaw
		}
		fams = append(fams, f)
		seeds = append(seeds, rng.Uint64())
	}
	return fams, seeds
}

func buildColdPool(fams []gen.Family, seeds []uint64) (*coldPool, error) {
	p := &coldPool{}
	for i, f := range fams {
		t := time.Now()
		g, err := gen.Build(f, coldN, seeds[i])
		if err != nil {
			return nil, err
		}
		p.buildMs += ms(time.Since(t))
		t = time.Now()
		graph.Fingerprint(g)
		p.fingerMs += ms(time.Since(t))
		p.graphs = append(p.graphs, g)
	}
	return p, nil
}

// coldRequests yields the decomposition seed of request i: a fixed
// sequence per workload seed. Request i runs on pool graph i mod len(pool).
type coldRequests struct{ rng *randx.SplitMix64 }

func newColdRequests(seed uint64) *coldRequests { return &coldRequests{rng: randx.Derive(seed, 4)} }

func (c *coldRequests) next() uint64 { return c.rng.Uint64() }

// coldPlans are the two plans every request runs: the sequential
// simulation (class a) and the CONGEST engine (class b).
type coldPlans struct {
	sim, engine *decomp.Plan
	diamBound   int     // core.TheoremDiameterBound for the pool size
	overRate    float64 // 2/c: Lemma 1's bound on the share of runs with a truncated broadcast
}

func compileColdPlans() (*coldPlans, error) {
	sim, err := decomp.Compile("elkin-neiman", decomp.WithForceComplete())
	if err != nil {
		return nil, err
	}
	engine, err := decomp.Compile("elkin-neiman/dist", decomp.WithForceComplete())
	if err != nil {
		return nil, err
	}
	o, ok := sim.CoreOptions()
	if !ok {
		return nil, errors.New("elkin-neiman does not resolve to core options")
	}
	bound, err := core.TheoremDiameterBound(coldN, o)
	if err != nil {
		return nil, err
	}
	c := o.C
	if c == 0 {
		c = 8 // core's default confidence parameter
	}
	return &coldPlans{sim: sim, engine: engine, diamBound: bound, overRate: 2 / c}, nil
}

// coldTracer is the traced run's instrumentation: a runner installed with
// session.WithRunner that times Plan.Run under the current op's span, and
// round observers attached with SubmitObserved.
type coldTracer struct {
	span   atomic.Pointer[obs.Span] // the session.run span of the op in flight
	planNs atomic.Int64             // Plan.Run time of the last execution
}

func (t *coldTracer) runner(ctx context.Context, pl *decomp.Plan, g graph.Interface) (*decomp.Partition, error) {
	span := t.span.Load().Child("decomp.run", obs.KV{K: "seed", V: int64(pl.Seed())})
	start := time.Now()
	p, err := pl.Run(ctx, g)
	t.planNs.Store(int64(time.Since(start)))
	span.End()
	return p, err
}

// roundGaps measures the mean gap between consecutive round callbacks of
// one execution.
type roundGaps struct {
	n           int
	first, last time.Time
}

func (r *roundGaps) observe(dist.RoundStats) {
	now := time.Now()
	if r.n == 0 {
		r.first = now
	}
	r.last = now
	r.n++
}

func (r *roundGaps) meanUs() float64 {
	if r.n < 2 {
		return 0
	}
	return float64(r.last.Sub(r.first).Nanoseconds()) / 1e3 / float64(r.n-1)
}

// spanMs is the time from the first round callback to the last.
func (r *roundGaps) spanMs() float64 {
	if r.n < 2 {
		return 0
	}
	return ms(r.last.Sub(r.first))
}

// coldLayers collects the traced half's per-layer samples, by plan.
type coldLayers struct {
	session, plan, overhead, allocKB, phases, roundUs, roundSpan [2]samples
	rounds, messages, words                                      samples
}

// coldRun is one caller issuing requests one at a time.
type coldRun struct {
	sess   *session.Session
	pool   *coldPool
	plans  *coldPlans
	reqs   *coldRequests
	next   int // index of the next request
	lat    [2]samples
	opTime time.Duration // session time of the measured requests, checks excluded
	failed int
	// uncertified counts clusters whose diameter needed the exact check,
	// over the simulation partitions with a cluster over the bound.
	uncertified, over int
	tracer            *obs.Tracer
	trc               *coldTracer // nil untraced
	layers            coldLayers
}

// measure issues requests until their session time reaches d.
func (r *coldRun) measure(ctx context.Context, d time.Duration) error {
	for r.opTime < d {
		if err := r.request(ctx); err != nil {
			return err
		}
	}
	return nil
}

// request runs one request: both plans on the same graph and seed, then
// the off-the-clock checks.
func (r *coldRun) request(ctx context.Context) error {
	i := r.next
	r.next++
	g := r.pool.graphs[i%len(r.pool.graphs)]
	seed := r.reqs.next()
	op := r.tracer.Start("decompose-cold.request", obs.KV{K: "op", V: int64(i)}, obs.KV{K: "seed", V: int64(seed)})
	defer op.End()
	var parts [2]*decomp.Partition
	for class, pl := range [2]*decomp.Plan{r.plans.sim, r.plans.engine} {
		p, err := r.run(ctx, op, class, pl.WithSeed(seed), g)
		if err != nil {
			r.failed++
			return nil
		}
		parts[class] = p
	}
	span := op.Child("check")
	defer span.End()
	uncertified, over, err := checkPair(g, parts[0], parts[1], r.plans.diamBound)
	if err != nil {
		return fmt.Errorf("request %d (graph %d, seed %d): %w", i, i%len(r.pool.graphs), seed, err)
	}
	r.uncertified += uncertified
	if over > 0 {
		r.over++
	}
	return nil
}

// run issues one Session.Run, timing it; the traced run adds the plan
// timer, round observer and allocation counter.
func (r *coldRun) run(ctx context.Context, op *obs.Span, class int, pl *decomp.Plan, g graph.Interface) (*decomp.Partition, error) {
	span := op.Child("session.run", obs.KV{K: "class", V: int64(class)})
	defer span.End()
	if r.trc == nil {
		start := time.Now()
		p, err := r.sess.Run(ctx, pl, g)
		d := time.Since(start)
		r.opTime += d
		if err == nil {
			r.lat[class].add(d)
		}
		return p, err
	}
	r.trc.span.Store(span)
	var gaps roundGaps
	a0 := totalAlloc()
	start := time.Now()
	p, err := r.sess.SubmitObserved(ctx, pl, g, gaps.observe).Wait()
	d := time.Since(start)
	allocs := totalAlloc() - a0
	r.opTime += d
	if err != nil {
		return nil, err
	}
	r.lat[class].add(d)
	planD := time.Duration(r.trc.planNs.Load())
	l := &r.layers
	l.session[class].add(d)
	l.plan[class].add(planD)
	l.overhead[class].add(d - planD)
	l.allocKB[class] = append(l.allocKB[class], float64(allocs)/1e3)
	l.phases[class] = append(l.phases[class], float64(p.PhasesUsed))
	l.roundUs[class] = append(l.roundUs[class], gaps.meanUs())
	l.roundSpan[class] = append(l.roundSpan[class], gaps.spanMs())
	if class == 1 {
		l.rounds = append(l.rounds, float64(p.Metrics.Rounds))
		l.messages = append(l.messages, float64(p.Metrics.Messages))
		l.words = append(l.words, float64(p.Metrics.Words))
	}
	return p, nil
}

// checkPair checks one request's outputs: the simulation and the engine
// agree on clusters, colors, phases and messages, and the simulation's
// partition passes checkDecomposition.
func checkPair(g graph.Interface, sim, engine *decomp.Partition, diamBound int) (uncertified, over int, err error) {
	if err := samePartition(sim, engine); err != nil {
		return 0, 0, fmt.Errorf("simulation and engine disagree: %w", err)
	}
	if sim.PhasesUsed != engine.PhasesUsed {
		return 0, 0, fmt.Errorf("simulation used %d phases, engine %d", sim.PhasesUsed, engine.PhasesUsed)
	}
	if sim.Metrics.Messages != engine.Metrics.Messages {
		return 0, 0, fmt.Errorf("simulation sent %d messages, engine %d", sim.Metrics.Messages, engine.Metrics.Messages)
	}
	return checkDecomposition(g, sim, diamBound)
}

func newColdSession(trc *coldTracer) *session.Session {
	opts := []session.Option{session.WithCacheSize(coldCache)}
	if trc != nil {
		opts = append(opts, session.WithRunner(trc.runner))
	}
	return session.New(opts...)
}

func decomposeCold(cfg config) (*result, error) {
	ctx := context.Background()
	fams, seeds := coldPoolSpecs(cfg.seed)
	plans, err := compileColdPlans()
	if err != nil {
		return nil, err
	}
	res := newResult()

	// Set up several times; report the median and keep the last.
	var pool *coldPool
	var setups []time.Duration
	var parts [][2]float64
	for range setupRepeats {
		pool = nil
		heapAfterGC()
		start := time.Now()
		if pool, err = buildColdPool(fams, seeds); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start))
		parts = append(parts, [2]float64{pool.buildMs, pool.fingerMs})
	}
	mid := medianRun(setups)
	res.e2e["setup_s"] = setups[mid].Seconds()
	res.layers["graph.build_ms"] = parts[mid][0]
	res.layers["graph.fingerprint_ms"] = parts[mid][1]
	res.notef("setup: %d set-ups of %d gen.Build + graph.Fingerprint at n=%d (%d gnp, %d powerlaw): %v (median %.4g s)",
		setupRepeats, len(fams), coldN, coldGnp, coldPowerLaw, setups, setups[mid].Seconds())

	reqs := newColdRequests(cfg.seed)
	plain := &coldRun{sess: newColdSession(nil), pool: pool, plans: plans, reqs: reqs}
	defer plain.sess.Close()
	measure := cfg.measure
	if cfg.traced() {
		measure /= 2
	}
	before := plain.sess.Stats()
	if err := plain.measure(ctx, measure); err != nil {
		return nil, err
	}
	after := plain.sess.Stats()
	runs := []*coldRun{plain}
	var traced *coldRun
	if cfg.traced() {
		// The traced half continues the request sequence on a session with
		// the timing runner installed.
		traced = &coldRun{pool: pool, plans: plans, reqs: reqs, next: plain.next, tracer: cfg.tracer, trc: &coldTracer{}}
		traced.sess = newColdSession(traced.trc)
		defer traced.sess.Close()
		if err := traced.measure(ctx, measure); err != nil {
			return nil, err
		}
		runs = append(runs, traced)
	}

	var lat [2]samples
	var opTime time.Duration
	for _, r := range runs {
		lat[0] = append(lat[0], r.lat[0]...)
		lat[1] = append(lat[1], r.lat[1]...)
		opTime += r.opTime
		res.failed += r.failed
	}
	completed := len(lat[0]) + len(lat[1])
	res.attempted = completed + res.failed
	res.e2e["retained_heap_mb"] = heapAfterGC()
	res.e2e["throughput_ops_s"] = float64(completed) / opTime.Seconds()
	res.classSamples("a", "elkin-neiman simulation, Session.Run", lat[0])
	res.classSamples("b", "elkin-neiman/dist engine, Session.Run", lat[1])
	res.notef("requests: %d over %d pool graphs, %.5g Session.Run/s over %.3g s of session time (checks off the clock)",
		runs[len(runs)-1].next, len(pool.graphs), res.e2e["throughput_ops_s"], opTime.Seconds())
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	res.notef("session over the measured phase: %d hits, %d misses, %d evictions", hits, misses, after.Evictions)

	if traced != nil {
		l := &traced.layers
		st := traced.sess.Stats()
		res.layers["session.hit_ratio"] = ratio(float64(st.Hits), float64(st.Hits+st.Misses))
		res.layers["session.evictions"] = float64(st.Evictions)
		res.layers["session.run_ms.sim"] = l.session[0].p50()
		res.layers["session.run_ms.engine"] = l.session[1].p50()
		res.layers["decomp.run_ms.sim"] = l.plan[0].p50()
		res.layers["decomp.run_ms.engine"] = l.plan[1].p50()
		overhead := append(append(samples{}, l.overhead[0]...), l.overhead[1]...)
		res.layers["session.overhead_ms"] = overhead.p50()
		res.layers["core.phases"] = l.phases[0].mean()
		res.layers["core.round_us"] = l.roundUs[0].mean()
		res.layers["dist.round_us"] = l.roundUs[1].mean()
		res.layers["dist.rounds"] = l.rounds.mean()
		res.layers["dist.messages"] = l.messages.mean()
		res.layers["dist.words"] = l.words.mean()
		res.layers["decomp.alloc_kb_per_op.sim"] = l.allocKB[0].mean()
		res.layers["decomp.alloc_kb_per_op.engine"] = l.allocKB[1].mean()
		res.layers["trace.overhead_pct"] = pct(traced.lat[0].p50()-plain.lat[0].p50(), plain.lat[0].p50())
		res.notef("core: %.4g phases per run; simulation %.4g us per round; engine %.4g rounds of %.4g us, %.4g messages, %.4g words",
			l.phases[0].mean(), l.roundUs[0].mean(), l.rounds.mean(), l.roundUs[1].mean(), l.messages.mean(), l.words.mean())
		for class, name := range [2]string{"simulation", "engine"} {
			res.sumTable(fmt.Sprintf("decompose-cold Session.Run, %s (traced half)", name), l.session[class].mean(),
				layerRow{"rounds (first to last round callback)", l.roundSpan[class].mean()},
				layerRow{"decomp.run outside rounds (plan - rounds)", l.plan[class].mean() - l.roundSpan[class].mean()},
				layerRow{"session.overhead (run - plan)", l.overhead[class].mean()})
		}
		res.zeroLayers()
	}
	uncertified, over := 0, 0
	for _, r := range runs {
		uncertified += r.uncertified
		over += r.over
	}
	requests := runs[len(runs)-1].next
	if float64(over) > plans.overRate*float64(requests) {
		return nil, fmt.Errorf("%d of %d simulation partitions have a cluster over the diameter bound %d; the theorem allows a share of %.3g",
			over, requests, plans.diamBound, plans.overRate)
	}
	res.notef("checks: every simulation/engine pair equal on ClusterOf, colors, phases and messages; every simulation partition complete, properly colored, clusters connected")
	res.notef("diameter bound %d: %d clusters certified by radius <= %d from the center failed it, %d of %d partitions have a cluster over the bound (allowed share %.3g)",
		plans.diamBound, uncertified, plans.diamBound/2, over, requests, plans.overRate)
	return res, nil
}
