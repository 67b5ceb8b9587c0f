package main

// repair-torus: four dyn.Maintainers on the 256×256 torus take edge-churn
// batches round-robin. One op is Overlay.Apply + Overlay.Compact +
// Maintainer.Update; dyn, core's repair path and graph do the work. Every
// op's partition is checked against a from-scratch Plan.Run off the clock.

import (
	"context"
	"fmt"
	"time"

	"netdecomp/internal/decomp"
	"netdecomp/internal/dyn"
	"netdecomp/internal/gen"
	"netdecomp/internal/obs"
	"netdecomp/internal/randx"
)

const (
	torusSide    = 256
	torusN       = torusSide * torusSide
	torusEdges   = 2 * torusN
	maintainers  = 4                     // even indices take small batches, odd ones large
	smallQuarter = torusEdges / 1000 / 4 // 0.1% batches: 32 fails + 32 shortcuts, then undone
	largeQuarter = torusEdges / 100 / 4  // 1% batches: 327 + 327
)

// classOf is maintainer m's batch class: 0 small (a), 1 large (b).
func classOf(m int) int { return m % 2 }

// churn generates one maintainer's mutation stream. Each batch first
// undoes its predecessor — restoring the torus links it failed and
// removing the shortcuts it added — then fails q random torus links and
// adds q random long-range shortcuts. The graph after any batch is the
// torus plus exactly that batch's damage, so per-op cost does not drift
// with run length.
type churn struct {
	side      int
	q         int
	rng       *randx.SplitMix64
	failed    []dyn.Mutation // the previous batch's failed torus links
	shortcuts []dyn.Mutation // the previous batch's shortcuts
}

func newChurn(seed uint64, m, side, q int) *churn {
	return &churn{side: side, q: q, rng: randx.Derive(seed, 5, uint64(m))}
}

// edge returns the canonical {u,v} mutation with u < v.
func edge(op dyn.Op, u, v int) dyn.Mutation {
	if u > v {
		u, v = v, u
	}
	return dyn.Mutation{Op: op, U: int32(u), V: int32(v)}
}

// torusNeighbor returns neighbor dir (0..3) of v on the side×side torus.
func torusNeighbor(side, v, dir int) int {
	r, c := v/side, v%side
	switch dir {
	case 0:
		c = (c + 1) % side
	case 1:
		c = (c + side - 1) % side
	case 2:
		r = (r + 1) % side
	default:
		r = (r + side - 1) % side
	}
	return r*side + c
}

func isTorusEdge(side, u, v int) bool {
	for dir := range 4 {
		if torusNeighbor(side, u, dir) == v {
			return true
		}
	}
	return false
}

// next returns the next batch of the stream.
func (c *churn) next() dyn.Batch {
	n := c.side * c.side
	b := make(dyn.Batch, 0, 2*(len(c.failed)+c.q))
	for _, f := range c.failed {
		b = append(b, dyn.Mutation{Op: dyn.OpInsert, U: f.U, V: f.V})
	}
	for _, s := range c.shortcuts {
		b = append(b, dyn.Mutation{Op: dyn.OpDelete, U: s.U, V: s.V})
	}
	seen := make(map[dyn.Mutation]bool, 2*c.q)
	c.failed = c.failed[:0]
	for len(c.failed) < c.q {
		u := c.rng.Intn(n)
		f := edge(dyn.OpDelete, u, torusNeighbor(c.side, u, c.rng.Intn(4)))
		if !seen[f] {
			seen[f] = true
			c.failed = append(c.failed, f)
		}
	}
	c.shortcuts = c.shortcuts[:0]
	for len(c.shortcuts) < c.q {
		u, v := c.rng.Intn(n), c.rng.Intn(n)
		if u == v || isTorusEdge(c.side, u, v) {
			continue
		}
		s := edge(dyn.OpInsert, u, v)
		if !seen[s] {
			seen[s] = true
			c.shortcuts = append(c.shortcuts, s)
		}
	}
	b = append(b, c.failed...)
	return append(b, c.shortcuts...)
}

// repairSet is the set-up product: the bootstrapped maintainers.
type repairSet struct {
	ms              []*dyn.Maintainer
	buildMs, bootMs float64
}

func bootRepair(plans []*decomp.Plan) (*repairSet, error) {
	s := &repairSet{}
	for _, pl := range plans {
		t := time.Now()
		g, err := gen.Build(gen.FamilyTorus, torusN, 0)
		if err != nil {
			return nil, err
		}
		s.buildMs += ms(time.Since(t))
		t = time.Now()
		m, err := dyn.NewMaintainer(context.Background(), pl, g, dyn.Config{})
		if err != nil {
			return nil, err
		}
		s.bootMs += ms(time.Since(t))
		s.ms = append(s.ms, m)
	}
	return s, nil
}

// repairClass holds one batch class's measurements.
type repairClass struct {
	op, apply, compact, update, recompute samples
	region, damaged, fellBack             samples
}

// repairRun drives the maintainers round-robin.
type repairRun struct {
	set     *repairSet
	streams []*churn
	next    int // index of the next op
	opTime  time.Duration
	failed  int
	tracer  *obs.Tracer
	cls     [2]repairClass
}

// measure runs whole rounds of ops until their time reaches d.
func (r *repairRun) measure(ctx context.Context, d time.Duration) error {
	for r.opTime < d || r.next%maintainers != 0 {
		if err := r.op(ctx); err != nil {
			return err
		}
	}
	return nil
}

// op applies the next batch of one maintainer's stream and checks the
// repaired partition against a from-scratch run.
func (r *repairRun) op(ctx context.Context) error {
	id := r.next
	r.next++
	mi := id % len(r.set.ms)
	m, cls := r.set.ms[mi], &r.cls[classOf(mi)]
	batch := r.streams[mi].next()

	root := r.tracer.Start("repair-torus.op", obs.KV{K: "op", V: int64(id)}, obs.KV{K: "maintainer", V: int64(mi)})
	span := root.Child("dyn.apply")
	t0 := time.Now()
	next, applied, err := dyn.Wrap(m.Graph()).Apply(batch)
	t1 := time.Now()
	span.End()
	if err != nil {
		root.End()
		r.failed++
		return nil
	}
	span = root.Child("graph.compact")
	g := next.Compact()
	t2 := time.Now()
	span.End()
	span = root.Child("dyn.update")
	part, rep, err := m.Update(ctx, g, applied.Effective)
	t3 := time.Now()
	span.End()
	root.End()
	r.opTime += t3.Sub(t0)
	if err != nil {
		r.failed++
		return nil
	}
	cls.op.add(t3.Sub(t0))
	cls.apply.add(t1.Sub(t0))
	cls.compact.add(t2.Sub(t1))
	cls.update.add(t3.Sub(t2))
	cls.region = append(cls.region, float64(rep.Region))
	cls.damaged = append(cls.damaged, float64(rep.Damaged))
	cls.fellBack = append(cls.fellBack, b2f(rep.FellBack))

	if len(applied.Effective) != len(batch) {
		return fmt.Errorf("op %d: %d of %d mutations took effect; the stream lost track of the graph", id, len(applied.Effective), len(batch))
	}
	check := r.tracer.Start("repair-torus.check", obs.KV{K: "op", V: int64(id)})
	span = check.Child("decomp.run")
	t4 := time.Now()
	ref, err := m.Plan().Run(ctx, g)
	cls.recompute.add(time.Since(t4))
	span.End()
	check.End()
	if err != nil {
		return fmt.Errorf("op %d: from-scratch run: %w", id, err)
	}
	if err := samePartition(part, ref); err != nil {
		return fmt.Errorf("op %d (maintainer %d): repaired partition differs from a from-scratch run: %w", id, mi, err)
	}
	return nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func repairTorus(cfg config) (*result, error) {
	ctx := context.Background()
	// The plans' seeds are fixed: only the mutation streams vary with the
	// workload seed, so whether a maintainer's repairs fall back to
	// recompute is a property of the benchmark, not of the run.
	plans := make([]*decomp.Plan, maintainers)
	for i := range plans {
		pl, err := decomp.Compile("elkin-neiman", decomp.WithForceComplete(), decomp.WithSeed(uint64(i+1)))
		if err != nil {
			return nil, err
		}
		plans[i] = pl
	}
	res := newResult()

	// Set up several times; report the median and keep the last.
	var set *repairSet
	var setups []time.Duration
	var parts [][2]float64
	for range setupRepeats {
		set = nil
		heapAfterGC()
		start := time.Now()
		var err error
		if set, err = bootRepair(plans); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start))
		parts = append(parts, [2]float64{set.buildMs, set.bootMs})
	}
	mid := medianRun(setups)
	res.e2e["setup_s"] = setups[mid].Seconds()
	res.layers["graph.build_ms"] = parts[mid][0]
	res.layers["dyn.bootstrap_ms"] = parts[mid][1]
	res.notef("setup: %d set-ups of %d torus builds + dyn.NewMaintainer at n=%d: %v (median %.4g s)",
		setupRepeats, maintainers, torusN, setups, setups[mid].Seconds())

	streams := make([]*churn, maintainers)
	for i := range streams {
		q := smallQuarter
		if classOf(i) == 1 {
			q = largeQuarter
		}
		streams[i] = newChurn(cfg.seed, i, torusSide, q)
	}
	// One warm-up round, checked but not measured: a stream's first batch
	// has no predecessor to undo, so it is half the size of the rest.
	plain := &repairRun{set: set, streams: streams}
	for range maintainers {
		if err := plain.op(ctx); err != nil {
			return nil, err
		}
	}
	plain = &repairRun{set: set, streams: streams, next: plain.next}
	measure := cfg.measure
	if cfg.traced() {
		measure /= 2
	}
	if err := plain.measure(ctx, measure); err != nil {
		return nil, err
	}
	runs := []*repairRun{plain}
	var traced *repairRun
	if cfg.traced() {
		traced = &repairRun{set: set, streams: streams, next: plain.next, tracer: cfg.tracer}
		if err := traced.measure(ctx, measure); err != nil {
			return nil, err
		}
		runs = append(runs, traced)
	}

	var op [2]samples
	var opTime time.Duration
	for _, r := range runs {
		for c := range op {
			op[c] = append(op[c], r.cls[c].op...)
		}
		opTime += r.opTime
		res.failed += r.failed
	}
	completed := len(op[0]) + len(op[1])
	res.attempted = completed + res.failed
	res.e2e["retained_heap_mb"] = heapAfterGC()
	res.e2e["throughput_ops_s"] = float64(completed) / opTime.Seconds()
	res.classSamples("a", fmt.Sprintf("%d-mutation batches, apply+compact+update", 4*smallQuarter), op[0])
	res.classSamples("b", fmt.Sprintf("%d-mutation batches, apply+compact+update", 4*largeQuarter), op[1])
	res.notef("ops: %d round-robin over %d maintainers, %.5g ops/s over %.3g s of op time (checks off the clock)",
		completed, maintainers, res.e2e["throughput_ops_s"], opTime.Seconds())

	if traced != nil {
		for c, name := range [2]string{"small", "large"} {
			l := &traced.cls[c]
			res.layers["dyn.apply_ms."+name] = l.apply.p50()
			res.layers["graph.compact_ms."+name] = l.compact.p50()
			res.layers["dyn.update_ms."+name] = l.update.p50()
			res.layers["dyn.region_vertices."+name] = l.region.mean()
			res.layers["dyn.damaged_vertices."+name] = l.damaged.mean()
			res.layers["dyn.fallback_ratio."+name] = l.fellBack.mean()
			res.layers["dyn.recompute_ms."+name] = l.recompute.p50()
			res.layers["dyn.repair_vs_recompute."+name] = ratio(l.update.p50(), l.recompute.p50())
			res.sumTable(fmt.Sprintf("repair-torus op, %s batches (traced half)", name), l.op.mean(),
				layerRow{"dyn.apply (Overlay.Apply)", l.apply.mean()},
				layerRow{"graph.compact (Overlay.Compact)", l.compact.mean()},
				layerRow{"dyn.update (Maintainer.Update)", l.update.mean()})
		}
		res.layers["trace.overhead_pct"] = pct(traced.cls[0].op.p50()-plain.cls[0].op.p50(), plain.cls[0].op.p50())
		res.zeroLayers()
	}
	res.notef("checks: every op's mutations all effective; every repaired partition equal (ClusterOf, colors) to a from-scratch Plan.Run")
	return res, nil
}
