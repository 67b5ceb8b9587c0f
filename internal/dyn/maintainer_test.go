package dyn

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"netdecomp/internal/core"
	"netdecomp/internal/decomp"
	"netdecomp/internal/dist"
	"netdecomp/internal/gen"
	"netdecomp/internal/graph"
	"netdecomp/internal/obs"
	"netdecomp/internal/randx"
)

// stripped zeroes the fields a repair is allowed to differ on: Metrics is
// the account of the producing execution, and a repair's own (much smaller)
// traffic IS the speedup. Everything else must match bit-for-bit.
func stripped(p *decomp.Partition) decomp.Partition {
	cp := p.Clone()
	cp.Metrics = dist.Metrics{}
	return *cp
}

func requireEquivalent(t *testing.T, got, want *decomp.Partition, msg string) {
	t.Helper()
	g, w := stripped(got), stripped(want)
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: repaired partition differs from from-scratch run\n got: %+v\nwant: %+v", msg, g, w)
	}
}

// maintainerPlans covers every repairable configuration class: all three
// theorem regimes, the exact-radius mode, and forced completion.
func maintainerPlans(t *testing.T) []*decomp.Plan {
	t.Helper()
	specs := []struct {
		name string
		opts []decomp.Option
	}{
		{"elkin-neiman", nil},
		{"elkin-neiman", []decomp.Option{decomp.WithForceComplete()}},
		{"elkin-neiman/theorem2", []decomp.Option{decomp.WithForceComplete()}},
		{"elkin-neiman/theorem3", []decomp.Option{decomp.WithLambda(2), decomp.WithForceComplete()}},
		{"elkin-neiman", []decomp.Option{decomp.WithExactRadius(), decomp.WithForceComplete()}},
	}
	pls := make([]*decomp.Plan, 0, len(specs))
	for _, s := range specs {
		pl, err := decomp.Compile(s.name, append(s.opts, decomp.WithSeed(0xd15ea5e))...)
		if err != nil {
			t.Fatalf("compile %s: %v", s.name, err)
		}
		pls = append(pls, pl)
	}
	return pls
}

// TestMaintainerBitEquivalence is the tentpole property: across algorithms,
// random graphs, and successive random mutation batches, the repaired
// partition equals a from-scratch run on the mutated graph in every field
// except Metrics.
func TestMaintainerBitEquivalence(t *testing.T) {
	ctx := context.Background()
	rng := randx.New(0xbeef)
	graphs := []struct {
		name string
		n    int
		p    float64
	}{
		{"sparse", 96, 0.03},
		{"medium", 128, 0.06},
		{"dense", 64, 0.18},
	}
	for _, pl := range maintainerPlans(t) {
		for _, gs := range graphs {
			base := gen.GnpConnected(rng, gs.n, gs.p)
			o := Wrap(base)
			m, err := NewMaintainer(ctx, pl, o, Config{})
			if err != nil {
				t.Fatalf("%s/%s: NewMaintainer: %v", pl.Name(), gs.name, err)
			}
			if !m.Repairable() {
				t.Fatalf("%s: expected repairable plan", pl.Name())
			}
			// Bootstrap itself must match a plain Run.
			want, err := pl.Run(ctx, o)
			if err != nil {
				t.Fatal(err)
			}
			requireEquivalent(t, m.Partition(), want, pl.Name()+"/"+gs.name+"/bootstrap")

			model := modelOf(o)
			for round := 0; round < 4; round++ {
				batch := randomBatch(rng, model, gs.n, 1+rng.Intn(6))
				next, res, err := o.Apply(batch)
				if err != nil {
					t.Fatal(err)
				}
				for _, mut := range batch {
					model.apply(mut)
				}
				got, rep, err := m.Update(ctx, next, res.Effective)
				if err != nil {
					t.Fatalf("%s/%s round %d: Update: %v", pl.Name(), gs.name, round, err)
				}
				want, err := pl.Run(ctx, next)
				if err != nil {
					t.Fatal(err)
				}
				requireEquivalent(t, got, want,
					pl.Name()+"/"+gs.name)
				if !rep.Repaired && !rep.FellBack {
					t.Fatalf("%s: repairable plan neither repaired nor fell back: %+v", pl.Name(), rep)
				}
				o = next
			}
		}
	}
}

// TestMaintainerEmptyBatch pins that an Update with no effective mutations
// (all no-ops) still lands on the right graph version and partition.
func TestMaintainerEmptyBatch(t *testing.T) {
	ctx := context.Background()
	rng := randx.New(3)
	pl, err := decomp.Compile("elkin-neiman", decomp.WithForceComplete(), decomp.WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	o := Wrap(gen.GnpConnected(rng, 64, 0.08))
	m, err := NewMaintainer(ctx, pl, o, Config{})
	if err != nil {
		t.Fatal(err)
	}
	before := m.Partition()
	// Insert an edge that already exists: a pure no-op batch.
	u := int32(0)
	v := o.Neighbors(0)[0]
	next, res, err := o.Apply(Batch{{Op: OpInsert, U: u, V: v}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Noops != 1 || len(res.Effective) != 0 {
		t.Fatalf("expected pure no-op, got %+v", res)
	}
	got, rep, err := m.Update(ctx, next, res.Effective)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Repaired {
		t.Fatalf("no-op update should repair trivially: %+v", rep)
	}
	requireEquivalent(t, got, before, "no-op batch")
	if m.Graph() != next {
		t.Fatal("maintainer did not advance to the new graph version")
	}
}

// TestMaintainerFallback drives repair past its region cap — a batch whose
// distinct endpoints exceed a quarter of the vertices seeds a larger region
// at phase 0 — and checks the fallback still produces the from-scratch
// answer, is counted under its cause, and leaves state the next small
// update repairs from.
func TestMaintainerFallback(t *testing.T) {
	const n = 80
	ctx := context.Background()
	rng := randx.New(17)
	pl, err := decomp.Compile("elkin-neiman", decomp.WithForceComplete(), decomp.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	o := Wrap(gen.GnpConnected(rng, n, 0.08))
	rec := obs.New(obs.NewRegistry(), nil)
	m, err := NewMaintainer(ctx, pl, o, Config{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	batch := randomBatch(rng, modelOf(o), n, 40)
	next, res, err := o.Apply(batch)
	if err != nil {
		t.Fatal(err)
	}
	endpoints := map[int32]bool{}
	for _, mut := range res.Effective {
		endpoints[mut.U], endpoints[mut.V] = true, true
	}
	if len(endpoints) <= n/4 {
		t.Fatalf("batch touches %d distinct endpoints, want more than %d", len(endpoints), n/4)
	}
	got, rep, err := m.Update(ctx, next, res.Effective)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FellBack || !strings.Contains(rep.Reason, "exceeds cap") {
		t.Fatalf("expected the region-cap fallback with %d damaged endpoints on %d vertices, got %+v", len(endpoints), n, rep)
	}
	for _, c := range core.FallbackCauses {
		want := int64(0)
		if c == core.CauseRegionCap {
			want = 1
		}
		if got := rec.Counter("dyn.repair.abandon." + string(c)).Value(); got != want {
			t.Fatalf("dyn.repair.abandon.%s = %d, want %d", c, got, want)
		}
	}
	want, err := pl.Run(ctx, next)
	if err != nil {
		t.Fatal(err)
	}
	requireEquivalent(t, got, want, "fallback")
	// A fallback refreshes the repair state: the next small update repairs.
	batch2 := randomBatch(rng, modelOf(next), n, 2)
	next2, res2, err := next.Apply(batch2)
	if err != nil {
		t.Fatal(err)
	}
	got2, rep2, err := m.Update(ctx, next2, res2.Effective)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Repaired {
		t.Fatalf("update after a fallback did not repair: %+v", rep2)
	}
	want2, err := pl.Run(ctx, next2)
	if err != nil {
		t.Fatal(err)
	}
	requireEquivalent(t, got2, want2, "post-fallback")
}

// TestMaintainerNonRepairable pins the recompute path for plans off the
// sequential core: updates still track the from-scratch answer.
func TestMaintainerNonRepairable(t *testing.T) {
	ctx := context.Background()
	rng := randx.New(29)
	pl, err := decomp.Compile("mpx", decomp.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	o := Wrap(gen.GnpConnected(rng, 64, 0.08))
	m, err := NewMaintainer(ctx, pl, o, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Repairable() {
		t.Fatal("mpx must not claim the repair path")
	}
	batch := randomBatch(rng, modelOf(o), 64, 6)
	next, res, err := o.Apply(batch)
	if err != nil {
		t.Fatal(err)
	}
	got, rep, err := m.Update(ctx, next, res.Effective)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repaired || rep.FellBack {
		t.Fatalf("non-repairable plan reported repair: %+v", rep)
	}
	want, err := pl.Run(ctx, next)
	if err != nil {
		t.Fatal(err)
	}
	requireEquivalent(t, got, want, "mpx recompute")
}

// TestMaintainerForceRecompute pins the benchmark baseline mode.
func TestMaintainerForceRecompute(t *testing.T) {
	ctx := context.Background()
	rng := randx.New(41)
	pl, err := decomp.Compile("elkin-neiman", decomp.WithForceComplete(), decomp.WithSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	o := Wrap(gen.GnpConnected(rng, 64, 0.08))
	m, err := NewMaintainer(ctx, pl, o, Config{ForceRecompute: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.Repairable() {
		t.Fatal("ForceRecompute must disable the repair path")
	}
	batch := randomBatch(rng, modelOf(o), 64, 4)
	next, res, err := o.Apply(batch)
	if err != nil {
		t.Fatal(err)
	}
	got, rep, err := m.Update(ctx, next, res.Effective)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repaired || rep.Reason != "recompute forced" {
		t.Fatalf("got %+v", rep)
	}
	want, err := pl.Run(ctx, next)
	if err != nil {
		t.Fatal(err)
	}
	requireEquivalent(t, got, want, "forced recompute")
}

// TestMaintainerTelemetry checks the dyn.repair.* instruments move.
func TestMaintainerTelemetry(t *testing.T) {
	ctx := context.Background()
	rng := randx.New(53)
	rec := obs.New(obs.NewRegistry(), nil)
	pl, err := decomp.Compile("elkin-neiman", decomp.WithForceComplete(), decomp.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	o := Wrap(gen.GnpConnected(rng, 64, 0.08))
	m, err := NewMaintainer(ctx, pl, o, Config{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		batch := randomBatch(rng, modelOf(o), 64, 2)
		next, res, err := o.Apply(batch)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := m.Update(ctx, next, res.Effective); err != nil {
			t.Fatal(err)
		}
		o = next
	}
	repairs := rec.Counter("dyn.repair.repairs").Value()
	fallbacks := rec.Counter("dyn.repair.fallbacks").Value()
	if repairs+fallbacks != 3 {
		t.Fatalf("repairs=%d fallbacks=%d, want 3 total", repairs, fallbacks)
	}
	if got := rec.Histogram("dyn.repair.clusters.total").Snapshot().Count; got != 3 {
		t.Fatalf("dyn.repair.clusters.total count = %d, want 3", got)
	}
	nsCount := rec.Histogram("dyn.repair.ns").Snapshot().Count +
		rec.Histogram("dyn.repair.recompute.ns").Snapshot().Count
	if nsCount != 3 {
		t.Fatalf("latency histogram count = %d, want 3", nsCount)
	}
}

// TestMaintainerHeapPlateau pins that a maintainer retains state for its
// current graph only, not for every update it has served: under
// torus churn its live heap stops growing once the churn is steady. Each
// 1% batch undoes its predecessor, then fails q torus links and adds q
// shortcuts, so the graph itself never grows.
func TestMaintainerHeapPlateau(t *testing.T) {
	const side, updates, settled = 128, 60, 10
	ctx := context.Background()
	g := gen.Torus(side, side)
	pl, err := decomp.Compile("elkin-neiman", decomp.WithSeed(11), decomp.WithForceComplete())
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMaintainer(ctx, pl, g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	edge := func(op Op, u, v int) Mutation {
		if u > v {
			u, v = v, u
		}
		return Mutation{Op: op, U: int32(u), V: int32(v)}
	}
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	n, q := side*side, graph.EdgeCount(g)/100/4
	rng := randx.New(0x4ea9)
	var failed, shortcuts []Mutation
	var heapSettled uint64
	for u := 1; u <= updates; u++ {
		var batch Batch
		for _, f := range failed {
			batch = append(batch, Mutation{Op: OpInsert, U: f.U, V: f.V})
		}
		for _, s := range shortcuts {
			batch = append(batch, Mutation{Op: OpDelete, U: s.U, V: s.V})
		}
		seen := map[Mutation]bool{}
		failed, shortcuts = failed[:0], shortcuts[:0]
		for len(failed) < q {
			v := rng.Intn(n)
			r, c := v/side, v%side
			w := r*side + (c+1)%side
			if rng.Intn(2) == 0 {
				w = (r+1)%side*side + c
			}
			if f := edge(OpDelete, v, w); !seen[f] {
				seen[f] = true
				failed = append(failed, f)
			}
		}
		for len(shortcuts) < q {
			v, w := rng.Intn(n), rng.Intn(n)
			if v == w || rowHas(g.Neighbors(v), int32(w)) {
				continue
			}
			if s := edge(OpInsert, v, w); !seen[s] {
				seen[s] = true
				shortcuts = append(shortcuts, s)
			}
		}
		batch = append(append(batch, failed...), shortcuts...)
		next, res, err := Wrap(m.Graph()).Apply(batch)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := m.Update(ctx, next.Compact(), res.Effective); err != nil {
			t.Fatalf("update %d: %v", u, err)
		}
		switch u {
		case settled:
			heapSettled = liveHeap()
		case updates:
			heap := liveHeap()
			t.Logf("live heap %.1f MB at update %d, %.1f MB at update %d",
				float64(heapSettled)/(1<<20), settled, float64(heap)/(1<<20), updates)
			if float64(heap) > 1.25*float64(heapSettled)+(1<<20) {
				t.Fatalf("live heap grew from %d B at update %d to %d B at update %d", heapSettled, settled, heap, updates)
			}
		}
	}
	runtime.KeepAlive(m)
}
