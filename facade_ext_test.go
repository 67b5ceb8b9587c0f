package netdecomp_test

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"netdecomp"
)

// TestFacadeCoverAndSpanner exercises the derived-structure exports.
func TestFacadeCoverAndSpanner(t *testing.T) {
	g := netdecomp.GnpConnected(netdecomp.NewRNG(21), 200, 0.02)

	c, err := netdecomp.BuildCover(g, netdecomp.CoverOptions{W: 1, K: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Verify(g); err != nil {
		t.Fatal(err)
	}
	if c.Degree > c.Colors {
		t.Fatalf("cover degree %d exceeds chi %d", c.Degree, c.Colors)
	}

	p, err := netdecomp.MustGet("elkin-neiman").Decompose(context.Background(), g,
		netdecomp.WithK(4), netdecomp.WithC(8), netdecomp.WithSeed(2), netdecomp.WithForceComplete())
	if err != nil {
		t.Fatal(err)
	}
	sp, err := netdecomp.BuildSpannerFrom(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if !sp.G.IsConnected() {
		t.Fatal("spanner disconnected")
	}
	if _, _, err := sp.StretchSample(g, 1, 20); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeGraphIO exercises the interchange round trip.
func TestFacadeGraphIO(t *testing.T) {
	g := netdecomp.Grid(6, 6)
	var buf bytes.Buffer
	if err := netdecomp.WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := netdecomp.ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatal("graph IO round trip changed the graph")
	}
}

// TestFacadeExtraBaselines exercises RandomColoring and the engine-backed
// MPX.
func TestFacadeExtraBaselines(t *testing.T) {
	g := netdecomp.RingOfCliques(6, 5)
	col, err := netdecomp.RandomColoring(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if col.NumColors > g.MaxDegree()+1 {
		t.Fatalf("random coloring used %d colors", col.NumColors)
	}
	ctx := context.Background()
	a, err := netdecomp.MustGet("mpx").Decompose(ctx, g, netdecomp.WithBeta(0.3), netdecomp.WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	b, err := netdecomp.MustGet("mpx/dist").Decompose(ctx, g, netdecomp.WithBeta(0.3), netdecomp.WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	if a.CutEdges != b.CutEdges || len(a.Clusters) != len(b.Clusters) {
		t.Fatal("MPX implementations disagree through the facade")
	}
}

// TestFacadeBallCarving exercises the sequential yardstick baseline.
func TestFacadeBallCarving(t *testing.T) {
	g := netdecomp.Grid(10, 10)
	p, err := netdecomp.MustGet("ball-carving").Decompose(context.Background(), g, netdecomp.WithK(7))
	if err != nil {
		t.Fatal(err)
	}
	if !p.Complete {
		t.Fatal("ball carving incomplete")
	}
	if sd, disc := p.StrongDiameter(g); disc != 0 || sd > 14 {
		t.Fatalf("ball carving diameter %d (disc %d)", sd, disc)
	}
}

// TestFacadeViewDecompose drives the CSR-redesign surface end to end: take
// a zero-copy view of a subgraph, decompose the view through the registry,
// and verify the partition against the view — plus fingerprint stability
// across rebuild paths.
func TestFacadeViewDecompose(t *testing.T) {
	g := netdecomp.GnpConnected(netdecomp.NewRNG(31), 300, 0.01)

	// A view over a vertex range, and the component view of vertex 0.
	members := make([]int, 150)
	for i := range members {
		members[i] = i
	}
	view, orig, err := netdecomp.InducedSubgraph(g, members)
	if err != nil {
		t.Fatal(err)
	}
	if view.N() != 150 || orig[42] != 42 {
		t.Fatalf("view shape wrong: n=%d orig[42]=%d", view.N(), orig[42])
	}
	comp := netdecomp.ComponentOf(g, 0)
	if comp.N() != g.N() {
		t.Fatalf("GnpConnected must be connected: component %d of %d", comp.N(), g.N())
	}

	d := netdecomp.MustGet("elkin-neiman")
	p, err := d.Decompose(nil, view, netdecomp.WithSeed(5), netdecomp.WithForceComplete())
	if err != nil {
		t.Fatal(err)
	}
	if !p.Complete || p.N != view.N() {
		t.Fatalf("view decomposition wrong: %v", p)
	}
	if rep := netdecomp.VerifyPartition(view, p); !rep.Valid() {
		t.Fatalf("view partition invalid: %v", rep.Err())
	}

	// The same subgraph decomposed as a materialized Graph must give the
	// same clusters: views are transparent to the algorithms.
	p2, err := d.Decompose(nil, view.Materialize(), netdecomp.WithSeed(5), netdecomp.WithForceComplete())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Clusters) != len(p2.Clusters) || p.Colors != p2.Colors {
		t.Fatalf("view vs materialized decomposition differ: %v vs %v", p, p2)
	}

	// Fingerprints: stable across rebuild paths, different for the sub- and
	// host graph.
	if netdecomp.GraphFingerprint(view) != netdecomp.GraphFingerprint(view.Materialize()) {
		t.Fatal("view and materialized fingerprints differ")
	}
	if netdecomp.GraphFingerprint(view) == netdecomp.GraphFingerprint(g) {
		t.Fatal("subgraph shares the host graph's fingerprint")
	}
	rebuilt := netdecomp.FromEdgeStream(g.N(), func(yield func(u, v int)) {
		for u, v := range g.EdgeSeq() {
			yield(u, v)
		}
	})
	if netdecomp.GraphFingerprint(rebuilt) != netdecomp.GraphFingerprint(g) {
		t.Fatal("stream rebuild changed the fingerprint")
	}
}

// TestFacadePipeline exercises the pipeline exports end to end: build a
// typed stage DAG through the facade, run it with a session attached, and
// check the warm rerun rides the cache while the observer sees every
// stage.
func TestFacadePipeline(t *testing.T) {
	ctx := context.Background()
	g := netdecomp.GnpConnected(netdecomp.NewRNG(17), 250, 0.02)

	pl, err := netdecomp.Compile("elkin-neiman",
		netdecomp.WithSeed(11), netdecomp.WithForceComplete())
	if err != nil {
		t.Fatal(err)
	}
	p, err := netdecomp.NewPipeline().
		AddStage("dec", netdecomp.DecomposeStage(pl)).
		AddStage("re", netdecomp.RecolorStage()).
		AddStage("mis", netdecomp.MISStage()).
		AddStage("sp", netdecomp.SpannerStage()).
		AddEdge("dec", "re").
		AddEdge("re", "mis").
		AddEdge("dec", "sp").
		Build()
	if err != nil {
		t.Fatal(err)
	}

	s := netdecomp.NewSession(netdecomp.WithSessionCacheSize(16))
	defer s.Close()
	var events int
	res, err := netdecomp.RunPipeline(ctx, p, g,
		netdecomp.PipelineSession(s), netdecomp.PipelineWorkers(2),
		netdecomp.PipelineObserver(func(netdecomp.PipelineStageEvent) { events++ }))
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits != 0 || events != 8 {
		t.Fatalf("cold run: hits=%d events=%d, want 0 hits, 8 events", res.CacheHits, events)
	}
	direct, err := netdecomp.RunPlan(ctx, pl, g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Partition("dec"), direct) {
		t.Fatal("pipeline decompose differs from direct plan run")
	}
	if mis := res.Stage("mis").MIS; mis == nil || mis.Size == 0 {
		t.Fatal("pipeline MIS empty")
	}
	warm, err := netdecomp.RunPipeline(ctx, p, g, netdecomp.PipelineSession(s))
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheHits != 1 {
		t.Fatalf("warm rerun cache hits = %d, want 1", warm.CacheHits)
	}

	// The JSON wire form compiles to the same DAG shape.
	spec, err := netdecomp.ParsePipelineSpec([]byte(`{
		"stages": [
			{"id": "dec", "decompose": {"algorithm": "elkin-neiman", "seed": 11, "forceComplete": true}},
			{"id": "re", "recolor": {}},
			{"id": "mis", "mis": {}},
			{"id": "sp", "spanner": {}}
		],
		"edges": [
			{"from": "dec", "to": "re"},
			{"from": "re", "to": "mis"},
			{"from": "dec", "to": "sp"}
		]}`))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Levels(), p2.Levels()) {
		t.Fatalf("spec levels %v differ from builder levels %v", p2.Levels(), p.Levels())
	}
}

// TestFacadePlanSession exercises the Plan/Session exports end to end:
// compile, direct plan run, session serving with cache hits, the batch
// API, and derived structures riding the session cache.
func TestFacadePlanSession(t *testing.T) {
	ctx := context.Background()
	g := netdecomp.GnpConnected(netdecomp.NewRNG(31), 300, 0.02)

	pl, err := netdecomp.Compile("elkin-neiman",
		netdecomp.WithSeed(4), netdecomp.WithForceComplete())
	if err != nil {
		t.Fatal(err)
	}
	direct, err := netdecomp.RunPlan(ctx, pl, g)
	if err != nil {
		t.Fatal(err)
	}
	oneShot, err := netdecomp.MustGet("elkin-neiman").Decompose(ctx, g,
		netdecomp.WithSeed(4), netdecomp.WithForceComplete())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, oneShot) {
		t.Fatal("Compile+RunPlan differs from one-shot Decompose")
	}

	s := netdecomp.NewSession(netdecomp.WithSessionWorkers(2),
		netdecomp.WithSessionCacheSize(16))
	defer s.Close()
	cold, err := s.Run(ctx, pl, g)
	if err != nil {
		t.Fatal(err)
	}
	warm := s.Submit(ctx, pl, g)
	warmP, err := warm.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit() {
		t.Error("second identical job was not a cache hit")
	}
	if !reflect.DeepEqual(cold, warmP) || !reflect.DeepEqual(cold, direct) {
		t.Error("session results differ from direct plan run")
	}
	if st := s.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", st)
	}

	reqs := []netdecomp.SessionRequest{
		{Plan: pl, Graph: g},
		{Plan: pl.WithSeed(5), Graph: g},
	}
	seen := 0
	for res := range s.SubmitAll(ctx, reqs) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		seen++
	}
	if seen != len(reqs) {
		t.Fatalf("SubmitAll delivered %d results, want %d", seen, len(reqs))
	}

	sp, err := netdecomp.BuildSpannerFromPlan(ctx, g, s, pl)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Edges == 0 {
		t.Error("empty spanner")
	}
	before := s.Stats().Misses
	if _, err := netdecomp.BuildCover(g, netdecomp.CoverOptions{W: 1, K: 3, Seed: 2, Session: s}); err != nil {
		t.Fatal(err)
	}
	if _, err := netdecomp.BuildCover(g, netdecomp.CoverOptions{W: 1, K: 3, Seed: 2, Session: s}); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if after.Misses != before+1 {
		t.Errorf("repeated cover build re-decomposed: misses %d -> %d (want one new miss, then a hit)",
			before, after.Misses)
	}
}
