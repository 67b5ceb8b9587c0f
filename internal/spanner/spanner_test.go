package spanner

import (
	"context"
	"testing"

	"netdecomp/internal/core"
	"netdecomp/internal/decomp"
	"netdecomp/internal/gen"
	"netdecomp/internal/graph"
	"netdecomp/internal/randx"
)

func buildDec(t *testing.T, g *graph.Graph, k int, seed uint64) *core.Decomposition {
	t.Helper()
	dec, err := core.Run(g, core.Options{K: k, C: 8, Seed: seed, ForceComplete: true})
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

func TestSpannerIsSubgraphAndConnected(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"gnp":  gen.GnpConnected(randx.New(1), 300, 0.02),
		"grid": gen.Grid(15, 15),
		"roc":  gen.RingOfCliques(12, 6),
	}
	for name, g := range graphs {
		dec := buildDec(t, g, 4, 3)
		s, err := Build(g, &dec.Partition)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Subgraph: every spanner edge is a graph edge.
		for _, e := range s.G.Edges() {
			if !g.HasEdge(e[0], e[1]) {
				t.Fatalf("%s: spanner edge %v not in G", name, e)
			}
		}
		if !s.G.IsConnected() {
			t.Fatalf("%s: spanner disconnected", name)
		}
		if s.Edges != s.TreeEdges+s.BridgeEdges {
			t.Fatalf("%s: edge split inconsistent: %d != %d+%d", name, s.Edges, s.TreeEdges, s.BridgeEdges)
		}
	}
}

func TestSpannerSparsifiesDenseGraphs(t *testing.T) {
	// On a dense random graph the skeleton must drop most edges: tree
	// edges are < n and bridges are bounded by cluster adjacencies.
	g := gen.Gnp(randx.New(2), 300, 0.1) // ~4485 edges
	dec := buildDec(t, g, 4, 5)
	s, err := Build(g, &dec.Partition)
	if err != nil {
		t.Fatal(err)
	}
	if s.TreeEdges >= g.N() {
		t.Fatalf("tree edges %d should be < n=%d", s.TreeEdges, g.N())
	}
	if s.Edges >= g.M() {
		t.Fatalf("spanner has %d edges, input %d — no sparsification", s.Edges, g.M())
	}
}

func TestSpannerStretch(t *testing.T) {
	g := gen.GnpConnected(randx.New(3), 250, 0.02)
	dec := buildDec(t, g, 4, 7)
	s, err := Build(g, &dec.Partition)
	if err != nil {
		t.Fatal(err)
	}
	max, mean, err := s.StretchSample(g, 9, 60)
	if err != nil {
		t.Fatal(err)
	}
	if max < 1 || mean < 1 {
		t.Fatalf("stretch below 1: max=%v mean=%v", max, mean)
	}
	// A loose sanity ceiling: stretch is governed by cluster diameter and
	// the color sweep; for k=4 it should stay well below this.
	diam, disconnected := dec.StrongDiameter(g)
	if disconnected != 0 {
		t.Fatal("disconnected cluster")
	}
	limit := float64(4*(diam+1) + 8)
	if max > limit {
		t.Fatalf("max stretch %v implausibly large (cluster diam %d)", max, diam)
	}
}

func TestSpannerOnTreeIsTree(t *testing.T) {
	g := gen.RandomTree(randx.New(4), 200)
	dec := buildDec(t, g, 3, 11)
	s, err := Build(g, &dec.Partition)
	if err != nil {
		t.Fatal(err)
	}
	// A spanning connected subgraph of a tree is the tree itself.
	if s.Edges != g.M() {
		t.Fatalf("tree spanner has %d edges, want %d", s.Edges, g.M())
	}
	max, _, err := s.StretchSample(g, 1, 40)
	if err != nil {
		t.Fatal(err)
	}
	if max != 1 {
		t.Fatalf("tree stretch = %v, want 1", max)
	}
}

func TestSpannerRejectsIncomplete(t *testing.T) {
	g := gen.GnpConnected(randx.New(5), 200, 0.02)
	dec, err := core.Run(g, core.Options{K: 3, C: 8, Seed: 1, PhaseBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Complete {
		t.Skip("single phase completed")
	}
	if _, err := Build(g, &dec.Partition); err == nil {
		t.Fatal("incomplete decomposition accepted")
	}
}

func TestSpannerSingletonClusters(t *testing.T) {
	// k=1 yields singleton clusters: no tree edges, all bridges.
	g := gen.Cycle(24)
	dec, err := core.Run(g, core.Options{K: 1, C: 8, Seed: 2, ForceComplete: true, RadiusMode: core.RadiusExact})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build(g, &dec.Partition)
	if err != nil {
		t.Fatal(err)
	}
	if !s.G.IsConnected() {
		t.Fatal("singleton-cluster spanner disconnected")
	}
}

func TestSpannerEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0).Build()
	dec, err := core.Run(g, core.Options{K: 2, C: 8})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build(g, &dec.Partition)
	if err != nil {
		t.Fatal(err)
	}
	if s.Edges != 0 {
		t.Fatal("empty spanner has edges")
	}
	if _, _, err := s.StretchSample(g, 1, 10); err != nil {
		t.Fatal(err)
	}
}

func TestSpannerFromWeakDiameterPartition(t *testing.T) {
	// Linial–Saks clusters can be disconnected; the piece refinement must
	// still yield a connected spanning skeleton.
	g := gen.GnpConnected(randx.New(6), 250, 0.02)
	d, err := decomp.MustGet("linial-saks").Decompose(context.Background(), g,
		decomp.WithK(4), decomp.WithSeed(3), decomp.WithForceComplete())
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build(g, d)
	if err != nil {
		t.Fatal(err)
	}
	if !s.G.IsConnected() {
		t.Fatal("weak-diameter spanner disconnected")
	}
	if s.Pieces < len(d.Clusters) {
		t.Fatalf("refinement produced %d pieces for %d clusters", s.Pieces, len(d.Clusters))
	}
	for _, e := range s.G.Edges() {
		if !g.HasEdge(e[0], e[1]) {
			t.Fatalf("spanner edge %v not in G", e)
		}
	}
}
