package graph

import (
	"testing"

	"netdecomp/internal/randx"
)

// path builds a path 0-1-2-...-(n-1).
func path(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	return b.Build()
}

// cycle builds a cycle on n vertices.
func cycle(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
	}
	return b.Build()
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	if g.N() != 0 || g.M() != 0 {
		t.Fatalf("empty graph reports n=%d m=%d", g.N(), g.M())
	}
	if !g.IsConnected() {
		t.Fatal("empty graph should count as connected")
	}
	if d := g.Diameter(); d != 0 {
		t.Fatalf("empty graph diameter = %d", d)
	}
}

func TestZeroValueGraph(t *testing.T) {
	var g Graph
	if g.N() != 0 || g.M() != 0 || g.MaxDegree() != 0 {
		t.Fatal("zero-value Graph is not the empty graph")
	}
	if s := g.Splice(nil); s.N() != 0 || s.M() != 0 {
		t.Fatalf("Splice of the zero-value Graph: n=%d m=%d", s.N(), s.M())
	}
}

func TestBuilderDedupAndSelfLoops(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate, reversed
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(2, 2) // self loop, dropped
	g := b.Build()
	if g.M() != 1 {
		t.Fatalf("expected 1 edge after dedup, got %d", g.M())
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 || g.Degree(2) != 0 {
		t.Fatalf("degrees wrong: %d %d %d", g.Degree(0), g.Degree(1), g.Degree(2))
	}
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range AddEdge did not panic")
		}
	}()
	NewBuilder(2).AddEdge(0, 2)
}

func TestHasEdge(t *testing.T) {
	g := path(4)
	cases := []struct {
		u, v int
		want bool
	}{
		{0, 1, true}, {1, 0, true}, {1, 2, true}, {0, 2, false}, {0, 3, false},
	}
	for _, c := range cases {
		if got := g.HasEdge(c.u, c.v); got != c.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
}

func TestEdgesListing(t *testing.T) {
	g := cycle(4)
	edges := g.Edges()
	if len(edges) != 4 {
		t.Fatalf("cycle(4) has %d edges, want 4", len(edges))
	}
	for _, e := range edges {
		if e[0] >= e[1] {
			t.Fatalf("edge %v not in canonical order", e)
		}
	}
}

func TestBFSPath(t *testing.T) {
	g := path(5)
	dist := g.BFS(0)
	for v := 0; v < 5; v++ {
		if dist[v] != v {
			t.Fatalf("dist[%d] = %d, want %d", v, dist[v], v)
		}
	}
}

func TestBFSDisconnected(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	g := b.Build()
	dist := g.BFS(0)
	if dist[2] != Unreachable || dist[3] != Unreachable {
		t.Fatalf("distances to other component should be Unreachable, got %v", dist)
	}
}

func TestBFSWithinRadius(t *testing.T) {
	g := path(10)
	dist := g.BFSWithin(0, 3)
	for v := 0; v < 10; v++ {
		if v <= 3 && dist[v] != v {
			t.Fatalf("dist[%d] = %d inside radius", v, dist[v])
		}
		if v > 3 && dist[v] != Unreachable {
			t.Fatalf("dist[%d] = %d beyond radius", v, dist[v])
		}
	}
}

func TestBFSWithinZeroRadius(t *testing.T) {
	g := path(3)
	dist := g.BFSWithin(1, 0)
	if dist[1] != 0 || dist[0] != Unreachable || dist[2] != Unreachable {
		t.Fatalf("radius-0 BFS wrong: %v", dist)
	}
}

func TestBFSRestricted(t *testing.T) {
	g := path(5)
	alive := []bool{true, true, false, true, true}
	dist := g.BFSRestricted(0, alive, -1)
	if dist[0] != 0 || dist[1] != 1 {
		t.Fatalf("alive prefix distances wrong: %v", dist)
	}
	if dist[2] != Unreachable || dist[3] != Unreachable || dist[4] != Unreachable {
		t.Fatalf("dead vertex 2 should cut the path: %v", dist)
	}
}

func TestBFSRestrictedDeadSource(t *testing.T) {
	g := path(3)
	alive := []bool{false, true, true}
	dist := g.BFSRestricted(0, alive, -1)
	for v, d := range dist {
		if d != Unreachable {
			t.Fatalf("dead source should reach nothing, dist[%d]=%d", v, d)
		}
	}
}

func TestComponents(t *testing.T) {
	b := NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	g := b.Build()
	comp, count := g.Components()
	if count != 3 {
		t.Fatalf("want 3 components, got %d", count)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Fatal("0,1,2 should share a component")
	}
	if comp[3] != comp[4] {
		t.Fatal("3,4 should share a component")
	}
	if comp[5] == comp[0] || comp[5] == comp[3] {
		t.Fatal("5 should be isolated")
	}
}

func TestComponentsRestricted(t *testing.T) {
	g := path(5)
	alive := []bool{true, true, false, true, true}
	comp, count := g.ComponentsRestricted(alive)
	if count != 2 {
		t.Fatalf("want 2 restricted components, got %d", count)
	}
	if comp[2] != -1 {
		t.Fatal("dead vertex must have component -1")
	}
	if comp[0] != comp[1] || comp[3] != comp[4] || comp[0] == comp[3] {
		t.Fatalf("restricted components wrong: %v", comp)
	}
}

func TestComponentsOfSubset(t *testing.T) {
	g := path(6)
	comps := g.ComponentsOfSubset([]int{0, 1, 3, 4, 5})
	if len(comps) != 2 {
		t.Fatalf("want 2 subset components, got %d: %v", len(comps), comps)
	}
	if len(comps[0]) != 2 || comps[0][0] != 0 || comps[0][1] != 1 {
		t.Fatalf("first component wrong: %v", comps[0])
	}
	if len(comps[1]) != 3 || comps[1][0] != 3 {
		t.Fatalf("second component wrong: %v", comps[1])
	}
}

func TestInduced(t *testing.T) {
	g := cycle(6)
	sub, orig, err := g.Induced([]int{0, 1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if sub.N() != 4 {
		t.Fatalf("induced n = %d", sub.N())
	}
	// Edges 0-1 and 1-2 survive; 4 is isolated in the induced graph.
	if sub.M() != 2 {
		t.Fatalf("induced m = %d, want 2", sub.M())
	}
	if orig[3] != 4 {
		t.Fatalf("orig mapping wrong: %v", orig)
	}
}

func TestInducedErrors(t *testing.T) {
	g := path(3)
	if _, _, err := g.Induced([]int{0, 0}); err == nil {
		t.Fatal("duplicate vertex not rejected")
	}
	if _, _, err := g.Induced([]int{5}); err == nil {
		t.Fatal("out-of-range vertex not rejected")
	}
}

func TestDiameter(t *testing.T) {
	cases := []struct {
		g    *Graph
		want int
	}{
		{path(1), 0},
		{path(2), 1},
		{path(7), 6},
		{cycle(8), 4},
		{cycle(9), 4},
	}
	for i, c := range cases {
		if got := c.g.Diameter(); got != c.want {
			t.Errorf("case %d: diameter = %d, want %d", i, got, c.want)
		}
	}
}

func TestEccentricity(t *testing.T) {
	g := path(5)
	if e := g.Eccentricity(2, nil); e != 2 {
		t.Fatalf("center eccentricity = %d, want 2", e)
	}
	if e := g.Eccentricity(0, nil); e != 4 {
		t.Fatalf("end eccentricity = %d, want 4", e)
	}
}

func TestSubsetStrongDiameter(t *testing.T) {
	g := path(6)
	// {1,2,3} is a connected sub-path of diameter 2.
	if d, ok := g.SubsetStrongDiameter([]int{1, 2, 3}); !ok || d != 2 {
		t.Fatalf("strong diameter = %d,%v want 2,true", d, ok)
	}
	// {0,1,4,5} is disconnected inside the induced subgraph.
	if _, ok := g.SubsetStrongDiameter([]int{0, 1, 4, 5}); ok {
		t.Fatal("disconnected subset reported as connected")
	}
	// Singletons and empty sets are fine.
	if d, ok := g.SubsetStrongDiameter([]int{3}); !ok || d != 0 {
		t.Fatalf("singleton strong diameter = %d,%v", d, ok)
	}
	if d, ok := g.SubsetStrongDiameter(nil); !ok || d != 0 {
		t.Fatalf("empty strong diameter = %d,%v", d, ok)
	}
}

func TestSubsetWeakVsStrong(t *testing.T) {
	// On a cycle, the subset {0, 2} has induced distance infinity (no edge)
	// but weak diameter 2 through vertex 1.
	g := cycle(6)
	if _, ok := g.SubsetStrongDiameter([]int{0, 2}); ok {
		t.Fatal("subset {0,2} should be disconnected in induced graph")
	}
	if d, ok := g.SubsetWeakDiameter([]int{0, 2}); !ok || d != 2 {
		t.Fatalf("weak diameter = %d,%v want 2,true", d, ok)
	}
}

func TestSubsetWeakDiameterDisconnected(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	g := b.Build()
	if _, ok := g.SubsetWeakDiameter([]int{0, 2}); ok {
		t.Fatal("cross-component weak diameter should report ok=false")
	}
}

// randomGraph builds a G(n,p)-style graph without importing internal/gen
// (which depends on this package).
func randomGraph(seed uint64, n int, p float64) *Graph {
	rng := randx.New(seed)
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				b.AddEdge(u, v)
			}
		}
	}
	return b.Build()
}

// TestPropertyBFSTriangleInequality: d(s,v) <= d(s,u) + 1 for every edge
// {u,v} — the defining local consistency of BFS distances.
func TestPropertyBFSTriangleInequality(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		g := randomGraph(seed, 60, 0.08)
		dist := g.BFS(0)
		for _, e := range g.Edges() {
			du, dv := dist[e[0]], dist[e[1]]
			if du == Unreachable != (dv == Unreachable) {
				t.Fatalf("seed %d: edge %v half-reachable", seed, e)
			}
			if du != Unreachable && abs(du-dv) > 1 {
				t.Fatalf("seed %d: edge %v has dist gap %d,%d", seed, e, du, dv)
			}
		}
	}
}

// TestPropertyComponentsAgreeWithBFS: u and v share a component iff BFS
// from u reaches v.
func TestPropertyComponentsAgreeWithBFS(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		g := randomGraph(seed, 40, 0.05)
		comp, _ := g.Components()
		dist := g.BFS(0)
		for v := 0; v < g.N(); v++ {
			sameComp := comp[v] == comp[0]
			reached := dist[v] != Unreachable
			if sameComp != reached {
				t.Fatalf("seed %d: vertex %d comp/BFS disagree", seed, v)
			}
		}
	}
}

// TestPropertyInducedPreservesAdjacency: the induced subgraph has exactly
// the edges of g between kept vertices.
func TestPropertyInducedPreservesAdjacency(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		g := randomGraph(seed, 30, 0.15)
		rng := randx.New(seed + 1000)
		var subset []int
		for v := 0; v < g.N(); v++ {
			if rng.Float64() < 0.5 {
				subset = append(subset, v)
			}
		}
		sub, orig, err := g.Induced(subset)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < sub.N(); i++ {
			for j := i + 1; j < sub.N(); j++ {
				if sub.HasEdge(i, j) != g.HasEdge(orig[i], orig[j]) {
					t.Fatalf("seed %d: induced adjacency mismatch at %d,%d", seed, i, j)
				}
			}
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func BenchmarkBFS4096(b *testing.B) {
	g := randomGraph(1, 4096, 0.002)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.BFS(i % g.N())
	}
}
