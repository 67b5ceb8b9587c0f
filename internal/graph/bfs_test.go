package graph_test

import (
	"testing"

	"netdecomp/internal/gen"
	"netdecomp/internal/graph"
	"netdecomp/internal/randx"
)

// referenceBFS is an independent breadth-first search: a fresh map per
// call, so nothing carries over between runs.
func referenceBFS(g graph.Interface, src int, alive []bool, radius int) map[int]int {
	dist := map[int]int{}
	if alive != nil && !alive[src] {
		return dist
	}
	dist[src] = 0
	frontier := []int{src}
	for d := 1; len(frontier) > 0 && (radius < 0 || d <= radius); d++ {
		var next []int
		for _, u := range frontier {
			for _, w := range g.Neighbors(u) {
				if _, seen := dist[int(w)]; seen || (alive != nil && !alive[w]) {
					continue
				}
				dist[int(w)] = d
				next = append(next, int(w))
			}
		}
		frontier = next
	}
	return dist
}

// TestBFSScratchMatchesReference runs 280 (source, alive mask, radius)
// triples through one reused scratch, across graphs of different sizes,
// and checks every run against referenceBFS: the reached set, its BFS
// order, and the distance of every vertex, so an entry a previous run set
// and the next one failed to reset is caught.
func TestBFSScratchMatchesReference(t *testing.T) {
	rng := randx.New(28)
	var graphs []*graph.Graph
	sizes := []int{60, 150, 90, 200, 40, 120} // the scratch grows mid-test
	for i, f := range []gen.Family{gen.FamilyGnp, gen.FamilyGrid, gen.FamilyTree, gen.FamilyPowerLaw, gen.FamilySmallWorld, gen.FamilyGnp} {
		g, err := gen.Build(f, sizes[i], uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	graphs = append(graphs, gen.Gnp(rng, 90, 0.02)) // disconnected pieces

	var s graph.BFSScratch
	for _, g := range graphs {
		n := g.N()
		for trial := 0; trial < 40; trial++ {
			var alive []bool
			if trial%4 != 0 {
				alive = make([]bool, n)
				for v := range alive {
					alive[v] = rng.Intn(10) < 7
				}
			}
			src := rng.Intn(n)
			if trial%8 == 5 {
				alive[src] = false
			}
			radius := trial%6 - 1 // -1 (unbounded), 0, 1..4
			reached := s.Run(g, src, alive, radius)
			want := referenceBFS(g, src, alive, radius)

			if len(reached) != len(want) {
				t.Fatalf("n=%d src=%d r=%d: reached %d vertices, want %d", n, src, radius, len(reached), len(want))
			}
			if len(want) > 0 && int(reached[0]) != src {
				t.Fatalf("n=%d src=%d r=%d: first reached %d", n, src, radius, reached[0])
			}
			for i, u := range reached {
				d, ok := want[int(u)]
				if !ok || s.Dist(int(u)) != d {
					t.Fatalf("n=%d src=%d r=%d: vertex %d at %d, reference %d (reached %v)", n, src, radius, u, s.Dist(int(u)), d, ok)
				}
				if i > 0 && s.Dist(int(reached[i-1])) > d {
					t.Fatalf("n=%d src=%d r=%d: reached list not in BFS order at %d", n, src, radius, i)
				}
			}
			for v := 0; v < n; v++ {
				if _, ok := want[v]; !ok && s.Dist(v) != graph.Unreachable {
					t.Fatalf("n=%d src=%d r=%d: unreached vertex %d reports distance %d", n, src, radius, v, s.Dist(v))
				}
			}
		}
	}
}
