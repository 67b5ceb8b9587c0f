package graph

// Diameter returns the exact diameter of the graph: the maximum distance
// between any pair of vertices in the same component. It returns 0 for
// graphs with at most one vertex and ignores pairs in different components
// (use IsConnected to detect that case). Cost is one BFS per vertex.
func Diameter(g Interface) int {
	diam := 0
	var s BFSScratch
	for v := 0; v < g.N(); v++ {
		diam = max(diam, s.farthest(g, v, nil))
	}
	return diam
}

// Diameter returns the exact diameter (see the package function Diameter).
func (g *Graph) Diameter() int { return Diameter(g) }

// SubsetStrongDiameter returns the diameter of the subgraph induced by the
// vertex subset — the "strong diameter" of a cluster in the sense of the
// paper: distances are measured inside G(C) only. It returns (diameter,
// true) when the induced subgraph is connected and (0, false) when it is
// not (a disconnected cluster has infinite strong diameter).
//
// The subset is wrapped in a zero-copy View and the diameter measured
// there, so the cost is one BFS per member over the view's local CSR —
// proportional to the cluster, not the host graph. This is the
// verification hot path of the scaling experiments.
func SubsetStrongDiameter(g Interface, subset []int) (int, bool) {
	if len(subset) == 0 {
		return 0, true
	}
	view := NewView(g, subset)
	n := view.N()
	diam := 0
	var s BFSScratch
	for v := 0; v < n; v++ {
		reached := s.Run(view, v, nil, -1)
		if len(reached) != n {
			return 0, false
		}
		diam = max(diam, s.dist[reached[n-1]])
	}
	return diam, true
}

// SubsetStrongDiameter returns the induced-subgraph diameter of a vertex
// subset (see the package function SubsetStrongDiameter).
func (g *Graph) SubsetStrongDiameter(subset []int) (int, bool) {
	return SubsetStrongDiameter(g, subset)
}

// SubsetWeakDiameter returns the maximum distance in the whole graph G
// between any two vertices of the subset — the "weak diameter" of a
// cluster. Pairs that are disconnected in G report ok=false.
func SubsetWeakDiameter(g Interface, subset []int) (int, bool) {
	if len(subset) <= 1 {
		return 0, true
	}
	diam := 0
	var s BFSScratch
	for _, src := range subset {
		s.Run(g, src, nil, -1)
		for _, w := range subset {
			d := s.Dist(w)
			if d == Unreachable {
				return 0, false
			}
			diam = max(diam, d)
		}
	}
	return diam, true
}

// SubsetWeakDiameter returns the whole-graph diameter of a vertex subset
// (see the package function SubsetWeakDiameter).
func (g *Graph) SubsetWeakDiameter(subset []int) (int, bool) {
	return SubsetWeakDiameter(g, subset)
}
