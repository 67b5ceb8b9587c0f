package verify

import (
	"fmt"

	"netdecomp/internal/graph"
)

// BallIntersections measures how "low-intersecting" a partition is — the
// property behind the paper's remark that network decompositions build
// low-intersecting partitions, which in turn yield universal Steiner trees
// ([BEG15], [BDR+12] in Section 1.1). For every vertex v it counts the
// number of distinct clusters the ball B(v, w) intersects, and returns the
// maximum and mean over all vertices.
//
// clusterOf maps each vertex to its cluster id (every vertex must be
// assigned, ids arbitrary non-negative).
func BallIntersections(g graph.Interface, clusterOf []int, w int) (max int, mean float64, err error) {
	if len(clusterOf) != g.N() {
		return 0, 0, fmt.Errorf("verify: clusterOf has length %d for %d vertices", len(clusterOf), g.N())
	}
	if w < 0 {
		return 0, 0, fmt.Errorf("verify: negative ball radius %d", w)
	}
	for v, ci := range clusterOf {
		if ci < 0 {
			return 0, 0, fmt.Errorf("verify: vertex %d unassigned", v)
		}
	}
	if g.N() == 0 {
		return 0, 0, nil
	}
	total := 0
	seen := make(map[int]struct{}, 8)
	var s graph.BFSScratch
	for v := 0; v < g.N(); v++ {
		clear(seen)
		for _, u := range s.Run(g, v, nil, w) {
			seen[clusterOf[u]] = struct{}{}
		}
		if len(seen) > max {
			max = len(seen)
		}
		total += len(seen)
	}
	return max, float64(total) / float64(g.N()), nil
}
