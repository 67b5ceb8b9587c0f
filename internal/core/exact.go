package core

import (
	"math"

	"netdecomp/internal/graph"
)

// exactTopTwo computes, for every alive vertex, the exact top-two shifted
// values m = r_v − d_{G_t}(y, v), by running an independent bounded BFS
// from every alive center: graph's one search, sharing nothing with
// phase.go. Broadcast reach is min(⌊r_v⌋, maxHops); a negative maxHops
// means unbounded (RadiusExact semantics).
//
// This is the O(Σ ball-size · degree) reference implementation against
// which the top-two forwarding discipline of phaseRunner.runSparse (and
// of the message-passing program in distributed.go) is validated: the
// paper's CONGEST argument says forwarding only the two best values per
// round loses nothing, and the tests verify that claim computationally.
func exactTopTwo(g graph.Interface, alive []bool, radius []float64, maxHops int) []topTwo {
	n := g.N()
	states := make([]topTwo, n)
	for v := range states {
		states[v].reset()
	}
	var s graph.BFSScratch
	for v := 0; v < n; v++ {
		if !alive[v] {
			continue
		}
		r := radius[v]
		reach := int(math.Floor(r))
		if maxHops >= 0 && reach > maxHops {
			reach = maxHops
		}
		for _, u := range s.Run(g, v, alive, reach) {
			states[u].merge(int32(v), r-float64(s.Dist(int(u))))
		}
	}
	return states
}

// exactPhaseJoin applies the join rule to exact top-two states and returns
// the block members (ascending) and the per-vertex chosen centers.
func exactPhaseJoin(g graph.Interface, alive []bool, radius []float64, maxHops int) (joined []int, centers []int) {
	states := exactTopTwo(g, alive, radius, maxHops)
	centers = make([]int, g.N())
	for v := range centers {
		centers[v] = none
	}
	for v := 0; v < g.N(); v++ {
		if alive[v] && states[v].joins() {
			joined = append(joined, v)
			centers[v] = int(states[v].c1)
		}
	}
	return joined, centers
}
