package core

import (
	"fmt"

	"netdecomp/internal/graph"
)

// AblationResult reports how a restricted forwarding discipline changed
// the join decisions of one phase relative to the exact broadcast.
type AblationResult struct {
	// Keep is the number of values forwarded per round (1 or 2).
	Keep int
	// Joined is the block size under the restricted discipline;
	// JoinedExact under the exact per-center broadcast.
	Joined      int
	JoinedExact int
	// DecisionMismatches counts vertices whose join decision differs;
	// CenterMismatches counts joining vertices whose chosen center differs.
	DecisionMismatches int
	CenterMismatches   int
}

// TopKForwardingAblation runs a single decomposition phase on the full
// vertex set of g under a forwarding discipline that keeps only the best
// `keep` shifted values per vertex per round, and compares the resulting
// join decisions against the exact per-center broadcast.
//
// The paper's CONGEST argument (end of Section 2) claims keep=2 is
// lossless — "the third and onward values in v's list will not be used by
// any other vertex" — and experiment A1 confirms it computationally:
// keep=2 always yields zero mismatches, while keep=1 visibly corrupts
// decisions (a vertex needs the *gap* between its two best values, and the
// runner-up can be pruned upstream).
func TopKForwardingAblation(g graph.Interface, seed uint64, beta float64, k, keep int) (AblationResult, error) {
	if keep != 1 && keep != 2 {
		return AblationResult{}, fmt.Errorf("core: ablation keep must be 1 or 2, got %d", keep)
	}
	if beta <= 0 {
		return AblationResult{}, fmt.Errorf("core: ablation beta must be positive, got %v", beta)
	}
	if k < 1 {
		return AblationResult{}, fmt.Errorf("core: ablation k must be >= 1, got %d", k)
	}
	n := g.N()
	alive := make([]bool, n)
	for v := range alive {
		alive[v] = true
	}
	radius := make([]float64, n)
	drawRadii(seed, 0, alive, beta, radius)

	var joined []int
	var centers []int
	if keep == 2 {
		all := make([]int32, n)
		for v := range all {
			all[v] = int32(v)
		}
		runner := newPhaseRunner(g)
		copy(runner.radius, radius)
		res := runner.runSparse(alive, all, k, nil)
		joined, centers = res.joined, res.centers
	} else {
		joined, centers = runTopOnePhase(g, alive, radius, k)
	}
	exactJoined, exactCenters := exactPhaseJoin(g, alive, radius, k)

	res := AblationResult{Keep: keep, Joined: len(joined), JoinedExact: len(exactJoined)}
	inKeep := make([]bool, n)
	for _, v := range joined {
		inKeep[v] = true
	}
	inExact := make([]bool, n)
	for _, v := range exactJoined {
		inExact[v] = true
	}
	for v := 0; v < n; v++ {
		if inKeep[v] != inExact[v] {
			res.DecisionMismatches++
		} else if inKeep[v] && centers[v] != exactCenters[v] {
			res.CenterMismatches++
		}
	}
	return res, nil
}

// runTopOnePhase is the deliberately lossy keep=1 discipline: every vertex
// tracks and forwards only its single best (center, value) pair. The join
// rule still needs a second value, which is now only whatever happened to
// arrive — exactly the information the paper shows must be two-deep.
func runTopOnePhase(g graph.Interface, alive []bool, radius []float64, rounds int) (joined []int, centers []int) {
	n := g.N()
	state := make([]topTwo, n) // second slot records arrivals but is never forwarded
	changed := make([]bool, n)
	dirty := make([]bool, n)
	for v := 0; v < n; v++ {
		state[v].reset()
		if alive[v] {
			state[v].merge(int32(v), radius[v])
			changed[v] = true
		}
	}
	snap := make([]topTwo, n)
	for round := 0; round < rounds; round++ {
		copy(snap, state)
		sent := false
		for v := 0; v < n; v++ {
			if !alive[v] || !changed[v] {
				continue
			}
			s := &snap[v]
			if s.c1 == none || s.v1 < 1 {
				continue
			}
			for _, w := range g.Neighbors(v) {
				if !alive[w] {
					continue
				}
				if state[w].merge(s.c1, s.v1-1) {
					dirty[w] = true
				}
				sent = true
			}
		}
		changed, dirty = dirty, changed
		for v := range dirty {
			dirty[v] = false
		}
		if !sent {
			break
		}
	}
	centers = make([]int, n)
	for v := range centers {
		centers[v] = none
	}
	for v := 0; v < n; v++ {
		if alive[v] && state[v].joins() {
			joined = append(joined, v)
			centers[v] = int(state[v].c1)
		}
	}
	return joined, centers
}
