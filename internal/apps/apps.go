// Package apps implements the symmetry-breaking applications that motivate
// network decomposition in Section 1.1 of the paper: given a (D, χ)
// decomposition with a proper χ-coloring of the cluster supergraph, maximal
// independent set, (Δ+1)-vertex-coloring and maximal matching are solved in
// O(D·χ) distributed rounds by sweeping the color classes — clusters of one
// color are pairwise non-adjacent, so each class is processed in parallel,
// and each cluster is solved by the naive collect/solve/disseminate routine
// in O(D) rounds.
//
// The package also provides Luby's randomized MIS as an
// independent baseline for the application experiments (T9).
package apps

import (
	"fmt"
	"sort"

	"netdecomp/internal/graph"
	"netdecomp/internal/partition"
)

// Input is a complete clustered view of a graph: member lists with a
// per-cluster color forming a proper supergraph coloring. Build one with
// FromPartition from any algorithm's partition.Partition.
type Input struct {
	// Clusters holds the member lists (each sorted ascending).
	Clusters [][]int
	// Colors assigns each cluster its color class.
	Colors []int
}

// FromPartition adapts any complete Partition into an application
// input, so MIS, coloring and matching run on every registered algorithm's
// output.
//
// The returned Input owns its member lists: they are copies, not aliases
// of the Partition's slices, so a caller that later mutates the Partition
// (or the Partition's producer) cannot corrupt a retained Input, and vice
// versa.
//
// The color-class sweep requires a proper supergraph coloring. Partitions
// that do not carry one (MPX, whose single color class is shared by
// adjacent clusters) are recolored greedily: clusters are first-fit
// colored against their supergraph neighbors in creation order — a
// sequential O(m) preprocessing step standing in for the O(Δ_P log n)
// distributed supergraph coloring a fully local execution would run. The
// sweep then costs O(D·χ') for the resulting χ'.
func FromPartition(g graph.Interface, p *partition.Partition) (Input, error) {
	if !p.Complete {
		return Input{}, fmt.Errorf("apps: partition incomplete (%d vertices unassigned); decompose with WithForceComplete", len(p.Unassigned()))
	}
	in := Input{
		Clusters: make([][]int, len(p.Clusters)),
		Colors:   p.ClusterColors(),
	}
	for i := range p.Clusters {
		in.Clusters[i] = append([]int(nil), p.Clusters[i].Members...)
	}
	if !p.ProperColors {
		in.Colors = greedySupergraphColors(g, p)
	}
	return in, nil
}

// greedySupergraphColors first-fit colors the cluster supergraph in
// cluster creation order, yielding a proper per-cluster coloring for
// partitions that lack one.
func greedySupergraphColors(g graph.Interface, p *partition.Partition) []int {
	sg := p.Supergraph(g)
	colors := make([]int, sg.N())
	for ci := range colors {
		colors[ci] = -1
	}
	used := make([]bool, sg.N()+1)
	for ci := 0; ci < sg.N(); ci++ {
		for _, nb := range sg.Neighbors(ci) {
			if c := colors[nb]; c >= 0 {
				used[c] = true
			}
		}
		for c := 0; ; c++ {
			if !used[c] {
				colors[ci] = c
				break
			}
		}
		// Un-mark only what was set, keeping the pass linear in
		// supergraph edges.
		for _, nb := range sg.Neighbors(ci) {
			if c := colors[nb]; c >= 0 {
				used[c] = false
			}
		}
	}
	return colors
}

// plan is the color-ordered processing schedule shared by the solvers,
// with the per-color round cost of the collect/solve/disseminate routine.
type plan struct {
	order      [][]int // clusters by color class, ascending colors
	costPerCls [][]int // matching diameter-based cost per cluster
	owner      []int   // vertex -> cluster index
}

// buildPlan validates the input against g and computes the schedule. Every
// vertex must belong to exactly one cluster. The per-cluster cost is the
// cluster's strong diameter when its induced subgraph is connected, and
// its weak diameter otherwise (an LS93-style cluster routes its gather
// through outside vertices).
func buildPlan(g graph.Interface, in Input) (*plan, error) {
	if len(in.Clusters) != len(in.Colors) {
		return nil, fmt.Errorf("apps: %d clusters but %d colors", len(in.Clusters), len(in.Colors))
	}
	p := &plan{owner: make([]int, g.N())}
	for v := range p.owner {
		p.owner[v] = -1
	}
	maxColor := -1
	for ci, members := range in.Clusters {
		if len(members) == 0 {
			return nil, fmt.Errorf("apps: cluster %d is empty", ci)
		}
		for _, v := range members {
			if v < 0 || v >= g.N() {
				return nil, fmt.Errorf("apps: cluster %d holds out-of-range vertex %d", ci, v)
			}
			if p.owner[v] != -1 {
				return nil, fmt.Errorf("apps: vertex %d in clusters %d and %d", v, p.owner[v], ci)
			}
			p.owner[v] = ci
		}
		if in.Colors[ci] < 0 {
			return nil, fmt.Errorf("apps: cluster %d has negative color", ci)
		}
		if in.Colors[ci] > maxColor {
			maxColor = in.Colors[ci]
		}
	}
	for v := range p.owner {
		if p.owner[v] == -1 {
			return nil, fmt.Errorf("apps: vertex %d belongs to no cluster", v)
		}
	}
	p.order = make([][]int, maxColor+1)
	p.costPerCls = make([][]int, maxColor+1)
	for ci, color := range in.Colors {
		p.order[color] = append(p.order[color], ci)
	}
	for color := range p.order {
		sort.Ints(p.order[color])
		p.costPerCls[color] = make([]int, len(p.order[color]))
		for i, ci := range p.order[color] {
			d, ok := graph.SubsetStrongDiameter(g, in.Clusters[ci])
			if !ok {
				d, ok = graph.SubsetWeakDiameter(g, in.Clusters[ci])
				if !ok {
					return nil, fmt.Errorf("apps: cluster %d spans multiple components", ci)
				}
			}
			p.costPerCls[color][i] = d
		}
	}
	return p, nil
}

// colorCost returns the collect/solve/disseminate round cost of one color
// class: clusters of one class run in parallel, so the class costs its
// maximum cluster diameter (up and down) plus a constant.
func (p *plan) colorCost(color int) int {
	max := 0
	for _, d := range p.costPerCls[color] {
		if d > max {
			max = d
		}
	}
	return 2*max + 2
}

// MISResult is a maximal independent set with its distributed cost.
type MISResult struct {
	InSet  []bool
	Size   int
	Rounds int
}

// MIS computes a maximal independent set by sweeping the decomposition's
// color classes: each cluster greedily decides its members consistently
// with all previously decided neighbors. Rounds follow the O(D·χ) account:
// one collect/solve/disseminate per color class.
func MIS(g graph.Interface, in Input) (*MISResult, error) {
	p, err := buildPlan(g, in)
	if err != nil {
		return nil, err
	}
	res := &MISResult{InSet: make([]bool, g.N())}
	decided := make([]bool, g.N())
	for color := range p.order {
		if len(p.order[color]) == 0 {
			continue
		}
		for _, ci := range p.order[color] {
			for _, v := range in.Clusters[ci] {
				free := true
				for _, w := range g.Neighbors(v) {
					if res.InSet[w] {
						free = false
						break
					}
				}
				if free {
					res.InSet[v] = true
					res.Size++
				}
				decided[v] = true
			}
		}
		res.Rounds += p.colorCost(color)
	}
	return res, nil
}

// ColoringResult is a proper vertex coloring with its distributed cost.
type ColoringResult struct {
	Colors    []int
	NumColors int
	Rounds    int
}

// Coloring computes a (Δ+1)-coloring by the same color-class sweep: every
// cluster first-fit colors its members against already-colored neighbors.
func Coloring(g graph.Interface, in Input) (*ColoringResult, error) {
	p, err := buildPlan(g, in)
	if err != nil {
		return nil, err
	}
	res := &ColoringResult{Colors: make([]int, g.N())}
	for v := range res.Colors {
		res.Colors[v] = -1
	}
	maxDeg := graph.MaxDegree(g)
	used := make([]bool, maxDeg+2)
	for color := range p.order {
		if len(p.order[color]) == 0 {
			continue
		}
		for _, ci := range p.order[color] {
			for _, v := range in.Clusters[ci] {
				for i := range used {
					used[i] = false
				}
				for _, w := range g.Neighbors(v) {
					if c := res.Colors[w]; c >= 0 && c < len(used) {
						used[c] = true
					}
				}
				for c := 0; ; c++ {
					if !used[c] {
						res.Colors[v] = c
						if c+1 > res.NumColors {
							res.NumColors = c + 1
						}
						break
					}
				}
			}
		}
		res.Rounds += p.colorCost(color)
	}
	return res, nil
}

// MatchingResult is a maximal matching with its distributed cost.
type MatchingResult struct {
	// Mate[v] is v's partner or -1.
	Mate []int
	// Size is the number of matched edges.
	Size int
	// Rounds is the distributed round estimate; Proposals counts
	// propose/accept sub-iterations summed over color classes.
	Rounds    int
	Proposals int
}

// Matching computes a maximal matching with the color-class sweep plus a
// propose/accept arbitration loop inside each class: free vertices of the
// active clusters propose to their smallest free neighbor that is already
// safe to claim (own cluster or an earlier color class), proposees accept
// the smallest proposer, and losers retry. Arbitration is required because
// two same-color clusters, though never adjacent, can both border the same
// earlier-class vertex.
func Matching(g graph.Interface, in Input) (*MatchingResult, error) {
	p, err := buildPlan(g, in)
	if err != nil {
		return nil, err
	}
	res := &MatchingResult{Mate: make([]int, g.N())}
	for v := range res.Mate {
		res.Mate[v] = -1
	}
	processedColor := make([]int, g.N()) // color class of v's cluster
	for ci, members := range in.Clusters {
		for _, v := range members {
			processedColor[v] = in.Colors[ci]
		}
	}
	for color := range p.order {
		if len(p.order[color]) == 0 {
			continue
		}
		iters := 0
		for {
			// Gather proposals from free members of this class.
			proposals := make(map[int][]int)
			for _, ci := range p.order[color] {
				for _, v := range in.Clusters[ci] {
					if res.Mate[v] != -1 {
						continue
					}
					target := -1
					for _, w := range g.Neighbors(v) {
						wi := int(w)
						if res.Mate[wi] != -1 {
							continue
						}
						// Safe targets: same cluster, or a class already
						// processed (strictly smaller color), or — within
						// the same class — the same cluster only.
						if p.owner[wi] == ci || processedColor[wi] < color {
							if target == -1 || wi < target {
								target = wi
							}
						}
					}
					if target != -1 {
						proposals[target] = append(proposals[target], v)
					}
				}
			}
			if len(proposals) == 0 {
				break
			}
			iters++
			targets := make([]int, 0, len(proposals))
			for w := range proposals {
				targets = append(targets, w)
			}
			sort.Ints(targets)
			for _, w := range targets {
				if res.Mate[w] != -1 {
					continue
				}
				best := -1
				for _, v := range proposals[w] {
					if res.Mate[v] != -1 {
						continue
					}
					if best == -1 || v < best {
						best = v
					}
				}
				if best != -1 {
					res.Mate[w] = best
					res.Mate[best] = w
					res.Size++
				}
			}
		}
		res.Proposals += iters
		cost := p.colorCost(color)
		if iters > 1 {
			cost += (iters - 1) * 2 // extra propose/accept exchanges
		}
		res.Rounds += cost
	}
	return res, nil
}
