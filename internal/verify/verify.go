// Package verify provides algorithm-agnostic validators for everything the
// repository computes: network decompositions (cluster structure, diameter
// bounds, supergraph coloring), maximal independent sets, vertex colorings
// and maximal matchings.
//
// The validators accept plain data (member lists, color slices) rather than
// the producing packages' types, so the same checks apply to the
// Elkin–Neiman decomposition, the Linial–Saks baseline and the MPX
// partition, and tests can cross-validate independent implementations.
package verify

import (
	"fmt"

	"netdecomp/internal/graph"
)

// Infinite is the diameter reported for disconnected clusters.
const Infinite = -1

// Report summarizes the validation of a clustering.
type Report struct {
	// Errors lists every violated invariant; empty means valid.
	Errors []string
	// ClusterCount is the number of clusters checked.
	ClusterCount int
	// AssignedVertices counts vertices inside some cluster; Coverage is
	// their fraction of the graph.
	AssignedVertices int
	Coverage         float64
	// Colors is the number of distinct colors observed.
	Colors int
	// MaxStrongDiameter is the largest induced-subgraph diameter over
	// connected clusters; DisconnectedClusters counts clusters with
	// infinite strong diameter.
	MaxStrongDiameter    int
	DisconnectedClusters int
	// MaxWeakDiameter is the largest whole-graph diameter over clusters
	// (Infinite if some cluster spans two components of g).
	MaxWeakDiameter int
}

// Valid reports whether no invariant was violated.
func (r *Report) Valid() bool { return len(r.Errors) == 0 }

// Err returns nil when valid, otherwise an error joining the first few
// violations.
func (r *Report) Err() error {
	if r.Valid() {
		return nil
	}
	max := len(r.Errors)
	if max > 5 {
		max = 5
	}
	return fmt.Errorf("verify: %d violations, first %d: %v", len(r.Errors), max, r.Errors[:max])
}

// Clustering validates a clustering of g given as member lists and a
// per-cluster color, checking:
//
//   - clusters are non-empty, within range, and pairwise disjoint;
//   - with requireProperColors, adjacent vertices in different clusters
//     have different colors (the supergraph G(P) is properly colored);
//   - and it measures strong/weak diameters and coverage.
//
// requireComplete adds a violation when some vertex is unassigned;
// requireConnected adds one per cluster that is disconnected in its
// induced subgraph (mandatory for *strong* decompositions). Network
// *decompositions* require proper colors; low-diameter *partitions* (MPX)
// carry a single color class and are validated with requireProperColors
// false.
func Clustering(g graph.Interface, clusters [][]int, colors []int, requireComplete, requireConnected, requireProperColors bool) *Report {
	r := &Report{ClusterCount: len(clusters)}
	if len(colors) != len(clusters) {
		r.Errors = append(r.Errors, fmt.Sprintf("got %d colors for %d clusters", len(colors), len(clusters)))
		return r
	}
	owner := make([]int, g.N())
	for v := range owner {
		owner[v] = -1
	}
	colorSet := make(map[int]bool)
	malformed := make([]bool, len(clusters))
	for ci, members := range clusters {
		if len(members) == 0 {
			r.Errors = append(r.Errors, fmt.Sprintf("cluster %d is empty", ci))
			malformed[ci] = true
			continue
		}
		colorSet[colors[ci]] = true
		for _, v := range members {
			if v < 0 || v >= g.N() {
				r.Errors = append(r.Errors, fmt.Sprintf("cluster %d contains out-of-range vertex %d", ci, v))
				malformed[ci] = true
				continue
			}
			if owner[v] != -1 {
				r.Errors = append(r.Errors, fmt.Sprintf("vertex %d in clusters %d and %d", v, owner[v], ci))
				continue
			}
			owner[v] = ci
			r.AssignedVertices++
		}
	}
	r.Colors = len(colorSet)
	if g.N() > 0 {
		r.Coverage = float64(r.AssignedVertices) / float64(g.N())
	} else {
		r.Coverage = 1
	}
	if requireComplete && r.AssignedVertices != g.N() {
		r.Errors = append(r.Errors, fmt.Sprintf("%d vertices unassigned", g.N()-r.AssignedVertices))
	}

	// Proper supergraph coloring.
	if requireProperColors {
		for u, w := range graph.EdgeSeq(g) {
			cu, cv := owner[u], owner[w]
			if cu < 0 || cv < 0 || cu == cv {
				continue
			}
			if colors[cu] == colors[cv] {
				r.Errors = append(r.Errors, fmt.Sprintf("edge {%d,%d} joins clusters %d,%d of equal color %d", u, w, cu, cv, colors[cu]))
			}
		}
	}

	// Diameters (skipped for malformed clusters, which already reported
	// violations above).
	r.MaxWeakDiameter = 0
	for ci, members := range clusters {
		if len(members) == 0 || malformed[ci] {
			continue
		}
		sd, ok := graph.SubsetStrongDiameter(g, members)
		if !ok {
			r.DisconnectedClusters++
			if requireConnected {
				r.Errors = append(r.Errors, fmt.Sprintf("cluster %d disconnected in induced subgraph", ci))
			}
		} else if sd > r.MaxStrongDiameter {
			r.MaxStrongDiameter = sd
		}
		wd, ok := graph.SubsetWeakDiameter(g, members)
		if !ok {
			r.MaxWeakDiameter = Infinite
		} else if r.MaxWeakDiameter != Infinite && wd > r.MaxWeakDiameter {
			r.MaxWeakDiameter = wd
		}
	}
	return r
}

// MIS checks that inSet is a maximal independent set of g: no two set
// members are adjacent, and every non-member has a member neighbor.
func MIS(g graph.Interface, inSet []bool) error {
	if len(inSet) != g.N() {
		return fmt.Errorf("verify: MIS vector has length %d for %d vertices", len(inSet), g.N())
	}
	for u, w := range graph.EdgeSeq(g) {
		if inSet[u] && inSet[w] {
			return fmt.Errorf("verify: MIS contains adjacent vertices %d and %d", u, w)
		}
	}
	for v := 0; v < g.N(); v++ {
		if inSet[v] {
			continue
		}
		dominated := false
		for _, w := range g.Neighbors(v) {
			if inSet[w] {
				dominated = true
				break
			}
		}
		if !dominated {
			return fmt.Errorf("verify: MIS not maximal: vertex %d and its neighborhood are all excluded", v)
		}
	}
	return nil
}

// Coloring checks that colors is a proper vertex coloring of g using
// colors in [0, maxColors); maxColors <= 0 skips the range check.
func Coloring(g graph.Interface, colors []int, maxColors int) error {
	if len(colors) != g.N() {
		return fmt.Errorf("verify: coloring has length %d for %d vertices", len(colors), g.N())
	}
	for v, c := range colors {
		if c < 0 {
			return fmt.Errorf("verify: vertex %d uncolored", v)
		}
		if maxColors > 0 && c >= maxColors {
			return fmt.Errorf("verify: vertex %d uses color %d beyond budget %d", v, c, maxColors)
		}
	}
	for u, w := range graph.EdgeSeq(g) {
		if colors[u] == colors[w] {
			return fmt.Errorf("verify: edge {%d,%d} monochromatic in color %d", u, w, colors[u])
		}
	}
	return nil
}

// Matching checks that mate encodes a maximal matching: mate[v] is v's
// partner or -1, the relation is symmetric, partners are adjacent, and no
// edge has two free endpoints.
func Matching(g graph.Interface, mate []int) error {
	if len(mate) != g.N() {
		return fmt.Errorf("verify: matching has length %d for %d vertices", len(mate), g.N())
	}
	for v, m := range mate {
		if m == -1 {
			continue
		}
		if m < 0 || m >= g.N() {
			return fmt.Errorf("verify: mate[%d] = %d out of range", v, m)
		}
		if m == v {
			return fmt.Errorf("verify: vertex %d matched to itself", v)
		}
		if mate[m] != v {
			return fmt.Errorf("verify: matching asymmetric at %d<->%d", v, m)
		}
		if !graph.HasEdge(g, v, m) {
			return fmt.Errorf("verify: matched pair {%d,%d} is not an edge", v, m)
		}
	}
	for u, w := range graph.EdgeSeq(g) {
		if mate[u] == -1 && mate[w] == -1 {
			return fmt.Errorf("verify: matching not maximal: edge {%d,%d} has both endpoints free", u, w)
		}
	}
	return nil
}
