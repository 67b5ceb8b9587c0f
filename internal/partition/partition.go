// Package partition is the one result type of every clustering algorithm
// in the repository: a partition of V into clusters — of bounded strong
// diameter (Elkin–Neiman, MPX, ball carving) or weak diameter
// (Linial–Saks) — with a coloring of the cluster supergraph, the CONGEST
// account of the execution that produced it, its compact immutable form
// (Frozen) and its stable JSON document.
//
// The producers (internal/core, internal/baseline) build a *Partition
// themselves and every consumer (the registry in internal/decomp, the
// applications, covers, spanners, the session cache and the serving
// daemon) accepts it, so there is nothing to convert between. The package
// is a leaf: it imports only dist (for the metrics), graph and verify.
package partition

import (
	"fmt"

	"netdecomp/internal/dist"
	"netdecomp/internal/graph"
	"netdecomp/internal/verify"
)

// DiameterMode records which diameter notion an algorithm bounds for its
// clusters.
type DiameterMode int

const (
	// StrongDiameter: every cluster is connected in its induced subgraph
	// and the bound applies to induced-subgraph distances (Elkin–Neiman,
	// MPX, ball carving).
	StrongDiameter DiameterMode = iota + 1
	// WeakDiameter: the bound applies to whole-graph distances between
	// cluster members; induced subgraphs may be disconnected
	// (Linial–Saks).
	WeakDiameter
)

// String returns the mode name.
func (m DiameterMode) String() string {
	switch m {
	case StrongDiameter:
		return "strong"
	case WeakDiameter:
		return "weak"
	default:
		return fmt.Sprintf("diametermode(%d)", int(m))
	}
}

// Cluster is one cluster of a Partition.
type Cluster struct {
	// Members are the vertex ids, sorted ascending.
	Members []int
	// Center is the vertex whose broadcast captured the members. For
	// Elkin–Neiman, Claim 3 of the paper has every member of a connected
	// block component choose the same center; core.Decomposition's
	// CenterViolations counts the rare truncation-induced exceptions.
	Center int
	// Phase is the phase that carved the cluster (0 for one-shot
	// partitions).
	Phase int
	// Color is the cluster's color class: the index of its phase among the
	// phases that carved at least one cluster (always 0 for MPX).
	Color int
}

// Partition is the result of any clustering algorithm: clusters with
// colors, a completeness flag, the diameter mode the algorithm bounds, and
// the CONGEST cost metrics of the execution that produced it.
//
// Ownership: the Cluster member slices and ClusterOf belong to the
// Partition. Consumers that retain them beyond a call must copy —
// apps.FromPartition copies, and the session cache keeps an immutable
// Frozen and hands out fresh copies — and a caller that mutates them
// forfeits every derived structure. Use Clone for an independent copy,
// Freeze for the compact immutable form.
type Partition struct {
	// Algorithm is the registry name of the producing algorithm.
	Algorithm string
	// N is the number of vertices of the input graph.
	N int
	// Clusters lists the clusters in order of creation.
	Clusters []Cluster
	// ClusterOf maps each vertex to its index in Clusters, or -1 when the
	// run ended with the vertex unassigned (only when Complete is false).
	ClusterOf []int
	// Colors is the number of color classes used.
	Colors int
	// PhasesUsed / PhaseBudget describe the phase loop.
	PhasesUsed  int
	PhaseBudget int
	// Complete reports whether every vertex was clustered.
	Complete bool
	// Mode is the diameter notion the algorithm bounds.
	Mode DiameterMode
	// ProperColors reports whether the cluster colors form a proper
	// coloring of the cluster supergraph — true for network decompositions
	// (Elkin–Neiman, Linial–Saks, ball carving), false for low-diameter
	// partitions (MPX, whose single color class is shared by adjacent
	// clusters).
	ProperColors bool
	// Metrics is the CONGEST account of the producing execution. Purely
	// sequential constructions (ball carving) report zero rounds; the
	// engine-backed algorithms report real engine accounting.
	Metrics dist.Metrics
	// CutEdges / CutFraction are the MPX quality measures (zero for other
	// algorithms): the number and fraction of edges with endpoints in
	// different clusters.
	CutEdges    int
	CutFraction float64
}

// Clone returns a deep copy of the partition: the clusters, every member
// slice and the vertex assignment are freshly allocated, so mutating the
// copy (or the original) cannot corrupt the other.
func (p *Partition) Clone() *Partition {
	cp := *p
	cp.Clusters = make([]Cluster, len(p.Clusters))
	for i := range p.Clusters {
		c := p.Clusters[i]
		c.Members = append([]int(nil), c.Members...)
		cp.Clusters[i] = c
	}
	cp.ClusterOf = append([]int(nil), p.ClusterOf...)
	return &cp
}

// ColorOf returns the color class of vertex v, or -1 if v is unassigned.
func (p *Partition) ColorOf(v int) int {
	ci := p.ClusterOf[v]
	if ci < 0 {
		return -1
	}
	return p.Clusters[ci].Color
}

// MemberLists returns the clusters as plain member slices, the shape the
// verify package consumes.
func (p *Partition) MemberLists() [][]int {
	out := make([][]int, len(p.Clusters))
	for i := range p.Clusters {
		out[i] = p.Clusters[i].Members
	}
	return out
}

// ClusterColors returns the per-cluster color slice aligned with
// MemberLists.
func (p *Partition) ClusterColors() []int {
	out := make([]int, len(p.Clusters))
	for i := range p.Clusters {
		out[i] = p.Clusters[i].Color
	}
	return out
}

// Unassigned returns the vertices that were never clustered, ascending.
func (p *Partition) Unassigned() []int {
	var out []int
	for v, ci := range p.ClusterOf {
		if ci < 0 {
			out = append(out, v)
		}
	}
	return out
}

// StrongDiameter returns the maximum strong diameter over connected
// clusters and the number of disconnected (infinite-diameter) clusters.
func (p *Partition) StrongDiameter(g graph.Interface) (maxConnected, disconnected int) {
	for i := range p.Clusters {
		d, ok := graph.SubsetStrongDiameter(g, p.Clusters[i].Members)
		if !ok {
			disconnected++
			continue
		}
		if d > maxConnected {
			maxConnected = d
		}
	}
	return maxConnected, disconnected
}

// WeakDiameter returns the maximum weak diameter over all clusters; ok is
// false if some cluster spans two components of g.
func (p *Partition) WeakDiameter(g graph.Interface) (int, bool) {
	max := 0
	for i := range p.Clusters {
		d, ok := graph.SubsetWeakDiameter(g, p.Clusters[i].Members)
		if !ok {
			return 0, false
		}
		if d > max {
			max = d
		}
	}
	return max, true
}

// DisconnectedClusters counts clusters whose induced subgraph is
// disconnected — the quantity that separates weak from strong
// decompositions.
func (p *Partition) DisconnectedClusters(g graph.Interface) int {
	_, disc := p.StrongDiameter(g)
	return disc
}

// Supergraph returns the cluster supergraph G(P): one vertex per cluster,
// an edge between two clusters when some original edge joins them.
// Unassigned vertices are ignored.
func (p *Partition) Supergraph(g graph.Interface) *graph.Graph {
	b := graph.NewBuilder(len(p.Clusters))
	for u := 0; u < g.N(); u++ {
		cu := p.ClusterOf[u]
		if cu < 0 {
			continue
		}
		for _, w := range g.Neighbors(u) {
			cw := p.ClusterOf[w]
			if cw >= 0 && cu < cw {
				b.AddEdge(cu, cw)
			}
		}
	}
	return b.Build()
}

// String summarizes the partition.
func (p *Partition) String() string {
	return fmt.Sprintf("partition{algo=%s n=%d clusters=%d colors=%d mode=%s complete=%v rounds=%d}",
		p.Algorithm, p.N, len(p.Clusters), p.Colors, p.Mode, p.Complete, p.Metrics.Rounds)
}

// Verify validates the partition against its graph with the invariants
// appropriate to its mode: disjoint clusters covering the graph iff
// Complete, connected induced subgraphs iff Mode is StrongDiameter, and a
// proper supergraph coloring iff ProperColors.
func (p *Partition) Verify(g graph.Interface) *verify.Report {
	return verify.Clustering(g, p.MemberLists(), p.ClusterColors(),
		p.Complete, p.Mode == StrongDiameter, p.ProperColors)
}
