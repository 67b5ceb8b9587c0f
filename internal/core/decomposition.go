package core

import (
	"netdecomp/internal/graph"
	"netdecomp/internal/partition"
)

// Decomposition is the output of a decomposition run: the partition every
// consumer reads — clusters (connected components of one phase's block
// W_t), their colors, and the CONGEST cost metrics of the execution that
// produced it — plus the Elkin–Neiman diagnostics the experiments and the
// repair path read. The registry returns &dec.Partition.
//
// Cluster colors are compressed: a cluster's color is the index of its
// phase among the phases that produced at least one cluster, so clusters
// of equal color are pairwise non-adjacent. PhaseBudget is the theorem's
// allowance and PhasesUsed counts executed phases, including ones that
// carved nothing. Complete reports whether every vertex was clustered
// within the budget; the theorems guarantee this with probability
// ≥ 1−3/c (respectively 1−5/c).
type Decomposition struct {
	partition.Partition
	// Opts echoes the effective options after defaulting.
	Opts Options
	// K is the effective radius parameter (derived from Lambda for
	// Theorem 3); the strong-diameter target is 2K−2.
	K int
	// TruncationEvents counts radius draws with r_v ≥ k+1 among surviving
	// vertices — the events E_v of Lemma 1, which occur with total
	// probability ≤ 2/c.
	TruncationEvents int
	// CenterViolations counts clusters whose members chose more than one
	// center. Claim 3 proves this is zero in the absence of truncation
	// events; it is always zero in RadiusExact mode.
	CenterViolations int
	// AlivePerPhase records the number of surviving vertices entering each
	// executed phase, followed by the final survivor count. Used by the
	// survival-decay experiments (Claim 6).
	AlivePerPhase []int
	// Trace holds per-phase detail when Options.CaptureTrace was set.
	Trace *Trace
}

// Trace captures per-phase internals for validators and experiments.
type Trace struct {
	// Alive[t][v] reports whether v survived into phase t.
	Alive [][]bool
	// Radius[t][v] is the exponential draw r_v at phase t (0 for dead
	// vertices).
	Radius [][]float64
	// Center[t][v] is the center v chose when it joined W_t, or -1.
	Center [][]int
	// Beta[t] is the exponential rate used at phase t.
	Beta []float64
}

// newDecomposition returns the empty decomposition of an n-vertex graph
// under resolved options o and schedule s: every vertex unassigned, no
// cluster carved, the partition labelled as the Elkin–Neiman variant's
// strong-diameter, properly colored output.
func newDecomposition(n int, o Options, s schedule) *Decomposition {
	dec := &Decomposition{
		Partition: partition.Partition{
			Algorithm:    "elkin-neiman/" + o.Variant.String(),
			N:            n,
			ClusterOf:    make([]int, n),
			PhaseBudget:  s.budget,
			Mode:         partition.StrongDiameter,
			ProperColors: true,
		},
		Opts: o,
		K:    s.k,
	}
	for v := range dec.ClusterOf {
		dec.ClusterOf[v] = -1
	}
	return dec
}

// buildClusters turns one phase's block into clusters (connected components
// of the block's induced subgraph) and appends them to the decomposition,
// assigning the provided color index. centers[v] holds the center chosen by
// each joined vertex. It returns the number of clusters appended.
func (d *Decomposition) buildClusters(g graph.Interface, joined []int, centers []int, phase, color int) int {
	comps := graph.ComponentsOfSubset(g, joined)
	for _, members := range comps {
		center := centers[members[0]]
		uniform := true
		for _, v := range members[1:] {
			if centers[v] != center {
				uniform = false
			}
		}
		if !uniform {
			d.CenterViolations++
		}
		ci := len(d.Clusters)
		d.Clusters = append(d.Clusters, partition.Cluster{
			Members: members,
			Center:  center,
			Phase:   phase,
			Color:   color,
		})
		for _, v := range members {
			d.ClusterOf[v] = ci
		}
	}
	return len(comps)
}
