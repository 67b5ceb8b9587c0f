// Package baseline implements the two algorithms the paper positions
// itself against and builds upon:
//
//   - Linial–Saks (Combinatorica 1993): the classic randomized weak
//     (O(log n), O(log n)) network decomposition. The paper's headline
//     result is that its strong-diameter analogue is achievable with the
//     same parameters; experiment T5 measures how badly LS93 clusters
//     degrade under the strong-diameter lens.
//   - Miller–Peng–Xu (SPAA 2013): the shifted-exponential "padded
//     partition" whose shifted-shortest-path comparison rule Elkin–Neiman
//     adapt from the PRAM model to distributed network decomposition.
//     Experiment T8 reproduces its cut-fraction and diameter behaviour.
//
// It also holds the deterministic sequential ball-carving yardstick. Every
// algorithm returns the repository's one result type, a
// *partition.Partition labelled with its registry name.
package baseline

import (
	"sort"

	"netdecomp/internal/partition"
)

// newPartition returns the empty partition of an n-vertex graph produced
// by the named algorithm: every vertex unassigned, no cluster carved,
// colors proper unless the caller says otherwise.
func newPartition(algorithm string, n int, mode partition.DiameterMode) *partition.Partition {
	p := &partition.Partition{
		Algorithm:    algorithm,
		N:            n,
		ClusterOf:    make([]int, n),
		Mode:         mode,
		ProperColors: true,
	}
	for v := range p.ClusterOf {
		p.ClusterOf[v] = -1
	}
	return p
}

// addCluster appends a cluster to p, wiring ClusterOf, with members sorted.
func addCluster(p *partition.Partition, members []int, center, phase, color int) {
	sort.Ints(members)
	ci := len(p.Clusters)
	p.Clusters = append(p.Clusters, partition.Cluster{Members: members, Center: center, Phase: phase, Color: color})
	for _, v := range members {
		p.ClusterOf[v] = ci
	}
}
