package baseline

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"slices"

	"netdecomp/internal/graph"
	"netdecomp/internal/partition"
	"netdecomp/internal/randx"
)

// MPXOptions configures the Miller–Peng–Xu partition.
type MPXOptions struct {
	// Beta is the exponential rate: the expected fraction of cut edges is
	// O(Beta) and cluster strong diameters are O(log n / Beta) with high
	// probability. Must lie in (0, 1]; the MPX analysis assumes β ≤ 1/2.
	Beta float64
	// Seed drives the shift draws.
	Seed uint64
}

// Validate reports why o cannot run on any graph, or nil. Both MPX paths
// begin with it.
func (o MPXOptions) Validate() error {
	if o.Beta <= 0 || o.Beta > 1 {
		return fmt.Errorf("baseline: MPX requires 0 < Beta <= 1, got %v", o.Beta)
	}
	return nil
}

// shifts draws the exponential shift δ_u ~ Exp(β) of every vertex u — the
// one random draw both MPX paths share, so they agree cluster for cluster.
func shifts(o MPXOptions, n int) []float64 {
	delta := make([]float64, n)
	for v := range delta {
		delta[v] = randx.Exp(randx.Derive(o.Seed, uint64(v)), o.Beta)
	}
	return delta
}

// MPX computes the Miller–Peng–Xu low-diameter partition of g: every
// vertex u draws a shift δ_u ~ Exp(β), and every vertex y joins the
// cluster of the center u maximizing δ_u − d(u, y) (ties to the smaller
// id). The computation is the standard shifted-start multi-source
// Dijkstra; rounds are counted as ⌈max δ⌉ (the depth of the equivalent
// distributed broadcast) and messages as one per edge traversal. MPX is a
// low-diameter partition, not a decomposition: every cluster has color 0,
// ProperColors is false, and CutEdges / CutFraction carry the quality
// measures its analysis bounds.
func MPX(g graph.Interface, o MPXOptions) (*partition.Partition, error) {
	return MPXContext(context.Background(), g, o)
}

// MPXContext is MPX with cancellation: the single Dijkstra pass checks ctx
// once up front (the pass itself runs in milliseconds even on large
// graphs, so a finer granularity buys nothing).
func MPXContext(ctx context.Context, g graph.Interface, o MPXOptions) (*partition.Partition, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	n := g.N()
	res := newMPXPartition("mpx", n)
	if n == 0 {
		return res, nil
	}
	delta := shifts(o, n)

	// Multi-source Dijkstra on keys f(y) = d(u, y) − δ_u: every vertex
	// starts as its own source with key −δ_y; the winner at y is the
	// center whose shifted distance is smallest (= shifted value largest).
	// Stale heap entries are skipped lazily by comparing against the
	// current tentative label.
	winner := make([]int, n)
	key := make([]float64, n)
	done := make([]bool, n)
	for v := range winner {
		winner[v] = v
		key[v] = -delta[v]
	}
	pq := make(mpxHeap, 0, n)
	for v := 0; v < n; v++ {
		pq = append(pq, mpxItem{vertex: v, center: v, key: key[v]})
	}
	heap.Init(&pq)
	for pq.Len() > 0 {
		it := heap.Pop(&pq).(mpxItem)
		if done[it.vertex] || it.key != key[it.vertex] || it.center != winner[it.vertex] {
			continue
		}
		done[it.vertex] = true
		for _, w := range g.Neighbors(it.vertex) {
			if done[w] {
				continue
			}
			res.Metrics.Messages++
			nk := it.key + 1
			if nk < key[w] || (nk == key[w] && it.center < winner[w]) {
				key[w] = nk
				winner[w] = it.center
				heap.Push(&pq, mpxItem{vertex: int(w), center: it.center, key: nk})
			}
		}
	}

	addClustersByWinner(res, winner)
	res.Metrics.Rounds = int(math.Ceil(slices.Max(delta)))
	finishMPX(g, res, winner)
	return res, nil
}

// newMPXPartition returns the empty MPX partition of an n-vertex graph:
// complete by construction, and its one color class is not a proper
// supergraph coloring.
func newMPXPartition(algorithm string, n int) *partition.Partition {
	p := newPartition(algorithm, n, partition.StrongDiameter)
	p.ProperColors = false
	p.Complete = true
	return p
}

// addClustersByWinner adds one cluster per elected center of winner, the
// centers ascending and each cluster's members ascending. One counting pass
// does the grouping (winners are vertex ids, so the buckets are dense) and
// the clusters are carved out of one backing array — the same two-pass
// count/fill the engine's mailboxes and the core cluster assembly use.
func addClustersByWinner(p *partition.Partition, winner []int) {
	n := len(winner)
	offsets := make([]int, n+1)
	for _, c := range winner {
		offsets[c+1]++
	}
	for c := 0; c < n; c++ {
		offsets[c+1] += offsets[c]
	}
	members := make([]int, n)
	cursor := make([]int, n)
	copy(cursor, offsets[:n])
	for v, c := range winner {
		members[cursor[c]] = v
		cursor[c]++
	}
	for c := 0; c < n; c++ {
		if lo, hi := offsets[c], offsets[c+1]; lo < hi {
			addCluster(p, members[lo:hi:hi], c, 0, 0)
		}
	}
}

// finishMPX records the one color class and phase of the clustering that
// assigns every vertex to the cluster of center winner[v], and its cut
// measures.
func finishMPX(g graph.Interface, p *partition.Partition, winner []int) {
	p.Colors, p.PhasesUsed, p.PhaseBudget = 1, 1, 1
	for u, w := range graph.EdgeSeq(g) {
		if winner[u] != winner[w] {
			p.CutEdges++
		}
	}
	if m := graph.EdgeCount(g); m > 0 {
		p.CutFraction = float64(p.CutEdges) / float64(m)
	}
}

// mpxItem is a priority-queue entry of the shifted Dijkstra.
type mpxItem struct {
	vertex int
	center int
	key    float64
}

// mpxHeap orders items by key, breaking ties toward the smaller center so
// that the partition is deterministic.
type mpxHeap []mpxItem

func (h mpxHeap) Len() int { return len(h) }
func (h mpxHeap) Less(i, j int) bool {
	if h[i].key != h[j].key {
		return h[i].key < h[j].key
	}
	return h[i].center < h[j].center
}
func (h mpxHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *mpxHeap) Push(x any)   { *h = append(*h, x.(mpxItem)) }
func (h *mpxHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
