// Package cover builds sparse neighborhood covers from strong-diameter
// network decompositions — the application behind the paper's remark that
// "network decompositions are closely related to neighborhood covers,
// which are used extensively for routing [AP92] and synchronization"
// (Section 1.1, citing [ABCP92] for the relationship).
//
// A W-neighborhood cover is a family of vertex sets ("cover clusters")
// such that for every vertex v the ball B(v, W) is entirely contained in
// at least one set. Its quality is measured by its degree (the maximum
// number of sets containing one vertex) and the maximum diameter of its
// sets.
//
// The classical reduction implemented here: build the power graph
// H = G^{2W+1}, compute a strong (2k−2, χ) decomposition of H, and expand
// every cluster by W hops in G. Every ball B(v, W) lies inside the
// expansion of v's own cluster, and because same-color clusters are at
// G-distance ≥ 2W+2 apart, their W-expansions stay disjoint — so the cover
// degree is at most χ.
package cover

import (
	"context"
	"fmt"
	"slices"

	"netdecomp/internal/decomp"
	"netdecomp/internal/graph"
	"netdecomp/internal/session"
)

// Options configures a cover construction.
type Options struct {
	// W is the covered ball radius. W = 0 degenerates to the decomposition
	// itself.
	W int
	// K, C, Seed parameterize the underlying decomposition of the power
	// graph (forced to completion). K defaults to the algorithm's default
	// (⌈ln n⌉ for the randomized algorithms), C to 8.
	K    int
	C    float64
	Seed uint64
	// Algorithm names the registered decomposition algorithm run on the
	// power graph; "" means "elkin-neiman". Any complete partition yields
	// a valid cover (every ball B(v, W) lies inside the W-expansion of
	// v's own cluster); the degree bound Degree ≤ Colors additionally
	// needs a proper supergraph coloring, which every decomposition
	// algorithm provides (MPX does not).
	Algorithm string
	// Session, when non-nil, executes the power-graph decomposition
	// through the given serving session, so repeated cover builds on the
	// same graph and parameters are served from its result cache instead
	// of re-decomposing.
	Session *session.Session
}

// Cover is a W-neighborhood cover with its quality measures.
type Cover struct {
	// W is the covered radius.
	W int
	// Clusters are the cover sets, each sorted ascending.
	Clusters [][]int
	// Color is the decomposition color class each set descends from; sets
	// of equal color are pairwise disjoint.
	Color []int
	// Degree is the maximum number of sets containing one vertex (≤ the
	// decomposition's color count).
	Degree int
	// Colors is the color count of the underlying decomposition.
	Colors int
	// Rounds is the round cost of the underlying decomposition, scaled by
	// the 2W+1 slowdown of simulating one power-graph round on G.
	Rounds int
}

// Build constructs a W-neighborhood cover of g.
func Build(g graph.Interface, o Options) (*Cover, error) {
	return BuildContext(context.Background(), g, o)
}

// BuildContext is Build with cancellation: ctx is threaded into the
// power-graph decomposition, whatever registered algorithm runs it.
func BuildContext(ctx context.Context, g graph.Interface, o Options) (*Cover, error) {
	if o.W < 0 {
		return nil, fmt.Errorf("cover: W must be non-negative, got %d", o.W)
	}
	if o.C == 0 {
		o.C = 8
	}
	algorithm := o.Algorithm
	if algorithm == "" {
		algorithm = "elkin-neiman"
	}
	pl, err := decomp.Compile(algorithm,
		decomp.WithK(o.K),
		decomp.WithC(o.C),
		decomp.WithSeed(o.Seed),
		decomp.WithForceComplete(),
	)
	if err != nil {
		return nil, fmt.Errorf("cover: %w", err)
	}
	h, err := power(g, 2*o.W+1)
	if err != nil {
		return nil, err
	}
	var p *decomp.Partition
	if o.Session != nil {
		p, err = o.Session.Run(ctx, pl, h)
	} else {
		p, err = pl.Run(ctx, h)
	}
	if err != nil {
		return nil, fmt.Errorf("cover: decomposing power graph: %w", err)
	}
	c := &Cover{
		W:        o.W,
		Clusters: make([][]int, 0, len(p.Clusters)),
		Color:    make([]int, 0, len(p.Clusters)),
		Colors:   p.Colors,
		Rounds:   p.Metrics.Rounds * (2*o.W + 1),
	}
	count := make([]int, g.N())
	var s graph.BFSScratch
	for i := range p.Clusters {
		expanded := expandWith(&s, g, p.Clusters[i].Members, o.W)
		c.Clusters = append(c.Clusters, expanded)
		c.Color = append(c.Color, p.Clusters[i].Color)
		for _, v := range expanded {
			count[v]++
			if count[v] > c.Degree {
				c.Degree = count[v]
			}
		}
	}
	return c, nil
}

// power returns G^t: same vertices, an edge between every pair at distance
// at most t in g. t must be at least 1. For t == 1 it returns g itself (a
// zero-copy pass-through).
func power(g graph.Interface, t int) (graph.Interface, error) {
	if t < 1 {
		return nil, fmt.Errorf("cover: power exponent must be >= 1, got %d", t)
	}
	if t == 1 {
		return g, nil
	}
	// Scanning the distances of w > v in order hands the builder every row
	// already sorted, which its per-row sort then passes over in linear
	// time; appending each ball in BFS order, or sorting it, costs more.
	n := g.N()
	b := graph.NewBuilder(n)
	var s graph.BFSScratch
	for v := 0; v < n; v++ {
		s.Run(g, v, nil, t)
		for w := v + 1; w < n; w++ {
			if s.Dist(w) > 0 {
				b.AddEdge(v, w)
			}
		}
	}
	return b.Build(), nil
}

// expand returns the union of W-balls around the members, sorted.
func expand(g graph.Interface, members []int, w int) []int {
	return expandWith(new(graph.BFSScratch), g, members, w)
}

// expandWith is expand on a scratch that Build reuses for every cluster,
// so a cover's expansions cost their balls rather than n per cluster.
func expandWith(s *graph.BFSScratch, g graph.Interface, members []int, w int) []int {
	if w == 0 {
		out := make([]int, len(members))
		copy(out, members)
		return out
	}
	var out []int
	for _, v := range members {
		for _, u := range s.Run(g, v, nil, w) {
			out = append(out, int(u))
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Verify checks the covering property — every ball B(v, W) inside some
// cover set — and returns the maximum strong diameter over the sets. It
// returns an error describing the first violation found.
func (c *Cover) Verify(g graph.Interface) (maxDiameter int, err error) {
	// Index membership.
	membership := make([]map[int]bool, len(c.Clusters))
	for i, set := range c.Clusters {
		membership[i] = make(map[int]bool, len(set))
		for _, v := range set {
			membership[i][v] = true
		}
	}
	// Which sets contain each vertex (candidates for its ball).
	containing := make([][]int, g.N())
	for i, set := range c.Clusters {
		for _, v := range set {
			containing[v] = append(containing[v], i)
		}
	}
	var s graph.BFSScratch
	for v := 0; v < g.N(); v++ {
		ball := s.Run(g, v, nil, c.W)
		found := false
		for _, ci := range containing[v] {
			inside := true
			for _, u := range ball {
				if !membership[ci][int(u)] {
					inside = false
					break
				}
			}
			if inside {
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("cover: ball B(%d,%d) not contained in any cover set", v, c.W)
		}
	}
	for i, set := range c.Clusters {
		d, ok := graph.SubsetStrongDiameter(g, set)
		if !ok {
			return 0, fmt.Errorf("cover: set %d disconnected in induced subgraph", i)
		}
		if d > maxDiameter {
			maxDiameter = d
		}
	}
	return maxDiameter, nil
}
