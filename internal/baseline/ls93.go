package baseline

import (
	"context"
	"fmt"
	"math"
	"sort"

	"netdecomp/internal/graph"
	"netdecomp/internal/partition"
	"netdecomp/internal/randx"
)

// LSOptions configures the Linial–Saks decomposition.
type LSOptions struct {
	// K is the radius parameter: clusters have weak diameter ≤ 2K−2.
	// Must be at least 2 (at K=1 the capture rule degenerates and no
	// vertex ever joins a block).
	K int
	// C plays the same confidence role as in the Elkin–Neiman options;
	// the phase budget is ⌈(cK·n)^{1/K}·ln(cn)⌉-style. Default 8.
	C float64
	// Seed drives all randomness.
	Seed uint64
	// PhaseBudget overrides the default budget when positive.
	PhaseBudget int
	// ForceComplete keeps carving past the budget until every vertex is
	// clustered.
	ForceComplete bool
}

// Validate reports why o cannot run on any graph, or nil. A zero C stands
// for its default of 8. LinialSaksContext begins with it.
func (o LSOptions) Validate() error {
	if o.K < 2 {
		return fmt.Errorf("baseline: LinialSaks requires K >= 2, got %d", o.K)
	}
	if o.C != 0 && o.C <= 1 {
		return fmt.Errorf("baseline: LinialSaks requires C > 1, got %v", o.C)
	}
	return nil
}

// LinialSaks runs the randomized weak-diameter network decomposition of
// Linial and Saks on g.
//
// Per phase, every surviving vertex v draws a radius r_v from the
// truncated geometric distribution (Pr[r=j] = (1−p)p^j for j < K−1, with
// the remaining mass p^{K−1} at K−1, p = (cn)^{−1/K}) and broadcasts
// (id_v, r_v) through its r_v-ball in the surviving graph G_t. Every
// vertex y elects the minimum-id vertex v* whose broadcast reached it and
// joins the phase's block iff it is in the strict interior of the winning
// ball (d(y, v*) < r_{v*}). Clusters are the groups with a common elected
// center; they have weak diameter ≤ 2K−2 but — unlike the Elkin–Neiman
// clusters — their induced subgraphs may be disconnected, so their strong
// diameter is unbounded.
//
// Rounds are counted as K−1 per phase (the maximum broadcast depth);
// messages count each broadcast forwarded over each edge of its ball once,
// which is the LS93 accounting of broadcast cost.
func LinialSaks(g graph.Interface, o LSOptions) (*partition.Partition, error) {
	return LinialSaksContext(context.Background(), g, o)
}

// LinialSaksContext is LinialSaks with cancellation: ctx is checked
// between phases and the run returns ctx.Err() when cancelled.
func LinialSaksContext(ctx context.Context, g graph.Interface, o LSOptions) (*partition.Partition, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := g.N()
	if o.C == 0 {
		o.C = 8
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	part := newPartition("linial-saks", n, partition.WeakDiameter)
	if n == 0 {
		part.Complete = true
		return part, nil
	}
	cn := o.C * float64(n)
	p := math.Pow(cn, -1/float64(o.K))
	budget := int(math.Ceil(math.Pow(cn, 1/float64(o.K)) * math.Log(cn)))
	if o.PhaseBudget > 0 {
		budget = o.PhaseBudget
	}
	part.PhaseBudget = budget
	maxPhases := budget
	if o.ForceComplete {
		maxPhases = 64*budget + 1024
	}

	alive := make([]bool, n)
	for v := range alive {
		alive[v] = true
	}
	aliveCount := n

	radius := make([]int, n)
	bestID := make([]int, n)   // elected center per vertex this phase
	bestDist := make([]int, n) // distance to elected center
	bestR := make([]int, n)    // radius of elected center
	var s graph.BFSScratch
	joiners := make([]int, 0, n) // reusable per-phase capture worklist

	for phase := 0; aliveCount > 0; phase++ {
		if phase >= budget && !o.ForceComplete {
			break
		}
		if phase >= maxPhases {
			return nil, fmt.Errorf("baseline: LinialSaks did not exhaust the graph after %d phases", phase)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Draw radii.
		maxR := 0
		for v := 0; v < n; v++ {
			if !alive[v] {
				continue
			}
			rng := randx.Derive(o.Seed, uint64(phase), uint64(v))
			radius[v] = randx.TruncGeom(rng, p, o.K-1)
			if radius[v] > maxR {
				maxR = radius[v]
			}
			bestID[v] = -1
		}
		part.Metrics.Rounds += o.K - 1

		// Exact candidate election: BFS from every center within its
		// radius, keeping the minimum-id winner at every reached vertex.
		// The broadcast crosses one edge into every vertex it reaches
		// besides the center.
		for v := 0; v < n; v++ {
			if !alive[v] {
				continue
			}
			reached := s.Run(g, v, alive, radius[v])
			for _, u := range reached {
				if bestID[u] == -1 || v < bestID[u] {
					bestID[u] = v
					bestDist[u] = s.Dist(int(u))
					bestR[u] = radius[v]
				}
			}
			part.Metrics.Messages += int64(len(reached) - 1)
		}

		// Capture rule: join iff strictly interior to the winning ball.
		// The joiners are collected into a reusable worklist, grouped by
		// elected center with one stable sort, and the phase's clusters are
		// carved out of a single exact-size backing array — replacing the
		// per-phase map of growing slices (same deterministic order:
		// centers ascending, members ascending).
		joiners = joiners[:0]
		for y := 0; y < n; y++ {
			if !alive[y] || bestID[y] == -1 {
				continue
			}
			if bestDist[y] < bestR[y] {
				joiners = append(joiners, y)
			}
		}
		if len(joiners) > 0 {
			sort.SliceStable(joiners, func(i, j int) bool { return bestID[joiners[i]] < bestID[joiners[j]] })
			members := make([]int, len(joiners))
			copy(members, joiners)
			for lo := 0; lo < len(members); {
				hi := lo
				c := bestID[members[lo]]
				for hi < len(members) && bestID[members[hi]] == c {
					hi++
				}
				addCluster(part, members[lo:hi:hi], c, phase, part.Colors)
				aliveCount -= hi - lo
				lo = hi
			}
			for _, y := range members {
				alive[y] = false
			}
			part.Colors++
		}
		part.PhasesUsed++
	}
	part.Complete = aliveCount == 0
	return part, nil
}
