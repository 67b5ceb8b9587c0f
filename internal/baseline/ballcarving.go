package baseline

import (
	"context"
	"fmt"
	"math"

	"netdecomp/internal/graph"
	"netdecomp/internal/partition"
)

// BCOptions configures the deterministic ball-carving decomposition.
type BCOptions struct {
	// K is the tradeoff parameter: clusters have strong diameter ≤ 2K and
	// the number of colors is O(K·n^{1/K}·...) in the worst case — at
	// K = log₂ n the classic (O(log n), O(log n)) existence bound.
	K int
}

// BallCarving computes the classic deterministic *sequential*
// strong-diameter network decomposition by ball growing: in each phase it
// repeatedly picks the smallest unprocessed vertex, grows a ball until the
// next shell would be smaller than a (growth = n^{1/K}) multiplicative
// increase, carves the ball as a cluster of this phase's color, and defers
// the separating shell to later phases.
//
// This is the textbook existence argument for strong (O(log n), O(log n))
// decompositions (each ball can K-fold-grow at most K times before
// exceeding n, so the radius stays ≤ K; at K = log₂ n each phase defers
// fewer vertices than it clusters, so O(log n) phases suffice). The paper's
// contribution is matching it with an efficient *distributed* algorithm —
// this sequential construction is inherently global, so its rounds are
// reported as 0 and it serves purely as the quality yardstick in the
// comparison experiments.
func BallCarving(g graph.Interface, o BCOptions) (*partition.Partition, error) {
	return BallCarvingContext(context.Background(), g, o)
}

// BallCarvingContext is BallCarving with cancellation: ctx is checked
// between phases and the run returns ctx.Err() when cancelled.
func BallCarvingContext(ctx context.Context, g graph.Interface, o BCOptions) (*partition.Partition, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := g.N()
	if o.K < 1 {
		return nil, fmt.Errorf("baseline: BallCarving requires K >= 1, got %d", o.K)
	}
	part := newPartition("ball-carving", n, partition.StrongDiameter)
	if n == 0 {
		part.Complete = true
		return part, nil
	}
	// growth = n^{1/K}: keep growing while the ball multiplies by at
	// least this factor per hop.
	growth := math.Pow(float64(n), 1/float64(o.K))

	alive := make([]bool, n) // not yet clustered in ANY phase
	for v := range alive {
		alive[v] = true
	}
	remaining := n
	var s graph.BFSScratch
	var sizeAt []int

	maxPhases := 64*n + 64 // far above the O(log n) reality; bug guard
	for phase := 0; remaining > 0; phase++ {
		if phase >= maxPhases {
			return nil, fmt.Errorf("baseline: BallCarving did not terminate after %d phases", phase)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// working[v]: v is available to this phase (alive and not deferred
		// by an earlier ball of this phase).
		working := make([]bool, n)
		for v := 0; v < n; v++ {
			working[v] = alive[v]
		}
		carvedAny := false
		for start := 0; start < n; start++ {
			if !working[start] {
				continue
			}
			// Grow a BFS ball from start inside the working set. The reached
			// list is in nondecreasing distance, so |B(start, r)| is the
			// index of its first vertex at distance r+1.
			reached := s.Run(g, start, working, -1)
			sizeAt = sizeAt[:0] // |B(start, r)| cumulative per radius
			for i, u := range reached {
				if s.Dist(int(u)) > len(sizeAt) {
					sizeAt = append(sizeAt, i)
				}
			}
			sizeAt = append(sizeAt, len(reached))
			// Choose the carving radius: the first r with
			// |B(r+1)| < growth·|B(r)| (must exist with r ≤ K).
			r := len(sizeAt) - 1 // whole component fallback
			for cand := 0; cand+1 < len(sizeAt); cand++ {
				if float64(sizeAt[cand+1]) < growth*float64(sizeAt[cand]) {
					r = cand
					break
				}
			}
			// Carve B(start, r); defer the shell at distance r+1.
			var members []int
			for _, u := range reached {
				ui := int(u)
				switch d := s.Dist(ui); {
				case d <= r:
					members = append(members, ui)
					alive[ui] = false
					working[ui] = false
				case d == r+1:
					working[ui] = false // deferred to a later phase
				}
			}
			addCluster(part, members, start, phase, part.Colors)
			remaining -= len(members)
			carvedAny = true
		}
		if carvedAny {
			part.Colors++
		}
		part.PhasesUsed++
	}
	part.Complete = true
	part.PhaseBudget = part.PhasesUsed
	return part, nil
}
