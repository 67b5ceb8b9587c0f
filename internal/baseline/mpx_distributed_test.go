package baseline

import (
	"context"
	"math"
	"reflect"
	"slices"
	"testing"

	"netdecomp/internal/dist"
	"netdecomp/internal/gen"
	"netdecomp/internal/graph"
	"netdecomp/internal/randx"
)

func TestMPXDistributedMatchesExact(t *testing.T) {
	// The round-based top-1 forwarding implementation and the heap-based
	// shifted Dijkstra are independent algorithms for the same partition
	// (they share only the shift draw); they must agree on every cluster
	// and cut edge, on either engine scheduler.
	graphs := []*graph.Graph{
		gen.GnpConnected(randx.New(1), 250, 0.015),
		gen.Grid(14, 14),
		gen.RingOfCliques(10, 6),
		gen.RandomTree(randx.New(2), 200),
		gen.Path(64),
	}
	for gi, g := range graphs {
		for seed := uint64(0); seed < 3; seed++ {
			for _, beta := range []float64{0.2, 0.4} {
				exact, err := MPX(g, MPXOptions{Beta: beta, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				for _, eo := range []dist.Options{{}, {Parallel: true, Workers: 4}} {
					distr, err := MPXOnEngine(context.Background(), g, MPXOptions{Beta: beta, Seed: seed}, eo)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(exact.Clusters, distr.Clusters) {
						t.Fatalf("graph %d seed %d beta %v engine %+v: clusters differ", gi, seed, beta, eo)
					}
					if exact.CutEdges != distr.CutEdges {
						t.Fatalf("graph %d seed %d engine %+v: cut edges %d vs %d", gi, seed, eo, exact.CutEdges, distr.CutEdges)
					}
				}
			}
		}
	}
}

func TestMPXDistributedRoundsBounded(t *testing.T) {
	// The broadcast runs only as deep as the largest shift: rounds stay
	// within ceil(max delta) + 1.
	g := gen.GnpConnected(randx.New(3), 300, 0.01)
	o := MPXOptions{Beta: 0.3, Seed: 7}
	res, err := MPXOnEngine(context.Background(), g, o, dist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	maxDelta := slices.Max(shifts(o, g.N()))
	if float64(res.Metrics.Rounds) > math.Ceil(maxDelta)+1 {
		t.Fatalf("rounds %d exceed ceil(max delta)+1 = %v", res.Metrics.Rounds, math.Ceil(maxDelta)+1)
	}
}

func TestMPXDistributedValidation(t *testing.T) {
	g := gen.Path(4)
	if _, err := MPXOnEngine(context.Background(), g, MPXOptions{Beta: 0}, dist.Options{}); err == nil {
		t.Fatal("beta=0 accepted")
	}
	empty := graph.NewBuilder(0).Build()
	res, err := MPXOnEngine(context.Background(), empty, MPXOptions{Beta: 0.5}, dist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("empty graph result incomplete")
	}
}
