package netdecomp_test

import (
	"context"
	"testing"

	"netdecomp"
)

// TestUnifiedAPIEndToEnd drives the registry surface the way README.md
// does: pick an algorithm by name, decompose, verify, and feed every
// downstream consumer.
func TestUnifiedAPIEndToEnd(t *testing.T) {
	g := netdecomp.GnpConnected(netdecomp.NewRNG(1), 300, 0.015)
	ctx := context.Background()
	for _, name := range netdecomp.Algorithms() {
		name := name
		t.Run(name, func(t *testing.T) {
			d, err := netdecomp.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			p, err := d.Decompose(ctx, g, netdecomp.WithSeed(5), netdecomp.WithForceComplete())
			if err != nil {
				t.Fatal(err)
			}
			if rep := netdecomp.VerifyPartition(g, p); !rep.Valid() {
				t.Fatalf("verify: %v", rep.Err())
			}
			in, err := netdecomp.AppInputFromPartition(g, p)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := netdecomp.MIS(g, in); err != nil {
				t.Fatal(err)
			}
			if _, err := netdecomp.Coloring(g, in); err != nil {
				t.Fatal(err)
			}
			if _, err := netdecomp.Matching(g, in); err != nil {
				t.Fatal(err)
			}
			if _, err := netdecomp.BuildSpannerFrom(g, p); err != nil {
				t.Fatal(err)
			}
		})
	}
	if _, err := netdecomp.BuildCover(g, netdecomp.CoverOptions{W: 1, K: 3, Seed: 2, Algorithm: "mpx"}); err != nil {
		t.Fatal(err)
	}
}

// TestRegisterCustomDecomposer: applications can plug their own algorithm
// into the registry and every consumer picks it up.
func TestRegisterCustomDecomposer(t *testing.T) {
	// A trivial "one cluster per connected component" algorithm, built
	// from the ball-carving primitive with a huge K.
	netdecomp.RegisterDecomposer(netdecomp.NewDecomposer("test/whole-graph",
		func(ctx context.Context, g netdecomp.GraphInterface, _ netdecomp.DecomposerConfig) (*netdecomp.Partition, error) {
			inner, err := netdecomp.MustGet("ball-carving").Decompose(ctx, g, netdecomp.WithK(1))
			if err != nil {
				return nil, err
			}
			inner.Algorithm = "test/whole-graph"
			return inner, nil
		}))
	found := false
	for _, name := range netdecomp.Algorithms() {
		if name == "test/whole-graph" {
			found = true
		}
	}
	if !found {
		t.Fatal("custom algorithm not listed")
	}
	g := netdecomp.Grid(6, 6)
	p, err := netdecomp.MustGet("test/whole-graph").Decompose(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if p.Algorithm != "test/whole-graph" || !p.Complete {
		t.Fatalf("custom partition wrong: %v", p)
	}
	if rep := netdecomp.VerifyPartition(g, p); !rep.Valid() {
		t.Fatalf("custom partition invalid: %v", rep.Err())
	}
}

// TestObserverThroughFacade checks the streaming hook end to end.
func TestObserverThroughFacade(t *testing.T) {
	g := netdecomp.Grid(10, 10)
	var calls int
	p, err := netdecomp.MustGet("elkin-neiman/dist").Decompose(context.Background(), g,
		netdecomp.WithSeed(3), netdecomp.WithEngine(),
		netdecomp.WithObserver(func(r netdecomp.RoundStats) { calls++ }))
	if err != nil {
		t.Fatal(err)
	}
	if calls != p.Metrics.Rounds {
		t.Fatalf("observer called %d times for %d rounds", calls, p.Metrics.Rounds)
	}
}

// TestDecomposeCancelledThroughFacade checks ctx plumbing end to end.
func TestDecomposeCancelledThroughFacade(t *testing.T) {
	g := netdecomp.Grid(8, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := netdecomp.MustGet("elkin-neiman").Decompose(ctx, g); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
