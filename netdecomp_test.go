package netdecomp_test

import (
	"context"
	"testing"

	"netdecomp"
)

// TestFacadeEndToEnd exercises the whole public surface the way the README
// quickstart does: build a graph, decompose it, verify it, and run the
// three applications.
func TestFacadeEndToEnd(t *testing.T) {
	g := netdecomp.GnpConnected(netdecomp.NewRNG(1), 400, 0.01)
	p, err := netdecomp.MustGet("elkin-neiman").Decompose(context.Background(), g,
		netdecomp.WithK(5), netdecomp.WithC(8), netdecomp.WithSeed(7), netdecomp.WithForceComplete())
	if err != nil {
		t.Fatal(err)
	}
	if !p.Complete {
		t.Fatal("ForceComplete run incomplete")
	}
	rep := netdecomp.VerifyPartition(g, p)
	if !rep.Valid() {
		t.Fatalf("verification failed: %v", rep.Err())
	}
	if bound, err := netdecomp.TheoremDiameterBound(g.N(), netdecomp.Options{K: 5, C: 8}); err != nil || rep.MaxStrongDiameter > bound {
		t.Fatalf("diameter %d over bound %d (err %v)", rep.MaxStrongDiameter, bound, err)
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
}

// TestFacadeDistributed checks the message-passing path through the facade.
func TestFacadeDistributed(t *testing.T) {
	g := netdecomp.Grid(12, 12)
	ctx := context.Background()
	a, err := netdecomp.MustGet("elkin-neiman").Decompose(ctx, g,
		netdecomp.WithK(4), netdecomp.WithC(8), netdecomp.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := netdecomp.MustGet("elkin-neiman/dist").Decompose(ctx, g,
		netdecomp.WithK(4), netdecomp.WithC(8), netdecomp.WithSeed(3), netdecomp.WithEngine())
	if err != nil {
		t.Fatal(err)
	}
	if a.Colors != b.Colors || len(a.Clusters) != len(b.Clusters) {
		t.Fatalf("facade paths disagree: %v vs %v", a, b)
	}
}

// TestFacadeBaselines checks the baselines through the registry.
func TestFacadeBaselines(t *testing.T) {
	g := netdecomp.RingOfCliques(8, 6)
	ctx := context.Background()
	ls, err := netdecomp.MustGet("linial-saks").Decompose(ctx, g,
		netdecomp.WithK(4), netdecomp.WithSeed(1), netdecomp.WithForceComplete())
	if err != nil {
		t.Fatal(err)
	}
	if !ls.Complete {
		t.Fatal("LS incomplete")
	}
	mpx, err := netdecomp.MustGet("mpx").Decompose(ctx, g, netdecomp.WithBeta(0.3), netdecomp.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if mpx.DisconnectedClusters(g) != 0 {
		t.Fatal("MPX produced disconnected clusters")
	}
	if _, err := netdecomp.LubyMIS(g, 5); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeBounds checks the bound helpers.
func TestFacadeBounds(t *testing.T) {
	o := netdecomp.Options{K: 4, C: 8}
	d, err := netdecomp.TheoremDiameterBound(1000, o)
	if err != nil || d != 6 {
		t.Fatalf("diameter bound %d err %v", d, err)
	}
	if _, err := netdecomp.TheoremColorBound(1000, o); err != nil {
		t.Fatal(err)
	}
	if _, err := netdecomp.TheoremRoundBound(1000, o); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeGraphConstruction checks the builder and edge-list paths.
func TestFacadeGraphConstruction(t *testing.T) {
	b := netdecomp.NewGraphBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Build()
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("builder graph wrong: %v", g)
	}
	g2 := netdecomp.FromEdges(3, [][2]int{{0, 1}, {1, 2}})
	if g2.M() != g.M() {
		t.Fatal("FromEdges disagrees with builder")
	}
	if tr := netdecomp.RandomTree(netdecomp.NewRNG(2), 50); tr.M() != 49 {
		t.Fatal("RandomTree wrong")
	}
	if gp := netdecomp.Gnp(netdecomp.NewRNG(3), 50, 0.1); gp.N() != 50 {
		t.Fatal("Gnp wrong")
	}
}
