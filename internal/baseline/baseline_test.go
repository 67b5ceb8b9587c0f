package baseline

import (
	"context"
	"reflect"
	"testing"
	"testing/quick"

	"netdecomp/internal/dist"
	"netdecomp/internal/gen"
	"netdecomp/internal/graph"
	"netdecomp/internal/partition"
	"netdecomp/internal/randx"
)

// checkLSPartition verifies the structural invariants of a Linial–Saks
// result: clusters disjoint, ClusterOf consistent, proper coloring of the
// cluster supergraph, weak diameter within 2K-2.
func checkLSPartition(t *testing.T, g *graph.Graph, p *partition.Partition, k int) {
	t.Helper()
	seen := make([]bool, g.N())
	for ci, c := range p.Clusters {
		if len(c.Members) == 0 {
			t.Fatalf("cluster %d empty", ci)
		}
		for _, v := range c.Members {
			if seen[v] {
				t.Fatalf("vertex %d in two clusters", v)
			}
			seen[v] = true
			if p.ClusterOf[v] != ci {
				t.Fatalf("ClusterOf[%d] inconsistent", v)
			}
		}
	}
	if p.Complete {
		for v := 0; v < g.N(); v++ {
			if !seen[v] {
				t.Fatalf("complete partition missing vertex %d", v)
			}
		}
	}
	for _, e := range g.Edges() {
		cu, cv := p.ClusterOf[e[0]], p.ClusterOf[e[1]]
		if cu < 0 || cv < 0 || cu == cv {
			continue
		}
		if p.Clusters[cu].Color == p.Clusters[cv].Color {
			t.Fatalf("edge %v joins clusters of equal color %d", e, p.Clusters[cu].Color)
		}
	}
	if wd, ok := p.WeakDiameter(g); ok && wd > 2*k-2 {
		t.Fatalf("weak diameter %d exceeds 2k-2 = %d", wd, 2*k-2)
	}
}

func TestLinialSaksBasic(t *testing.T) {
	g := gen.GnpConnected(randx.New(1), 300, 0.01)
	p, err := LinialSaks(g, LSOptions{K: 5, C: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	checkLSPartition(t, g, p, 5)
	if p.PhasesUsed == 0 || len(p.Clusters) == 0 {
		t.Fatalf("degenerate run: %+v", p)
	}
}

func TestLinialSaksDeterministic(t *testing.T) {
	g := gen.Grid(15, 15)
	a, err := LinialSaks(g, LSOptions{K: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := LinialSaks(g, LSOptions{K: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Clusters, b.Clusters) {
		t.Fatal("same seed produced different partitions")
	}
}

func TestLinialSaksForceComplete(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		g := gen.GnpConnected(randx.New(seed+10), 200, 0.015)
		p, err := LinialSaks(g, LSOptions{K: 4, Seed: seed, ForceComplete: true})
		if err != nil {
			t.Fatal(err)
		}
		if !p.Complete {
			t.Fatalf("seed %d: ForceComplete left survivors", seed)
		}
		checkLSPartition(t, g, p, 4)
	}
}

func TestLinialSaksValidation(t *testing.T) {
	g := gen.Path(5)
	if _, err := LinialSaks(g, LSOptions{K: 1}); err == nil {
		t.Fatal("K=1 accepted")
	}
	if _, err := LinialSaks(g, LSOptions{K: 3, C: 0.5}); err == nil {
		t.Fatal("C<=1 accepted")
	}
}

func TestLinialSaksEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0).Build()
	p, err := LinialSaks(g, LSOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Complete || len(p.Clusters) != 0 {
		t.Fatal("empty graph partition wrong")
	}
}

func TestLinialSaksTightBudgetIncomplete(t *testing.T) {
	g := gen.GnpConnected(randx.New(20), 300, 0.01)
	p, err := LinialSaks(g, LSOptions{K: 4, Seed: 1, PhaseBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.Complete {
		t.Skip("single phase happened to exhaust the graph (unlikely)")
	}
	if len(p.Clusters) == 0 {
		t.Fatal("single phase produced nothing at all")
	}
	unassigned := 0
	for _, ci := range p.ClusterOf {
		if ci < 0 {
			unassigned++
		}
	}
	if unassigned == 0 {
		t.Fatal("incomplete run reports no unassigned vertices")
	}
}

func TestLinialSaksColorsArePhases(t *testing.T) {
	g := gen.GnpConnected(randx.New(21), 200, 0.015)
	p, err := LinialSaks(g, LSOptions{K: 4, Seed: 5, ForceComplete: true})
	if err != nil {
		t.Fatal(err)
	}
	if p.Colors > p.PhasesUsed {
		t.Fatalf("colors %d exceed phases %d", p.Colors, p.PhasesUsed)
	}
	maxColor := -1
	for _, c := range p.Clusters {
		if c.Color > maxColor {
			maxColor = c.Color
		}
	}
	if maxColor+1 != p.Colors {
		t.Fatalf("Colors=%d but max color used is %d", p.Colors, maxColor)
	}
}

func TestMPXPartitionComplete(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		g := gen.GnpConnected(randx.New(seed), 300, 0.01)
		res, err := MPX(g, MPXOptions{Beta: 0.3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Complete {
			t.Fatal("MPX must partition every vertex")
		}
		for v, ci := range res.ClusterOf {
			if ci < 0 {
				t.Fatalf("vertex %d unassigned", v)
			}
		}
		total := 0
		for _, c := range res.Clusters {
			total += len(c.Members)
		}
		if total != g.N() {
			t.Fatalf("cluster sizes sum to %d, want %d", total, g.N())
		}
	}
}

func TestMPXClustersConnected(t *testing.T) {
	// The defining structural property of shifted-exponential clustering:
	// every cluster is connected in its induced subgraph (strong diameter
	// finite). This is what Elkin–Neiman inherit for their blocks.
	graphs := []*graph.Graph{
		gen.GnpConnected(randx.New(30), 250, 0.012),
		gen.Grid(16, 16),
		gen.RingOfCliques(12, 6),
		gen.RandomTree(randx.New(31), 200),
	}
	for gi, g := range graphs {
		for seed := uint64(0); seed < 3; seed++ {
			res, err := MPX(g, MPXOptions{Beta: 0.25, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if d := res.DisconnectedClusters(g); d != 0 {
				t.Fatalf("graph %d seed %d: %d disconnected MPX clusters", gi, seed, d)
			}
		}
	}
}

func TestMPXCentersInOwnCluster(t *testing.T) {
	g := gen.Grid(12, 12)
	res, err := MPX(g, MPXOptions{Beta: 0.3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Clusters {
		if res.ClusterOf[c.Center] != res.ClusterOf[c.Members[0]] {
			t.Fatalf("center %d not in its own cluster", c.Center)
		}
	}
}

func TestMPXCutFractionScalesWithBeta(t *testing.T) {
	// MPX Theorem: Pr[edge cut] = O(beta). Check the empirical fraction
	// stays within a small constant of beta, and that halving beta
	// roughly halves the cut (monotone shape).
	g := gen.Grid(30, 30)
	avg := func(beta float64) float64 {
		sum := 0.0
		const runs = 10
		for seed := uint64(0); seed < runs; seed++ {
			res, err := MPX(g, MPXOptions{Beta: beta, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			sum += res.CutFraction
		}
		return sum / runs
	}
	c4, c2 := avg(0.4), avg(0.2)
	if c4 > 4*0.4 {
		t.Fatalf("cut fraction %v at beta 0.4 is not O(beta)", c4)
	}
	if c2 >= c4 {
		t.Fatalf("cut fraction did not decrease with beta: %v -> %v", c4, c2)
	}
}

func TestMPXDeterministic(t *testing.T) {
	g := gen.GnpConnected(randx.New(40), 200, 0.015)
	a, err := MPX(g, MPXOptions{Beta: 0.3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MPX(g, MPXOptions{Beta: 0.3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Clusters, b.Clusters) || a.CutEdges != b.CutEdges {
		t.Fatal("same seed produced different MPX partitions")
	}
}

func TestMPXValidation(t *testing.T) {
	g := gen.Path(4)
	for _, beta := range []float64{0, -1, 1.5} {
		if _, err := MPX(g, MPXOptions{Beta: beta}); err == nil {
			t.Fatalf("beta=%v accepted", beta)
		}
	}
}

func TestMPXEmptyAndSingle(t *testing.T) {
	empty := graph.NewBuilder(0).Build()
	res, err := MPX(empty, MPXOptions{Beta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || len(res.Clusters) != 0 {
		t.Fatal("empty MPX wrong")
	}
	single := graph.NewBuilder(1).Build()
	res, err = MPX(single, MPXOptions{Beta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 1 || res.CutEdges != 0 {
		t.Fatal("single-vertex MPX wrong")
	}
}

func TestPartitionAccessors(t *testing.T) {
	g := gen.Cycle(12)
	p, err := LinialSaks(g, LSOptions{K: 3, Seed: 2, ForceComplete: true})
	if err != nil {
		t.Fatal(err)
	}
	lists := p.MemberLists()
	if len(lists) != len(p.Clusters) {
		t.Fatal("MemberLists length mismatch")
	}
	for v := 0; v < g.N(); v++ {
		if p.ClusterOf[v] >= 0 && p.ColorOf(v) != p.Clusters[p.ClusterOf[v]].Color {
			t.Fatalf("ColorOf(%d) inconsistent", v)
		}
	}
}

func BenchmarkLinialSaks(b *testing.B) {
	g := gen.GnpConnected(randx.New(1), 1024, 0.006)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LinialSaks(g, LSOptions{K: 5, Seed: uint64(i), ForceComplete: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMPX(b *testing.B) {
	g := gen.GnpConnected(randx.New(1), 1024, 0.006)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MPX(g, MPXOptions{Beta: 0.3, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestQuickLinialSaksAlwaysValid: arbitrary seeds and k produce structurally
// valid weak decompositions.
func TestQuickLinialSaksAlwaysValid(t *testing.T) {
	g := gen.GnpConnected(randx.New(90), 120, 0.025)
	f := func(seed uint64, kRaw uint8) bool {
		k := int(kRaw%5) + 2
		p, err := LinialSaks(g, LSOptions{K: k, Seed: seed, ForceComplete: true})
		if err != nil || !p.Complete {
			return false
		}
		seen := make([]bool, g.N())
		for _, c := range p.Clusters {
			for _, v := range c.Members {
				if seen[v] {
					return false
				}
				seen[v] = true
			}
		}
		for _, e := range g.Edges() {
			cu, cv := p.ClusterOf[e[0]], p.ClusterOf[e[1]]
			if cu != cv && p.Clusters[cu].Color == p.Clusters[cv].Color {
				return false
			}
		}
		wd, ok := p.WeakDiameter(g)
		return ok && wd <= 2*k-2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMPXPartitionProperties: arbitrary seeds/betas keep MPX total,
// connected and consistent between implementations.
func TestQuickMPXPartitionProperties(t *testing.T) {
	g := gen.Grid(10, 10)
	f := func(seed uint64, bRaw uint8) bool {
		beta := 0.05 + float64(bRaw%90)/100
		a, err := MPX(g, MPXOptions{Beta: beta, Seed: seed})
		if err != nil {
			return false
		}
		b, err := MPXOnEngine(context.Background(), g, MPXOptions{Beta: beta, Seed: seed}, dist.Options{})
		if err != nil {
			return false
		}
		if a.CutEdges != b.CutEdges || len(a.Clusters) != len(b.Clusters) {
			return false
		}
		return a.DisconnectedClusters(g) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
