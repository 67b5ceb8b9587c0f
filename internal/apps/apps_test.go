package apps

import (
	"testing"

	"netdecomp/internal/baseline"
	"netdecomp/internal/core"
	"netdecomp/internal/gen"
	"netdecomp/internal/graph"
	"netdecomp/internal/randx"
	"netdecomp/internal/verify"
)

// decompose produces a complete decomposition input for tests.
func decompose(t *testing.T, g *graph.Graph, seed uint64) Input {
	t.Helper()
	dec, err := core.Run(g, core.Options{K: 4, C: 8, Seed: seed, ForceComplete: true})
	if err != nil {
		t.Fatal(err)
	}
	in, err := FromPartition(g, &dec.Partition)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

var testGraphs = func() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"gnp":  gen.GnpConnected(randx.New(1), 250, 0.015),
		"grid": gen.Grid(14, 14),
		"tree": gen.RandomTree(randx.New(2), 200),
		"roc":  gen.RingOfCliques(10, 6),
		"path": gen.Path(64),
	}
}()

func TestMISValid(t *testing.T) {
	for name, g := range testGraphs {
		in := decompose(t, g, 7)
		res, err := MIS(g, in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := verify.MIS(g, res.InSet); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Size == 0 && g.N() > 0 {
			t.Fatalf("%s: empty MIS", name)
		}
		if res.Rounds <= 0 {
			t.Fatalf("%s: no rounds accounted", name)
		}
	}
}

func TestMISSizeComparableToGreedy(t *testing.T) {
	g := testGraphs["gnp"]
	in := decompose(t, g, 3)
	res, err := MIS(g, in)
	if err != nil {
		t.Fatal(err)
	}
	greedy := GreedyMIS(g)
	// Both are maximal; sizes must be within a factor related to degrees,
	// but at minimum neither can be empty and each is a valid MIS.
	if err := verify.MIS(g, greedy.InSet); err != nil {
		t.Fatal(err)
	}
	if res.Size*4 < greedy.Size || greedy.Size*4 < res.Size {
		t.Fatalf("suspicious MIS size gap: decomposition %d vs greedy %d", res.Size, greedy.Size)
	}
}

func TestColoringValid(t *testing.T) {
	for name, g := range testGraphs {
		in := decompose(t, g, 11)
		res, err := Coloring(g, in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := verify.Coloring(g, res.Colors, g.MaxDegree()+1); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.NumColors > g.MaxDegree()+1 {
			t.Fatalf("%s: %d colors exceed Δ+1 = %d", name, res.NumColors, g.MaxDegree()+1)
		}
	}
}

func TestMatchingValid(t *testing.T) {
	for name, g := range testGraphs {
		in := decompose(t, g, 13)
		res, err := Matching(g, in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := verify.Matching(g, res.Mate); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		greedy := GreedyMatching(g)
		if err := verify.Matching(g, greedy.Mate); err != nil {
			t.Fatalf("%s greedy: %v", name, err)
		}
		// Maximal matchings are 2-approximations of each other.
		if res.Size*2 < greedy.Size || greedy.Size*2 < res.Size {
			t.Fatalf("%s: matching sizes too far apart: %d vs %d", name, res.Size, greedy.Size)
		}
	}
}

func TestAppsOnLinialSaksClusters(t *testing.T) {
	// The framework must also run on weak-diameter (possibly
	// induced-disconnected) clusters, costing weak diameter per cluster.
	g := testGraphs["roc"]
	p, err := baseline.LinialSaks(g, baseline.LSOptions{K: 4, Seed: 5, ForceComplete: true})
	if err != nil {
		t.Fatal(err)
	}
	in := Input{Clusters: p.MemberLists(), Colors: make([]int, len(p.Clusters))}
	for i := range p.Clusters {
		in.Colors[i] = p.Clusters[i].Color
	}
	res, err := MIS(g, in)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.MIS(g, res.InSet); err != nil {
		t.Fatal(err)
	}
}

func TestRoundsTrackDChi(t *testing.T) {
	// The framework's promise: rounds ≈ Σ_color (2·maxDiam + 2) ≤
	// χ·(2D+2). Verify the accounting never exceeds the bound computed
	// from the decomposition itself.
	g := testGraphs["gnp"]
	dec, err := core.Run(g, core.Options{K: 4, C: 8, Seed: 19, ForceComplete: true})
	if err != nil {
		t.Fatal(err)
	}
	in, err := FromPartition(g, &dec.Partition)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MIS(g, in)
	if err != nil {
		t.Fatal(err)
	}
	maxDiam, disconnected := dec.StrongDiameter(g)
	if disconnected != 0 {
		t.Fatal("disconnected cluster")
	}
	bound := dec.Colors * (2*maxDiam + 2)
	if res.Rounds > bound {
		t.Fatalf("MIS rounds %d exceed χ(2D+2) = %d", res.Rounds, bound)
	}
}

func TestPlanValidation(t *testing.T) {
	g := gen.Path(4)
	cases := []Input{
		{Clusters: [][]int{{0, 1}}, Colors: []int{0, 1}},          // length mismatch
		{Clusters: [][]int{{0, 1}, {}}, Colors: []int{0, 1}},      // empty cluster
		{Clusters: [][]int{{0, 1}, {1, 2}}, Colors: []int{0, 1}},  // overlap
		{Clusters: [][]int{{0, 1, 9}}, Colors: []int{0}},          // out of range
		{Clusters: [][]int{{0, 1}, {2, 3}}, Colors: []int{0, -2}}, // bad color
		{Clusters: [][]int{{0, 1}}, Colors: []int{0}},             // not covering
	}
	for i, in := range cases {
		if _, err := MIS(g, in); err == nil {
			t.Fatalf("case %d accepted: %+v", i, in)
		}
	}
}

func TestLubyMIS(t *testing.T) {
	for name, g := range testGraphs {
		for seed := uint64(0); seed < 3; seed++ {
			res, err := LubyMIS(g, seed)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := verify.MIS(g, res.InSet); err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if res.Rounds <= 0 {
				t.Fatalf("%s: Luby accounted no rounds", name)
			}
		}
	}
}

func TestLubyEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0).Build()
	res, err := LubyMIS(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size != 0 || res.Rounds != 0 {
		t.Fatal("empty graph Luby wrong")
	}
}

func TestGreedyReferencesOnCompleteGraph(t *testing.T) {
	g := gen.Complete(10)
	mis := GreedyMIS(g)
	if mis.Size != 1 {
		t.Fatalf("MIS of K10 has size %d", mis.Size)
	}
	m := GreedyMatching(g)
	if m.Size != 5 {
		t.Fatalf("maximal matching of K10 has %d edges, want 5", m.Size)
	}
}

func TestMatchingProposalArbitration(t *testing.T) {
	// Star graphs force many simultaneous proposals to one hub.
	g := gen.Star(32)
	in := decompose(t, g, 23)
	res, err := Matching(g, in)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Matching(g, res.Mate); err != nil {
		t.Fatal(err)
	}
	if res.Size != 1 {
		t.Fatalf("star matching size %d, want 1", res.Size)
	}
}

func BenchmarkMISViaDecomposition(b *testing.B) {
	g := gen.GnpConnected(randx.New(1), 1024, 0.006)
	dec, err := core.Run(g, core.Options{K: 5, C: 8, Seed: 1, ForceComplete: true})
	if err != nil {
		b.Fatal(err)
	}
	in, err := FromPartition(g, &dec.Partition)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MIS(g, in); err != nil {
			b.Fatal(err)
		}
	}
}
