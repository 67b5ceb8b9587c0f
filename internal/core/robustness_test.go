package core

import (
	"context"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"netdecomp/internal/dist"
	"netdecomp/internal/gen"
	"netdecomp/internal/graph"
	"netdecomp/internal/randx"
)

func TestDisconnectedInputGraph(t *testing.T) {
	// Two components plus isolated vertices: phases run on all surviving
	// vertices at once; the decomposition must cover every component.
	b := graph.NewBuilder(60)
	for i := 0; i < 19; i++ {
		b.AddEdge(i, i+1) // path component 0..19
	}
	for i := 20; i < 39; i++ {
		b.AddEdge(i, i+1) // path component 20..39
	}
	// 40..59 isolated
	g := b.Build()
	dec, err := Run(g, Options{K: 3, C: 8, Seed: 5, ForceComplete: true})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Complete {
		t.Fatal("disconnected graph not fully decomposed")
	}
	checkPartition(t, g, dec)
	// No cluster may span two components.
	comp, _ := g.Components()
	for ci, c := range dec.Clusters {
		for _, v := range c.Members[1:] {
			if comp[v] != comp[c.Members[0]] {
				t.Fatalf("cluster %d spans components", ci)
			}
		}
	}
}

func TestTruncationStressKeepsPartitionValid(t *testing.T) {
	// Force truncation events with a tiny k and adversarially small c
	// (just above the validity threshold): the diameter bound may break,
	// but the partition structure and proper coloring never do.
	g := gen.GnpConnected(randx.New(60), 200, 0.02)
	sawTruncation := false
	for seed := uint64(0); seed < 10; seed++ {
		dec, err := Run(g, Options{K: 2, C: 3.01, Seed: seed, ForceComplete: true})
		if err != nil {
			t.Fatal(err)
		}
		if dec.TruncationEvents > 0 {
			sawTruncation = true
		}
		checkPartition(t, g, dec)
	}
	if !sawTruncation {
		t.Fatal("stress configuration never triggered a truncation event; test is vacuous")
	}
}

func TestStarAndCompleteGraphs(t *testing.T) {
	// Extreme degree distributions.
	for name, g := range map[string]*graph.Graph{
		"star":     gen.Star(64),
		"complete": gen.Complete(32),
	} {
		dec, err := Run(g, Options{K: 3, C: 8, Seed: 2, ForceComplete: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkPartition(t, g, dec)
		if dec.TruncationEvents == 0 {
			if diam, _ := dec.StrongDiameter(g); diam > 4 {
				t.Fatalf("%s: diameter %d > 2k-2", name, diam)
			}
		}
	}
}

func TestTheorem2DistributedParity(t *testing.T) {
	// The staged-β schedule must flow identically through the node
	// program (each node derives the same schedule locally).
	g := gen.GnpConnected(randx.New(61), 150, 0.02)
	o := Options{Variant: Theorem2, K: 3, C: 8, Seed: 9}
	want, err := Run(g, o)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunDistributed(context.Background(), g, o, dist.Options{Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Clusters, got.Clusters) || want.Metrics.Messages != got.Metrics.Messages {
		t.Fatal("theorem2 distributed execution diverged from centralized")
	}
}

func TestTheorem3DistributedParity(t *testing.T) {
	g := gen.Grid(10, 10)
	o := Options{Variant: Theorem3, Lambda: 3, C: 8, Seed: 4}
	want, err := Run(g, o)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunDistributed(context.Background(), g, o, dist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Clusters, got.Clusters) {
		t.Fatal("theorem3 distributed execution diverged from centralized")
	}
}

func TestForceCompleteDistributedParity(t *testing.T) {
	g := gen.GnpConnected(randx.New(62), 120, 0.025)
	o := Options{K: 3, C: 8, Seed: 6, PhaseBudget: 3, ForceComplete: true}
	want, err := Run(g, o)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunDistributed(context.Background(), g, o, dist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !want.Complete || !got.Complete {
		t.Fatal("ForceComplete runs incomplete")
	}
	if !reflect.DeepEqual(want.Clusters, got.Clusters) {
		t.Fatal("ForceComplete distributed execution diverged")
	}
}

// TestQuickRandomOptionsAlwaysValid drives Run with arbitrary (valid)
// parameter combinations and checks the structural invariants on every
// output — the property-based safety net over the whole options space.
func TestQuickRandomOptionsAlwaysValid(t *testing.T) {
	g := gen.GnpConnected(randx.New(63), 120, 0.025)
	f := func(seed uint64, kRaw, cRaw, variantRaw, modeRaw uint8) bool {
		k := int(kRaw%6) + 1
		c := 6 + float64(cRaw%40)
		variant := Variant(int(variantRaw%3) + 1)
		o := Options{
			Variant: variant,
			K:       k,
			Lambda:  int(kRaw%3) + 1,
			C:       c,
			Seed:    seed,
		}
		if modeRaw%2 == 0 {
			o.RadiusMode = RadiusExact
		}
		dec, err := Run(g, o)
		if err != nil {
			return false
		}
		// Structural invariants (mirrors checkPartition without t).
		seen := make([]bool, g.N())
		for _, cl := range dec.Clusters {
			if len(cl.Members) == 0 {
				return false
			}
			for _, v := range cl.Members {
				if seen[v] {
					return false
				}
				seen[v] = true
			}
		}
		for _, e := range g.Edges() {
			cu, cv := dec.ClusterOf[e[0]], dec.ClusterOf[e[1]]
			if cu >= 0 && cv >= 0 && cu != cv &&
				dec.Clusters[cu].Color == dec.Clusters[cv].Color {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPhaseBudgetTruncatesAndExtends(t *testing.T) {
	n := 100
	// Truncate below the theorem budget.
	_, s, err := resolve(n, Options{K: 3, C: 8, PhaseBudget: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.budget != 2 || len(s.betas) != 2 {
		t.Fatalf("budget truncation failed: %+v", s)
	}
	// Extend beyond it (padded with the final beta).
	_, s2, err := resolve(n, Options{K: 3, C: 8, PhaseBudget: 500})
	if err != nil {
		t.Fatal(err)
	}
	if s2.budget != 500 || s2.betas[499] != s2.betas[0] {
		t.Fatalf("budget extension failed: budget=%d", s2.budget)
	}
}

func TestRoundsAccountingTheorem1(t *testing.T) {
	// Rounds must be exactly k per executed phase in RadiusCap mode.
	g := gen.GnpConnected(randx.New(64), 150, 0.02)
	dec, err := Run(g, Options{K: 5, C: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Metrics.Rounds != 5*dec.PhasesUsed {
		t.Fatalf("rounds %d != k*phases %d", dec.Metrics.Rounds, 5*dec.PhasesUsed)
	}
}

func TestExactModeRoundsDataDependent(t *testing.T) {
	// In RadiusExact mode per-phase rounds equal max ⌊r⌋, so the total is
	// not k*phases in general but must remain positive for non-trivial
	// graphs.
	g := gen.GnpConnected(randx.New(65), 100, 0.03)
	dec, err := Run(g, Options{K: 5, C: 8, Seed: 3, RadiusMode: RadiusExact, ForceComplete: true})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Complete {
		t.Fatal("incomplete")
	}
	if dec.Metrics.Rounds < 0 {
		t.Fatal("negative rounds")
	}
}

func TestHeadlineShapeAcrossN(t *testing.T) {
	// Miniature T4: diameters and colors at k=⌈ln n⌉ stay within small
	// multiples of ln n across doubling n.
	for _, n := range []int{128, 256, 512} {
		g := gen.GnpConnected(randx.New(uint64(n)), n, 8/float64(n))
		k := int(math.Ceil(math.Log(float64(n))))
		dec, err := Run(g, Options{K: k, C: 8, Seed: 1, ForceComplete: true})
		if err != nil {
			t.Fatal(err)
		}
		diam, disconnected := dec.StrongDiameter(g)
		if disconnected != 0 {
			t.Fatal("disconnected cluster")
		}
		lnN := math.Log(float64(n))
		if float64(diam) > 4*lnN {
			t.Fatalf("n=%d: diameter %d >> ln n", n, diam)
		}
		if float64(dec.Colors) > 8*lnN {
			t.Fatalf("n=%d: colors %d >> ln n", n, dec.Colors)
		}
	}
}
