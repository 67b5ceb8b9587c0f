package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"netdecomp/internal/dist"
	"netdecomp/internal/gen"
	"netdecomp/internal/graph"
	"netdecomp/internal/randx"
)

// checkPartition verifies the structural invariants every decomposition
// must satisfy regardless of randomness: clusters are disjoint, members
// match ClusterOf, colors are consistent, and the supergraph coloring is
// proper.
func checkPartition(t *testing.T, g *graph.Graph, dec *Decomposition) {
	t.Helper()
	seen := make([]bool, g.N())
	for ci, c := range dec.Clusters {
		if len(c.Members) == 0 {
			t.Fatalf("cluster %d is empty", ci)
		}
		for _, v := range c.Members {
			if seen[v] {
				t.Fatalf("vertex %d in two clusters", v)
			}
			seen[v] = true
			if dec.ClusterOf[v] != ci {
				t.Fatalf("ClusterOf[%d] = %d, want %d", v, dec.ClusterOf[v], ci)
			}
		}
	}
	for v := 0; v < g.N(); v++ {
		if dec.Complete && !seen[v] {
			t.Fatalf("complete decomposition missing vertex %d", v)
		}
		if !seen[v] && dec.ClusterOf[v] != -1 {
			t.Fatalf("unclustered vertex %d has ClusterOf %d", v, dec.ClusterOf[v])
		}
	}
	// Proper supergraph coloring: adjacent vertices in different clusters
	// must have different colors.
	for _, e := range g.Edges() {
		cu, cv := dec.ClusterOf[e[0]], dec.ClusterOf[e[1]]
		if cu < 0 || cv < 0 || cu == cv {
			continue
		}
		if dec.Clusters[cu].Color == dec.Clusters[cv].Color {
			t.Fatalf("edge %v joins two clusters of color %d", e, dec.Clusters[cu].Color)
		}
	}
	// Clusters must be connected in their induced subgraph (they are
	// components of blocks by construction).
	for ci, c := range dec.Clusters {
		if _, ok := g.SubsetStrongDiameter(c.Members); !ok {
			t.Fatalf("cluster %d is disconnected in its induced subgraph", ci)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	g := gen.GnpConnected(randx.New(1), 300, 0.01)
	o := Options{K: 4, C: 8, Seed: 99}
	a, err := Run(g, o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(g, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Clusters, b.Clusters) || a.Metrics.Rounds != b.Metrics.Rounds || a.Metrics.Messages != b.Metrics.Messages {
		t.Fatal("same options produced different decompositions")
	}
}

func TestRunPartitionInvariants(t *testing.T) {
	families := map[string]*graph.Graph{
		"gnp":   gen.GnpConnected(randx.New(2), 400, 0.008),
		"grid":  gen.Grid(20, 20),
		"tree":  gen.RandomTree(randx.New(3), 400),
		"cycle": gen.Cycle(128),
		"roc":   gen.RingOfCliques(16, 8),
	}
	for name, g := range families {
		for seed := uint64(0); seed < 3; seed++ {
			dec, err := Run(g, Options{K: 5, C: 8, Seed: seed})
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			checkPartition(t, g, dec)
		}
	}
}

func TestStrongDiameterBoundWithoutTruncation(t *testing.T) {
	// Lemma 4: on runs without truncation events, every cluster has strong
	// diameter at most 2k-2 and a uniform center.
	ran, checked := 0, 0
	for seed := uint64(0); seed < 12; seed++ {
		g := gen.GnpConnected(randx.New(seed), 256, 0.01)
		dec, err := Run(g, Options{K: 5, C: 32, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		ran++
		if dec.TruncationEvents > 0 {
			continue
		}
		checked++
		if dec.CenterViolations != 0 {
			t.Fatalf("seed %d: %d center violations without truncation", seed, dec.CenterViolations)
		}
		diam, disconnected := dec.StrongDiameter(g)
		if disconnected != 0 {
			t.Fatalf("seed %d: disconnected cluster", seed)
		}
		if diam > 2*dec.K-2 {
			t.Fatalf("seed %d: strong diameter %d exceeds 2k-2 = %d", seed, diam, 2*dec.K-2)
		}
	}
	if checked == 0 {
		t.Fatalf("all %d runs had truncation events; expected almost none at c=32", ran)
	}
}

func TestRadiusExactAlwaysCenterUniform(t *testing.T) {
	// In RadiusExact mode Claim 3 holds unconditionally: members of every
	// cluster share one center, and shortest paths to it stay inside.
	for seed := uint64(0); seed < 6; seed++ {
		g := gen.GnpConnected(randx.New(seed+50), 200, 0.015)
		dec, err := Run(g, Options{K: 4, C: 4, Seed: seed, RadiusMode: RadiusExact, ForceComplete: true})
		if err != nil {
			t.Fatal(err)
		}
		if !dec.Complete {
			t.Fatalf("seed %d: ForceComplete run incomplete", seed)
		}
		if dec.CenterViolations != 0 {
			t.Fatalf("seed %d: %d center violations in exact mode", seed, dec.CenterViolations)
		}
		checkPartition(t, g, dec)
	}
}

func TestClaim3PathContainment(t *testing.T) {
	// Claim 3: if y chose v at phase t, every vertex on a shortest path
	// from v to y in G_t also chose v. Equivalently: within the surviving
	// graph of the phase, d_cluster(v, y) == d_{G_t}(v, y).
	g := gen.GnpConnected(randx.New(77), 150, 0.02)
	dec, err := Run(g, Options{K: 4, C: 16, Seed: 5, RadiusMode: RadiusExact, ForceComplete: true, CaptureTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Trace == nil {
		t.Fatal("trace not captured")
	}
	for _, c := range dec.Clusters {
		if c.Phase >= len(dec.Trace.Alive) {
			t.Fatalf("phase %d missing from trace", c.Phase)
		}
		alive := dec.Trace.Alive[c.Phase]
		inCluster := make(map[int]bool, len(c.Members))
		for _, v := range c.Members {
			inCluster[v] = true
		}
		distGt := g.BFSRestricted(c.Center, alive, -1)
		// Distance from center within the cluster's induced subgraph.
		clusterAlive := make([]bool, g.N())
		for _, v := range c.Members {
			clusterAlive[v] = true
		}
		distCluster := g.BFSRestricted(c.Center, clusterAlive, -1)
		for _, y := range c.Members {
			if distGt[y] != distCluster[y] {
				t.Fatalf("phase %d center %d: vertex %d has d_Gt=%d but d_cluster=%d (shortest path leaves cluster)",
					c.Phase, c.Center, y, distGt[y], distCluster[y])
			}
		}
	}
}

func TestTopTwoForwardingMatchesExactBFS(t *testing.T) {
	// The paper's CONGEST claim: forwarding only the top two values per
	// round computes the same join decisions as the exact per-center
	// broadcast. Validate the phase engine against the independent BFS
	// implementation across graphs, betas and truncation caps.
	graphs := []*graph.Graph{
		gen.GnpConnected(randx.New(4), 200, 0.015),
		gen.Grid(14, 14),
		gen.RandomTree(randx.New(5), 150),
		gen.RingOfCliques(10, 6),
		gen.Path(64),
	}
	for gi, g := range graphs {
		runner := newPhaseRunner(g)
		alive := make([]bool, g.N())
		rng := randx.New(uint64(gi) + 123)
		for v := range alive {
			alive[v] = rng.Float64() < 0.8 // exercise restricted graphs too
		}
		for _, beta := range []float64{0.4, 0.9, 1.7} {
			for _, k := range []int{2, 4, 7} {
				drawRadii(uint64(gi*31+k), 0, alive, beta, runner.radius)
				res := runner.run(alive, k, nil)
				wantJoined, wantCenters := exactPhaseJoin(g, alive, runner.radius, k)
				if !reflect.DeepEqual(res.joined, wantJoined) {
					t.Fatalf("graph %d beta %v k %d: joined sets differ (%d vs %d)", gi, beta, k, len(res.joined), len(wantJoined))
				}
				for _, v := range res.joined {
					if res.centers[v] != wantCenters[v] {
						t.Fatalf("graph %d beta %v k %d: center of %d differs: %d vs %d", gi, beta, k, v, res.centers[v], wantCenters[v])
					}
				}
			}
		}
	}
}

func TestDistributedMatchesCentralized(t *testing.T) {
	graphs := []*graph.Graph{
		gen.GnpConnected(randx.New(6), 200, 0.015),
		gen.Grid(12, 12),
		gen.RingOfCliques(8, 6),
	}
	for gi, g := range graphs {
		for seed := uint64(0); seed < 3; seed++ {
			o := Options{K: 4, C: 8, Seed: seed}
			want, err := Run(g, o)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunDistributed(context.Background(), g, o, dist.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want.Clusters, got.Clusters) {
				t.Fatalf("graph %d seed %d: clusters differ", gi, seed)
			}
			if want.Complete != got.Complete || want.Colors != got.Colors {
				t.Fatalf("graph %d seed %d: summary differs: %v vs %v", gi, seed, want, got)
			}
			if want.Metrics.Messages != got.Metrics.Messages || want.Metrics.Words != got.Metrics.Words {
				t.Fatalf("graph %d seed %d: message counts differ: %d/%d vs %d/%d",
					gi, seed, want.Metrics.Messages, want.Metrics.Words, got.Metrics.Messages, got.Metrics.Words)
			}
			if !reflect.DeepEqual(want.AlivePerPhase, got.AlivePerPhase) {
				t.Fatalf("graph %d seed %d: alive-per-phase differs: %v vs %v", gi, seed, want.AlivePerPhase, got.AlivePerPhase)
			}
		}
	}
}

func TestDistributedParallelSchedulerEquivalent(t *testing.T) {
	g := gen.GnpConnected(randx.New(8), 300, 0.01)
	o := Options{K: 4, C: 8, Seed: 17}
	seq, err := RunDistributed(context.Background(), g, o, dist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunDistributed(context.Background(), g, o, dist.Options{Parallel: true, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Clusters, par.Clusters) || seq.Metrics.Messages != par.Metrics.Messages || seq.Metrics.Rounds != par.Metrics.Rounds {
		t.Fatal("parallel scheduler changed the execution")
	}
}

func TestCongestMessageSize(t *testing.T) {
	g := gen.GnpConnected(randx.New(9), 200, 0.02)
	dec, err := RunDistributed(context.Background(), g, Options{K: 4, C: 8, Seed: 1}, dist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Top-two entries of two words each: at most 4 words per message.
	if dec.Metrics.MaxMessageWords > 4 {
		t.Fatalf("max message size %d words; CONGEST bound is 4", dec.Metrics.MaxMessageWords)
	}
}

func TestTheorem2ScheduleShape(t *testing.T) {
	n := 1000
	o, s, err := resolve(n, Options{Variant: Theorem2, K: 3, C: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Total budget must respect the paper's 4k(cn)^{1/k} bound (up to the
	// ceil in each stage, which adds at most one phase per stage).
	cn := o.C * float64(n)
	bound := 4*float64(o.K)*math.Pow(cn, 1/float64(o.K)) + math.Log(float64(n)) + 2
	if float64(s.budget) > bound {
		t.Fatalf("theorem2 budget %d exceeds %v", s.budget, bound)
	}
	// Rates must be non-increasing across stages.
	for i := 1; i < len(s.betas); i++ {
		if s.betas[i] > s.betas[i-1]+1e-12 {
			t.Fatalf("beta increased at phase %d: %v -> %v", i, s.betas[i-1], s.betas[i])
		}
	}
}

func TestTheorem2Runs(t *testing.T) {
	g := gen.GnpConnected(randx.New(10), 300, 0.01)
	dec, err := Run(g, Options{Variant: Theorem2, K: 4, C: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, g, dec)
	if dec.Complete {
		bound, err := TheoremColorBound(g.N(), dec.Opts)
		if err != nil {
			t.Fatal(err)
		}
		if float64(dec.Colors) > bound {
			t.Fatalf("theorem2 colors %d exceed bound %v", dec.Colors, bound)
		}
	}
}

func TestTheorem3FewColors(t *testing.T) {
	g := gen.GnpConnected(randx.New(11), 200, 0.02)
	for _, lambda := range []int{2, 3} {
		dec, err := Run(g, Options{Variant: Theorem3, Lambda: lambda, C: 8, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		checkPartition(t, g, dec)
		if dec.Colors > lambda {
			t.Fatalf("lambda=%d: used %d colors", lambda, dec.Colors)
		}
		if dec.PhaseBudget != lambda {
			t.Fatalf("lambda=%d: budget %d", lambda, dec.PhaseBudget)
		}
	}
}

func TestForceComplete(t *testing.T) {
	g := gen.GnpConnected(randx.New(12), 300, 0.01)
	// A tiny budget would normally leave survivors; ForceComplete must
	// extend until exhaustion.
	dec, err := Run(g, Options{K: 3, C: 8, Seed: 2, PhaseBudget: 2, ForceComplete: true})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Complete {
		t.Fatal("ForceComplete left unclustered vertices")
	}
	if len(dec.Unassigned()) != 0 {
		t.Fatal("Unassigned non-empty on complete run")
	}
	checkPartition(t, g, dec)
}

func TestTinyGraphs(t *testing.T) {
	empty := graph.NewBuilder(0).Build()
	dec, err := Run(empty, Options{K: 2, C: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Complete || len(dec.Clusters) != 0 {
		t.Fatalf("empty graph decomposition wrong: %v", dec)
	}

	single := graph.NewBuilder(1).Build()
	dec, err = Run(single, Options{K: 2, C: 8, ForceComplete: true})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Complete || len(dec.Clusters) != 1 || dec.Clusters[0].Members[0] != 0 {
		t.Fatalf("single vertex decomposition wrong: %v", dec)
	}

	pair := graph.FromEdges(2, [][2]int{{0, 1}})
	dec, err = Run(pair, Options{K: 2, C: 8, ForceComplete: true})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Complete {
		t.Fatal("pair graph incomplete")
	}
	checkPartition(t, pair, dec)
}

func TestK1Degenerate(t *testing.T) {
	// k=1 means radius-0 clusters: every cluster must be a singleton
	// (strong diameter 2k-2 = 0).
	g := gen.Cycle(32)
	dec, err := Run(g, Options{K: 1, C: 8, Seed: 4, ForceComplete: true})
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, g, dec)
	if dec.TruncationEvents > 0 {
		// With truncation the radius can exceed 0; skip the shape check.
		return
	}
	for _, c := range dec.Clusters {
		if len(c.Members) != 1 {
			t.Fatalf("k=1 produced cluster of size %d", len(c.Members))
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	g := gen.Path(4)
	cases := []Options{
		{K: 2, C: 2},                          // C too small for Theorem1
		{Variant: Theorem2, K: 2, C: 4},       // C too small for Theorem2
		{Variant: Theorem3, C: 8},             // missing Lambda
		{Variant: Variant(42), K: 2, C: 8},    // unknown variant
		{K: -3, C: 8},                         // negative K
		{Variant: Theorem3, Lambda: -1, C: 8}, // negative Lambda
	}
	for i, o := range cases {
		if _, err := Run(g, o); err == nil {
			t.Fatalf("case %d: invalid options accepted: %+v", i, o)
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	g := gen.GnpConnected(randx.New(13), 100, 0.03)
	dec, err := Run(g, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Opts.Variant != Theorem1 || dec.Opts.C != 8 || dec.Opts.RadiusMode != RadiusCap {
		t.Fatalf("defaults not applied: %+v", dec.Opts)
	}
	wantK := int(math.Ceil(math.Log(float64(g.N()))))
	if dec.K != wantK {
		t.Fatalf("default K = %d, want ceil(ln n) = %d", dec.K, wantK)
	}
}

func TestRunDistributedRejectsUnsupportedModes(t *testing.T) {
	g := gen.Path(8)
	if _, err := RunDistributed(context.Background(), g, Options{K: 2, C: 8, RadiusMode: RadiusExact}, dist.Options{}); err == nil {
		t.Fatal("RadiusExact accepted by RunDistributed")
	}
	if _, err := RunDistributed(context.Background(), g, Options{K: 2, C: 8, CaptureTrace: true}, dist.Options{}); err == nil {
		t.Fatal("CaptureTrace accepted by RunDistributed")
	}
}

func TestJoinProbabilityLowerBound(t *testing.T) {
	// Claim 6 (via Lemma 5): in any phase, each alive vertex joins with
	// probability at least e^{-beta} = (cn)^{-1/k}. Measure the first
	// phase's join fraction across seeds; it must not fall far below the
	// bound.
	g := gen.GnpConnected(randx.New(14), 400, 0.01)
	k := 4
	c := 8.0
	cn := c * float64(g.N())
	pLow := math.Pow(cn, -1/float64(k))
	beta := math.Log(cn) / float64(k)

	runner := newPhaseRunner(g)
	alive := make([]bool, g.N())
	for v := range alive {
		alive[v] = true
	}
	joins := 0
	trials := 0
	for seed := uint64(0); seed < 30; seed++ {
		drawRadii(seed, 0, alive, beta, runner.radius)
		res := runner.run(alive, k, nil)
		joins += len(res.joined)
		trials += g.N()
	}
	got := float64(joins) / float64(trials)
	// Allow 20% slack below the theoretical lower bound for sampling noise
	// (30*400 = 12000 Bernoulli trials, but correlated within a phase).
	if got < 0.8*pLow {
		t.Fatalf("empirical join probability %v below 0.8 * bound %v", got, pLow)
	}
}

func TestLemma1TruncationRate(t *testing.T) {
	// Lemma 1: Pr[any E_v] <= 2/c. Count runs with at least one
	// truncation event across seeds at c=8; the frequency must respect
	// the bound with generous sampling slack.
	g := gen.GnpConnected(randx.New(15), 200, 0.015)
	bad := 0
	const runs = 40
	for seed := uint64(0); seed < runs; seed++ {
		dec, err := Run(g, Options{K: 4, C: 8, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if dec.TruncationEvents > 0 {
			bad++
		}
	}
	// Bound is 2/c = 0.25 → expect <= 10 of 40; allow up to 18 (>5 sigma).
	if bad > 18 {
		t.Fatalf("truncation events in %d/%d runs; Lemma 1 bound is 2/c = 0.25", bad, runs)
	}
}

func TestCompletionProbability(t *testing.T) {
	// Corollary 7: the graph is exhausted within the phase budget with
	// probability >= 1 - 1/c. At c=8 failures should be rare.
	g := gen.GnpConnected(randx.New(16), 150, 0.02)
	fail := 0
	const runs = 30
	for seed := uint64(0); seed < runs; seed++ {
		dec, err := Run(g, Options{K: 4, C: 8, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if !dec.Complete {
			fail++
		}
	}
	if fail > 10 {
		t.Fatalf("%d/%d runs incomplete; bound is 1/c = 0.125", fail, runs)
	}
}

func TestTraceShape(t *testing.T) {
	g := gen.GnpConnected(randx.New(17), 100, 0.03)
	dec, err := Run(g, Options{K: 3, C: 8, Seed: 5, CaptureTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Trace == nil {
		t.Fatal("trace missing")
	}
	if len(dec.Trace.Alive) != dec.PhasesUsed || len(dec.Trace.Beta) != dec.PhasesUsed {
		t.Fatalf("trace length %d != phases %d", len(dec.Trace.Alive), dec.PhasesUsed)
	}
	// AlivePerPhase must match the trace's alive counts.
	for p, aliveVec := range dec.Trace.Alive {
		count := 0
		for _, a := range aliveVec {
			if a {
				count++
			}
		}
		if count != dec.AlivePerPhase[p] {
			t.Fatalf("phase %d: trace alive %d != AlivePerPhase %d", p, count, dec.AlivePerPhase[p])
		}
	}
}

func TestAlivePerPhaseMonotone(t *testing.T) {
	g := gen.GnpConnected(randx.New(18), 200, 0.015)
	dec, err := Run(g, Options{K: 4, C: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(dec.AlivePerPhase); i++ {
		if dec.AlivePerPhase[i] > dec.AlivePerPhase[i-1] {
			t.Fatalf("alive count increased at phase %d: %v", i, dec.AlivePerPhase)
		}
	}
	if dec.Complete && dec.AlivePerPhase[len(dec.AlivePerPhase)-1] != 0 {
		t.Fatal("complete run must end with 0 alive")
	}
}

func TestBoundHelpers(t *testing.T) {
	n := 512
	o := Options{K: 4, C: 8}
	d, err := TheoremDiameterBound(n, o)
	if err != nil {
		t.Fatal(err)
	}
	if d != 6 {
		t.Fatalf("diameter bound = %d, want 6", d)
	}
	cb, err := TheoremColorBound(n, o)
	if err != nil {
		t.Fatal(err)
	}
	cn := 8.0 * float64(n)
	want := math.Pow(cn, 0.25) * math.Log(cn)
	if math.Abs(cb-want) > 1e-9 {
		t.Fatalf("color bound = %v, want %v", cb, want)
	}
	rb, err := TheoremRoundBound(n, o)
	if err != nil {
		t.Fatal(err)
	}
	if rb <= 0 {
		t.Fatalf("round bound = %v", rb)
	}
}

func TestVariantAndModeStrings(t *testing.T) {
	if Theorem1.String() != "theorem1" || Theorem3.String() != "theorem3" {
		t.Fatal("variant names wrong")
	}
	if RadiusCap.String() != "cap" || RadiusExact.String() != "exact" {
		t.Fatal("mode names wrong")
	}
	v, err := ParseVariant("t2")
	if err != nil || v != Theorem2 {
		t.Fatal("ParseVariant t2 failed")
	}
	if _, err := ParseVariant("bogus"); err == nil {
		t.Fatal("bogus variant accepted")
	}
}

func BenchmarkRunHeadline(b *testing.B) {
	g := gen.GnpConnected(randx.New(1), 2048, 0.004)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(g, Options{C: 8, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
