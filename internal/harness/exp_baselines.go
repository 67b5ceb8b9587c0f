package harness

import (
	"context"
	"fmt"
	"math"

	"netdecomp/internal/core"
	"netdecomp/internal/decomp"
	"netdecomp/internal/gen"
	"netdecomp/internal/pipeline"
	"netdecomp/internal/stats"
	"netdecomp/internal/verify"
)

// T5VersusLinialSaks reproduces the paper's central comparison: both
// algorithms deliver (O(log n), O(log n)) decompositions in polylog
// rounds, but Linial–Saks only bounds the *weak* diameter — its clusters
// can be disconnected in their induced subgraphs — while Elkin–Neiman
// bounds the strong diameter. Both contenders are pulled from the unified
// registry and measured through the one Partition type, which does not
// carry truncation events; T13 checks Lemma 1's conditioned bound.
func T5VersusLinialSaks(cfg Config) (*Table, error) {
	cfg = cfg.normalize()
	ctx := context.Background()
	n := pick(cfg, 384, 2048)
	trials := cfg.trials(3, 10)
	families := []gen.Family{gen.FamilyGnp, gen.FamilyGrid, gen.FamilyRingOfCliques}
	t := &Table{
		ID:    "T5",
		Title: fmt.Sprintf("Elkin–Neiman vs Linial–Saks (n≈%d, k=⌈ln n⌉, %d trials)", n, trials),
		Claim: "EN clusters are connected with strong diameter O(log n) (≤ 2k−2 in runs without truncation events, checked in T13); " +
			"LS93 matches on weak diameter but its strong diameter is unbounded (disconnected clusters)",
		Columns: []string{"family", "EN sdiam", "EN colors", "EN rounds", "LS wdiam", "LS sdiam",
			"LS disc%", "LS colors", "LS rounds", "diamBound"},
	}
	for _, fam := range families {
		g, err := gen.Build(fam, n, cfg.Seed+uint64(fam)*5)
		if err != nil {
			return nil, err
		}
		k := int(math.Ceil(math.Log(float64(g.N()))))
		dBound, err := core.TheoremDiameterBound(g.N(), core.Options{K: k, C: 8})
		if err != nil {
			return nil, err
		}
		// One compile per contender; the seed sweep derives per-trial plans
		// and every execution goes through the shared serving session.
		opts := []decomp.Option{decomp.WithK(k), decomp.WithC(8), decomp.WithForceComplete()}
		en, err := decomp.Compile("elkin-neiman", opts...)
		if err != nil {
			return nil, err
		}
		ls, err := decomp.Compile("linial-saks", opts...)
		if err != nil {
			return nil, err
		}
		// Both contenders across all trials form one pipeline of mutually
		// independent decompose stages — a single level the executor runs
		// in parallel through the shared session.
		b := pipeline.NewBuilder()
		for i := 0; i < trials; i++ {
			seed := cfg.Seed + uint64(i)*271
			b.AddStage(fmt.Sprintf("en/%d", i), pipeline.Decompose(en.WithSeed(seed)))
			b.AddStage(fmt.Sprintf("ls/%d", i), pipeline.Decompose(ls.WithSeed(seed)))
		}
		p, err := b.Build()
		if err != nil {
			return nil, err
		}
		res, err := runPipeline(ctx, p, g)
		if err != nil {
			return nil, err
		}
		var enDiam, enColors, enRounds []float64
		var lsWeak, lsStrong, lsColors, lsRounds, lsDiscFrac []float64
		for i := 0; i < trials; i++ {
			enP := res.Partition(fmt.Sprintf("en/%d", i))
			d, disc := enP.StrongDiameter(g)
			if disc != 0 {
				return nil, fmt.Errorf("harness: EN cluster disconnected")
			}
			enDiam = append(enDiam, float64(d))
			enColors = append(enColors, float64(enP.Colors))
			enRounds = append(enRounds, float64(enP.Metrics.Rounds))

			lsP := res.Partition(fmt.Sprintf("ls/%d", i))
			wd, ok := lsP.WeakDiameter(g)
			if !ok {
				return nil, fmt.Errorf("harness: LS cluster spans components")
			}
			sd, lsDisc := lsP.StrongDiameter(g)
			lsWeak = append(lsWeak, float64(wd))
			lsStrong = append(lsStrong, float64(sd))
			lsDiscFrac = append(lsDiscFrac, 100*float64(lsDisc)/float64(len(lsP.Clusters)))
			lsColors = append(lsColors, float64(lsP.Colors))
			lsRounds = append(lsRounds, float64(lsP.Metrics.Rounds))
		}
		t.AddRow(fam.String(),
			fmtF(stats.Summarize(enDiam).Max), fmtF(stats.Summarize(enColors).Mean),
			fmtF(stats.Summarize(enRounds).Mean),
			fmtF(stats.Summarize(lsWeak).Max), fmtF(stats.Summarize(lsStrong).Max),
			fmtF(stats.Summarize(lsDiscFrac).Mean),
			fmtF(stats.Summarize(lsColors).Mean), fmtF(stats.Summarize(lsRounds).Mean),
			fmtInt(dBound))
	}
	t.AddNote("LS sdiam counts only LS93 clusters that happen to be connected; LS disc%% is the share with infinite strong diameter")
	return t, nil
}

// T8MPXPartition reproduces the Miller–Peng–Xu foundation: the cut-edge
// fraction scales linearly with β and cluster strong diameters stay within
// O(log n / β).
func T8MPXPartition(cfg Config) (*Table, error) {
	cfg = cfg.normalize()
	ctx := context.Background()
	n := pick(cfg, 400, 4096)
	trials := cfg.trials(5, 20)
	families := []gen.Family{gen.FamilyGnp, gen.FamilyGrid}
	t := &Table{
		ID:    "T8",
		Title: fmt.Sprintf("MPX shifted-exponential partition (n≈%d, %d trials)", n, trials),
		Claim: "Pr[edge cut] = O(β); strong cluster diameter O(log n / β) w.h.p.; clusters always connected; balls intersect few clusters",
		Columns: []string{"family", "beta", "cut(mean)", "cut/beta", "sdiam(max)",
			"sdiam·beta/lnN", "clusters(mean)", "disconnected", "ball∩(max)"},
	}
	for _, fam := range families {
		g, err := gen.Build(fam, n, cfg.Seed+uint64(fam)*11)
		if err != nil {
			return nil, err
		}
		lnN := math.Log(float64(g.N()))
		for _, beta := range []float64{0.1, 0.2, 0.3, 0.5} {
			// One plan per β; trials vary only the seed of the compiled plan.
			mpx, err := decomp.Compile("mpx", decomp.WithBeta(beta))
			if err != nil {
				return nil, err
			}
			// All trial seeds fan out as one single-level pipeline; the
			// executor runs them in parallel through the shared session.
			b := pipeline.NewBuilder()
			for i := 0; i < trials; i++ {
				b.AddStage(fmt.Sprintf("seed/%d", i), pipeline.Decompose(mpx.WithSeed(cfg.Seed+uint64(i)*523)))
			}
			pipe, err := b.Build()
			if err != nil {
				return nil, err
			}
			res, err := runPipeline(ctx, pipe, g)
			if err != nil {
				return nil, err
			}
			var cuts, diams, counts []float64
			disconnected := 0
			ballMax := 0
			for i := 0; i < trials; i++ {
				p := res.Partition(fmt.Sprintf("seed/%d", i))
				cuts = append(cuts, p.CutFraction)
				sd, disc := p.StrongDiameter(g)
				disconnected += disc
				diams = append(diams, float64(sd))
				counts = append(counts, float64(len(p.Clusters)))
				// Low-intersecting shape ([BEG15] connection): radius-1
				// balls should touch few clusters. Measure on the first
				// trial only (it is O(n·deg) work).
				if i == 0 {
					bm, _, err := verify.BallIntersections(g, p.ClusterOf, 1)
					if err != nil {
						return nil, err
					}
					ballMax = bm
				}
			}
			cs, ds := stats.Summarize(cuts), stats.Summarize(diams)
			t.AddRow(fam.String(), fmtF(beta), fmtF(cs.Mean), fmtF(cs.Mean/beta),
				fmtF(ds.Max), fmtF(ds.Max*beta/lnN), fmtF(stats.Summarize(counts).Mean),
				fmtInt(disconnected), fmtInt(ballMax))
			t.AtMost(fmt.Sprintf("%s β=%.2f disconnected clusters", fam, beta), float64(disconnected), 0)
		}
	}
	t.AddNote("cut/beta staying near a constant across β is the linear-in-β shape")
	return t, nil
}
