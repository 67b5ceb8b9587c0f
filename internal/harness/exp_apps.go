package harness

import (
	"context"
	"fmt"
	"math"

	"netdecomp/internal/apps"
	"netdecomp/internal/core"
	"netdecomp/internal/decomp"
	"netdecomp/internal/dist"
	"netdecomp/internal/gen"
	"netdecomp/internal/obs"
	"netdecomp/internal/pipeline"
	"netdecomp/internal/stats"
	"netdecomp/internal/verify"
)

// t9Algorithms are the registry names the application framework is
// exercised on: the decomposition the paper builds, the weak-diameter
// baseline it competes with, and the MPX partition (recolored greedily by
// apps.FromPartition, since a single-color partition carries no proper
// supergraph coloring).
var t9Algorithms = []string{"elkin-neiman", "linial-saks", "mpx"}

// T9Applications reproduces the Section 1.1 application framework: with a
// (D, χ) decomposition in hand, MIS, (Δ+1)-coloring and maximal matching
// each complete within O(D·χ) rounds by sweeping color classes, and the
// results are verified maximal/proper. The driver loops over registry
// names — every registered algorithm's Partition feeds the same
// applications. Luby's MIS and randomized coloring are the
// non-decomposition baselines.
func T9Applications(cfg Config) (*Table, error) {
	cfg = cfg.normalize()
	ctx := context.Background()
	n := pick(cfg, 384, 2048)
	trials := cfg.trials(3, 10)
	families := []gen.Family{gen.FamilyGnp, gen.FamilyGrid}
	t := &Table{
		ID:    "T9",
		Title: fmt.Sprintf("applications via any registered decomposition (n≈%d, k=⌈ln n⌉, %d trials)", n, trials),
		Claim: "MIS / (Δ+1)-coloring / maximal matching solvable in O(D·χ) rounds given a (D,χ) decomposition — from any algorithm",
		Columns: []string{"family", "algo", "D", "chi", "D*chi", "MIS rounds", "color rounds",
			"match rounds", "Luby rounds", "randcol rounds"},
	}
	for _, fam := range families {
		g, err := gen.Build(fam, n, cfg.Seed+uint64(fam)*17)
		if err != nil {
			return nil, err
		}
		k := int(math.Ceil(math.Log(float64(g.N()))))
		for _, algo := range t9Algorithms {
			// Compile once per algorithm; the trial loop derives per-seed
			// plans and runs them through the shared serving session.
			pl, err := decomp.Compile(algo,
				decomp.WithK(k), decomp.WithC(8), decomp.WithForceComplete())
			if err != nil {
				return nil, err
			}
			// The whole application chain — decompose → recolor →
			// {MIS, coloring, matching} — is one typed pipeline per trial,
			// and all trials fan out into a single DAG the executor runs
			// level-parallel through the shared session.
			b := pipeline.NewBuilder()
			sid := func(kind string, i int) string { return fmt.Sprintf("%s/%d", kind, i) }
			for i := 0; i < trials; i++ {
				seed := cfg.Seed + uint64(i)*431
				b.AddStage(sid("dec", i), pipeline.Decompose(pl.WithSeed(seed))).
					AddStage(sid("re", i), pipeline.Recolor()).
					AddStage(sid("mis", i), pipeline.MIS()).
					AddStage(sid("col", i), pipeline.Coloring()).
					AddStage(sid("mat", i), pipeline.Matching()).
					AddEdge(sid("dec", i), sid("re", i)).
					AddEdge(sid("re", i), sid("mis", i)).
					AddEdge(sid("re", i), sid("col", i)).
					AddEdge(sid("re", i), sid("mat", i))
			}
			pipe, err := b.Build()
			if err != nil {
				return nil, err
			}
			res, err := runPipeline(ctx, pipe, g)
			if err != nil {
				return nil, err
			}
			var dMax, chiMean, dchi, misR, colR, matR, lubyR, randR []float64
			invalid := 0
			for i := 0; i < trials; i++ {
				seed := cfg.Seed + uint64(i)*431
				p := res.Partition(sid("dec", i))
				in := *res.Stage(sid("re", i)).AppInput
				// The sweep cost is governed by the diameter notion the
				// algorithm bounds: strong where clusters are connected,
				// weak otherwise.
				diam, disc := p.StrongDiameter(g)
				if p.Mode == decomp.WeakDiameter && disc > 0 {
					if diam, _ = p.WeakDiameter(g); diam == 0 {
						diam = 1
					}
				} else if disc > 0 {
					return nil, fmt.Errorf("harness: %s produced disconnected cluster", algo)
				}
				chi := 0
				for _, c := range in.Colors {
					if c+1 > chi {
						chi = c + 1
					}
				}
				mis := res.Stage(sid("mis", i)).MIS
				col := res.Stage(sid("col", i)).Coloring
				mat := res.Stage(sid("mat", i)).Matching
				luby, err := apps.LubyMIS(g, seed)
				if err != nil {
					return nil, err
				}
				randCol, err := apps.RandomColoring(g, seed)
				if err != nil {
					return nil, err
				}
				if verify.MIS(g, mis.InSet) != nil ||
					verify.Coloring(g, col.Colors, g.MaxDegree()+1) != nil ||
					verify.Matching(g, mat.Mate) != nil ||
					verify.MIS(g, luby.InSet) != nil ||
					verify.Coloring(g, randCol.Colors, g.MaxDegree()+1) != nil {
					invalid++
				}
				dMax = append(dMax, float64(diam))
				chiMean = append(chiMean, float64(chi))
				dchi = append(dchi, float64(diam*chi))
				misR = append(misR, float64(mis.Rounds))
				colR = append(colR, float64(col.Rounds))
				matR = append(matR, float64(mat.Rounds))
				lubyR = append(lubyR, float64(luby.Rounds))
				randR = append(randR, float64(randCol.Rounds))
			}
			t.AddRow(fam.String(), algo, fmtF(stats.Summarize(dMax).Max), fmtF(stats.Summarize(chiMean).Mean),
				fmtF(stats.Summarize(dchi).Mean), fmtF(stats.Summarize(misR).Mean),
				fmtF(stats.Summarize(colR).Mean), fmtF(stats.Summarize(matR).Mean),
				fmtF(stats.Summarize(lubyR).Mean), fmtF(stats.Summarize(randR).Mean))
			t.AtMost(fmt.Sprintf("%s %s trials with an invalid output", fam, algo), float64(invalid), 0)
		}
	}
	t.AddNote("application rounds track D·χ (the framework's promise); Luby and random-palette coloring are the direct O(log n) baselines")
	return t, nil
}

// T10CongestAccounting reproduces the CONGEST claim at the end of Section
// 2: every message of the distributed execution carries O(1) words (at
// most two (center, value) entries), measured on the real message-passing
// engine with the goroutine-parallel scheduler. It also profiles the
// per-round activity the hot-path rebuild exploits: the mean fraction of
// nodes still live per round and the fraction of rounds that carry no
// messages at all — the sparsity that makes an O(frontier + messages)
// round loop pay off over an O(n) scan.
//
// The round profile is sourced from the telemetry registry: every run
// reports through a dist.Options.Recorder into the engine.round.*
// histograms, and the table's quantiles, means and quiet-round counts are
// read back out of the same instruments the /metrics endpoint would
// export — no hand-rolled observer aggregation.
func T10CongestAccounting(cfg Config) (*Table, error) {
	cfg = cfg.normalize()
	trials := cfg.trials(3, 10)
	ns := []int{256, pick(cfg, 512, 2048)}
	t := &Table{
		ID:    "T10",
		Title: fmt.Sprintf("CONGEST accounting and round profile on the message-passing engine (%d trials)", trials),
		Claim: "each message consists of O(1) words (≤ 2 entries of 2 words); totals grow with k·m per phase; most rounds move a tiny active frontier",
		Columns: []string{"n", "m", "k", "rounds(mean)", "messages(mean)", "words(mean)",
			"maxMsgWords", "msgs/(m·rounds)", "roundMsgs p50/p90/p99", "active/n(mean)", "quiet rounds"},
	}
	for _, n := range ns {
		g, err := gen.Build(gen.FamilyGnp, n, cfg.Seed+uint64(n))
		if err != nil {
			return nil, err
		}
		k := int(math.Ceil(math.Log(float64(g.N()))))
		// One registry per graph size; all trials accumulate into it.
		reg := obs.NewRegistry()
		rr := obs.New(reg, nil).Rounds()
		var rounds, msgs, words []float64
		maxWords := 0
		for i := 0; i < trials; i++ {
			dec, err := core.RunDistributed(context.Background(), g,
				core.Options{K: k, C: 8, Seed: cfg.Seed + uint64(i)*911},
				dist.Options{Parallel: true, Recorder: rr})
			if err != nil {
				return nil, err
			}
			rounds = append(rounds, float64(dec.Metrics.Rounds))
			msgs = append(msgs, float64(dec.Metrics.Messages))
			words = append(words, float64(dec.Metrics.Words))
			maxWords = max(maxWords, dec.Metrics.MaxMessageWords)
		}
		roundMsgs := reg.Histogram("engine.round.messages").Snapshot()
		roundActive := reg.Histogram("engine.round.active").Snapshot()
		totalRounds := reg.Counter("engine.rounds").Value()
		var quiet int64
		for _, b := range roundMsgs.Buckets {
			if b.Lo <= 0 { // bucket 0 collects the zero-message rounds
				quiet = b.Count
			}
		}
		rs, ms := stats.Summarize(rounds), stats.Summarize(msgs)
		density := ms.Mean / (float64(g.M()) * rs.Mean)
		t.AddRow(fmtInt(g.N()), fmtInt(g.M()), fmtInt(k), fmtF(rs.Mean), fmtF(ms.Mean),
			fmtF(stats.Summarize(words).Mean), fmtInt(maxWords), fmtF(density),
			fmtQuantiles(roundMsgs), fmtF(roundActive.Mean()/float64(g.N())),
			fmtF(float64(quiet)/float64(totalRounds)))
		t.AtMost(fmt.Sprintf("n=%d largest message in words", g.N()), float64(maxWords), messageWords)
	}
	t.AddNote("msgs/(m·rounds) below 2 shows the change-gated forwarding sends less than one message per directed edge per round")
	t.AddNote("active/n and the quiet-round fraction profile the frontier sparsity the arena engine and worklist simulation exploit")
	t.AddNote("round profile read from the engine.round.* telemetry histograms (log-bucketed: quantiles within 2x)")
	return t, nil
}

// messageWords is Section 2's per-message budget: at most two (center,
// value) entries of two words each.
const messageWords = 4

// fmtQuantiles renders a histogram's p50/p90/p99 triple for a table cell.
func fmtQuantiles(s obs.HistogramSnapshot) string {
	return fmt.Sprintf("%s/%s/%s",
		fmtF(s.Quantile(0.5)), fmtF(s.Quantile(0.9)), fmtF(s.Quantile(0.99)))
}
