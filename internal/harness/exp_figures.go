package harness

import (
	"fmt"
	"math"

	"netdecomp/internal/baseline"
	"netdecomp/internal/core"
	"netdecomp/internal/gen"
	"netdecomp/internal/stats"
)

// F2TradeoffFrontier draws the diameter/colors tradeoff the two regimes
// span: Theorem 1 points (k sweep: tiny diameter, many colors) and
// Theorem 3 points (λ sweep: few colors, large diameter) on one graph.
func F2TradeoffFrontier(cfg Config) (*Table, error) {
	cfg = cfg.normalize()
	n := pick(cfg, 384, 2048)
	trials := cfg.trials(3, 10)
	g, err := gen.Build(gen.FamilyGnp, n, cfg.Seed+6)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "F2",
		Title:   fmt.Sprintf("diameter/colors frontier (Gnp n=%d, %d trials)", g.N(), trials),
		Claim:   "Theorems 1 and 3 are inverse tradeoffs: (2k−2, ~(cn)^{1/k}ln cn) vs (~2(cn)^{1/λ}ln cn, λ)",
		Columns: []string{"regime", "param", "diam(max)", "colors(mean)", "rounds(mean)", "success"},
	}
	for _, k := range []int{2, 3, 4, 6, 8} {
		a, err := aggregateEN(g, core.Options{Variant: core.Theorem1, K: k, C: 8}, cfg.Seed+uint64(k)*37, trials)
		if err != nil {
			return nil, err
		}
		t.AddRow("T1 k", fmtInt(k), fmtF(stats.Summarize(a.diams).Max),
			fmtF(stats.Summarize(a.colors).Mean), fmtF(stats.Summarize(a.rounds).Mean),
			fmt.Sprintf("%d/%d", a.success, a.trials))
	}
	for _, lambda := range []int{1, 2, 3, 4} {
		a, err := aggregateEN(g, core.Options{Variant: core.Theorem3, Lambda: lambda, C: 8}, cfg.Seed+uint64(lambda)*53, trials)
		if err != nil {
			return nil, err
		}
		t.AddRow("T3 λ", fmtInt(lambda), fmtF(stats.Summarize(a.diams).Max),
			fmtF(stats.Summarize(a.colors).Mean), fmtF(stats.Summarize(a.rounds).Mean),
			fmt.Sprintf("%d/%d", a.success, a.trials))
	}
	t.AddNote("reading down the rows, diameter rises as colors fall — the frontier the two theorems trace")
	return t, nil
}

// F3RoundsScaling compares the round growth of Elkin–Neiman and
// Linial–Saks at k=⌈ln n⌉ as n doubles: both are O(log² n), the paper's
// parity claim (EN achieves it with strong diameter).
func F3RoundsScaling(cfg Config) (*Table, error) {
	cfg = cfg.normalize()
	maxN := pick(cfg, 2048, 8192)
	trials := cfg.trials(3, 10)
	t := &Table{
		ID:      "F3",
		Title:   fmt.Sprintf("rounds vs n at k=⌈ln n⌉ (Gnp, %d trials)", trials),
		Claim:   "both algorithms run in O(log² n) rounds; EN additionally guarantees strong diameter",
		Columns: []string{"n", "k", "EN rounds", "LS rounds", "EN/ln²n", "LS/ln²n"},
	}
	var lnNs, enR, lsR []float64
	for n := 256; n <= maxN; n *= 2 {
		g, err := gen.Build(gen.FamilyGnp, n, cfg.Seed+uint64(n)*3)
		if err != nil {
			return nil, err
		}
		k := int(math.Ceil(math.Log(float64(g.N()))))
		var en, ls []float64
		for i := 0; i < trials; i++ {
			seed := cfg.Seed + uint64(i)*709
			dec, err := core.Run(g, core.Options{K: k, C: 8, Seed: seed, ForceComplete: true})
			if err != nil {
				return nil, err
			}
			en = append(en, float64(dec.Metrics.Rounds))
			lsp, err := baseline.LinialSaks(g, baseline.LSOptions{K: k, C: 8, Seed: seed, ForceComplete: true})
			if err != nil {
				return nil, err
			}
			ls = append(ls, float64(lsp.Metrics.Rounds))
		}
		lnN := math.Log(float64(n))
		es, lss := stats.Summarize(en), stats.Summarize(ls)
		t.AddRow(fmtInt(n), fmtInt(k), fmtF(es.Mean), fmtF(lss.Mean),
			fmtF(es.Mean/(lnN*lnN)), fmtF(lss.Mean/(lnN*lnN)))
		lnNs = append(lnNs, lnN)
		enR = append(enR, es.Mean)
		lsR = append(lsR, lss.Mean)
	}
	if b, err := stats.LogLogSlope(lnNs, enR); err == nil {
		t.AddNote("EN fitted exponent of rounds vs ln n: %.2f (O(log² n) ceiling; early exhaustion flattens the curve)", b)
	}
	if b, err := stats.LogLogSlope(lnNs, lsR); err == nil {
		t.AddNote("LS fitted exponent of rounds vs ln n: %.2f (same ceiling and same flattening)", b)
	}
	return t, nil
}
