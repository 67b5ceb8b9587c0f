package harness

import (
	"fmt"
	"math"

	"netdecomp/internal/core"
	"netdecomp/internal/gen"
	"netdecomp/internal/graph"
	"netdecomp/internal/stats"
)

// enTrial is the per-run measurement extracted from one decomposition.
type enTrial struct {
	complete    bool
	truncations int
	strongDiam  int
	colors      int
	rounds      int
	phases      int
	messages    int64
}

// runEN executes one decomposition and measures it.
func runEN(g graph.Interface, o core.Options) (enTrial, error) {
	dec, err := core.Run(g, o)
	if err != nil {
		return enTrial{}, err
	}
	tr := enTrial{
		complete:    dec.Complete,
		truncations: dec.TruncationEvents,
		colors:      dec.Colors,
		rounds:      dec.Metrics.Rounds,
		phases:      dec.PhasesUsed,
		messages:    dec.Metrics.Messages,
	}
	diam, disconnected := dec.StrongDiameter(g)
	if disconnected != 0 {
		return tr, fmt.Errorf("harness: decomposition produced a disconnected cluster")
	}
	tr.strongDiam = diam
	return tr, nil
}

// sweepEN aggregates trials of one configuration. diamsClean holds only
// the runs without truncation events — the conditioning under which the
// paper's 2k−2 bound is stated.
type sweepAgg struct {
	diams, colors, rounds []float64
	diamsClean            []float64
	truncatedRuns         int
	success               int
	trials                int
}

func aggregateEN(g graph.Interface, o core.Options, seed uint64, trials int) (sweepAgg, error) {
	var a sweepAgg
	a.trials = trials
	for i := 0; i < trials; i++ {
		o.Seed = seed + uint64(i)*7919
		tr, err := runEN(g, o)
		if err != nil {
			return a, err
		}
		if tr.complete {
			a.success++
		}
		a.diams = append(a.diams, float64(tr.strongDiam))
		if tr.truncations == 0 {
			a.diamsClean = append(a.diamsClean, float64(tr.strongDiam))
		} else {
			a.truncatedRuns++
		}
		a.colors = append(a.colors, float64(tr.colors))
		a.rounds = append(a.rounds, float64(tr.rounds))
	}
	return a, nil
}

// verdicts records the claims every aggregateEN sweep checks: the strong
// diameter of the runs without truncation events against diamBound (Lemma
// 1 states the bound under that condition; a sweep with no such run has
// nothing to check), and the rate of runs not exhausted within the phase
// budget against failBound.
func (a sweepAgg) verdicts(t *Table, row string, diamBound int, failBound float64) {
	if len(a.diamsClean) > 0 {
		t.AtMost(row+" clean-run strong diameter", stats.Summarize(a.diamsClean).Max, float64(diamBound))
	}
	t.AtMostRate(row+" failure rate", a.trials-a.success, a.trials, failBound)
}

// T1Theorem1Sweep reproduces Theorem 1: for each workload family and each
// radius parameter k, the strong diameter of runs without truncation
// events stays within 2k−2, the color count within (cn)^{1/k}·ln(cn), and
// the round count within k·(cn)^{1/k}·ln(cn), with success probability
// ≥ 1 − 3/c.
func T1Theorem1Sweep(cfg Config) (*Table, error) {
	cfg = cfg.normalize()
	n := pick(cfg, 512, 4096)
	trials := cfg.trials(5, 20)
	families := []gen.Family{gen.FamilyGnp, gen.FamilyGrid, gen.FamilyTree}
	lnN := int(math.Ceil(math.Log(float64(n))))
	ks := []int{2, 3, 5, 8, lnN}

	t := &Table{
		ID:    "T1",
		Title: fmt.Sprintf("Theorem 1 sweep (n≈%d, c=8, %d trials)", n, trials),
		Claim: "strong (2k−2, (cn)^{1/k}·ln(cn)) decomposition in k·(cn)^{1/k}·ln(cn) rounds, w.p. ≥ 1−3/c",
		Columns: []string{"family", "k", "diam(clean)", "diamBound", "diam(all)", "trunc runs",
			"colors(mean)", "colorBound", "rounds(mean)", "roundBound", "success"},
	}
	for _, fam := range families {
		g, err := gen.Build(fam, n, cfg.Seed+uint64(fam))
		if err != nil {
			return nil, err
		}
		for _, k := range ks {
			o := core.Options{Variant: core.Theorem1, K: k, C: 8}
			a, err := aggregateEN(g, o, cfg.Seed+uint64(k)*131, trials)
			if err != nil {
				return nil, err
			}
			dBound, err := core.TheoremDiameterBound(g.N(), o)
			if err != nil {
				return nil, err
			}
			cBound, err := core.TheoremColorBound(g.N(), o)
			if err != nil {
				return nil, err
			}
			rBound, err := core.TheoremRoundBound(g.N(), o)
			if err != nil {
				return nil, err
			}
			t.AddRow(fam.String(), fmtInt(k), fmtF(stats.Summarize(a.diamsClean).Max), fmtInt(dBound),
				fmtF(stats.Summarize(a.diams).Max), fmtInt(a.truncatedRuns),
				fmtF(stats.Summarize(a.colors).Mean), fmtF(cBound),
				fmtF(stats.Summarize(a.rounds).Mean), fmtF(rBound),
				fmt.Sprintf("%d/%d", a.success, a.trials))
			a.verdicts(t, fmt.Sprintf("%s k=%d", fam, k), dBound, 3/o.C)
		}
	}
	t.AddNote("diam(clean) is over runs without truncation events (Lemma 1's conditioning); diam(all) includes the Pr ≤ 2/c truncated runs, where the bound may be exceeded — exactly the paper's failure mode")
	return t, nil
}

// T2Theorem2Staged reproduces Theorem 2: the staged β schedule brings the
// color count under 4k(cn)^{1/k} (beating Theorem 1's (cn)^{1/k}ln(cn) for
// small k) at the price of O(k²(cn)^{1/k}) rounds.
func T2Theorem2Staged(cfg Config) (*Table, error) {
	cfg = cfg.normalize()
	n := pick(cfg, 512, 4096)
	trials := cfg.trials(5, 20)
	g, err := gen.Build(gen.FamilyGnp, n, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "T2",
		Title: fmt.Sprintf("Theorem 2 staged schedule (Gnp n=%d, c=8, %d trials)", g.N(), trials),
		Claim: "strong (2k−2, 4k(cn)^{1/k}) decomposition in O(k²(cn)^{1/k}) rounds, w.p. ≥ 1−5/c",
		Columns: []string{"k", "diam(clean)", "diamBound", "diam(all)", "colors(mean)", "bound T2",
			"bound T1", "rounds(mean)", "roundBound", "success"},
	}
	for _, k := range []int{2, 3, 5, 8} {
		o2 := core.Options{Variant: core.Theorem2, K: k, C: 8}
		a, err := aggregateEN(g, o2, cfg.Seed+uint64(k)*977, trials)
		if err != nil {
			return nil, err
		}
		b2, err := core.TheoremColorBound(g.N(), o2)
		if err != nil {
			return nil, err
		}
		b1, err := core.TheoremColorBound(g.N(), core.Options{Variant: core.Theorem1, K: k, C: 8})
		if err != nil {
			return nil, err
		}
		r2, err := core.TheoremRoundBound(g.N(), o2)
		if err != nil {
			return nil, err
		}
		dBound, err := core.TheoremDiameterBound(g.N(), o2)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmtInt(k), fmtF(stats.Summarize(a.diamsClean).Max), fmtInt(dBound),
			fmtF(stats.Summarize(a.diams).Max), fmtF(stats.Summarize(a.colors).Mean), fmtF(b2), fmtF(b1),
			fmtF(stats.Summarize(a.rounds).Mean), fmtF(r2),
			fmt.Sprintf("%d/%d", a.success, a.trials))
		a.verdicts(t, fmt.Sprintf("k=%d", k), dBound, 5/o2.C)
	}
	t.AddNote("shape check: for small k the T2 color bound is far below T1's, and measured colors follow")
	return t, nil
}

// T3HighRadius reproduces Theorem 3 (Section 2.2): fixing the color budget
// λ and letting the radius grow as (cn)^{1/λ}·ln(cn).
func T3HighRadius(cfg Config) (*Table, error) {
	cfg = cfg.normalize()
	n := pick(cfg, 256, 2048)
	trials := cfg.trials(5, 15)
	g, err := gen.Build(gen.FamilyGnp, n, cfg.Seed+2)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "T3",
		Title: fmt.Sprintf("Theorem 3 high-radius regime (Gnp n=%d, c=8, %d trials)", g.N(), trials),
		Claim: "strong (2(cn)^{1/λ}·ln(cn), λ) decomposition in λ(cn)^{1/λ}·ln(cn) rounds, w.p. ≥ 1−3/c",
		Columns: []string{"lambda", "colors(max)", "diam(clean)", "diam(all)", "diamBound",
			"rounds(mean)", "roundBound", "success"},
	}
	for _, lambda := range []int{1, 2, 3, 4} {
		o := core.Options{Variant: core.Theorem3, Lambda: lambda, C: 8}
		a, err := aggregateEN(g, o, cfg.Seed+uint64(lambda)*389, trials)
		if err != nil {
			return nil, err
		}
		dBound, err := core.TheoremDiameterBound(g.N(), o)
		if err != nil {
			return nil, err
		}
		rBound, err := core.TheoremRoundBound(g.N(), o)
		if err != nil {
			return nil, err
		}
		cBound, err := core.TheoremColorBound(g.N(), o)
		if err != nil {
			return nil, err
		}
		colors := stats.Summarize(a.colors).Max
		t.AddRow(fmtInt(lambda), fmtF(colors), fmtF(stats.Summarize(a.diamsClean).Max),
			fmtF(stats.Summarize(a.diams).Max), fmtInt(dBound),
			fmtF(stats.Summarize(a.rounds).Mean), fmtF(rBound),
			fmt.Sprintf("%d/%d", a.success, a.trials))
		row := fmt.Sprintf("λ=%d", lambda)
		t.AtMost(row+" colors", colors, cBound)
		a.verdicts(t, row, dBound, 3/o.C)
	}
	t.AddNote("the cost of few colors moves into the diameter, inverse to T1")
	return t, nil
}

// T4HeadlineScaling reproduces the headline result: at k = ⌈ln n⌉ the
// decomposition is strong (O(log n), O(log n)) and the round count grows
// as O(log² n).
func T4HeadlineScaling(cfg Config) (*Table, error) {
	cfg = cfg.normalize()
	maxN := pick(cfg, 2048, 8192)
	trials := cfg.trials(3, 8)
	t := &Table{
		ID:    "T4",
		Title: fmt.Sprintf("headline scaling at k=⌈ln n⌉ (Gnp, %d trials)", trials),
		Claim: "strong (O(log n), O(log n)) network decomposition in O(log² n) rounds",
		Columns: []string{"n", "k", "diam(max)", "diam/lnN", "colors(mean)", "colors/lnN",
			"rounds(mean)", "rounds/ln²N", "success"},
	}
	var lnNs, rounds []float64
	for n := 256; n <= maxN; n *= 2 {
		g, err := gen.Build(gen.FamilyGnp, n, cfg.Seed+uint64(n))
		if err != nil {
			return nil, err
		}
		k := int(math.Ceil(math.Log(float64(n))))
		o := core.Options{K: k, C: 8}
		a, err := aggregateEN(g, o, cfg.Seed+uint64(n)*13, trials)
		if err != nil {
			return nil, err
		}
		dBound, err := core.TheoremDiameterBound(g.N(), o)
		if err != nil {
			return nil, err
		}
		rBound, err := core.TheoremRoundBound(g.N(), o)
		if err != nil {
			return nil, err
		}
		lnN := math.Log(float64(n))
		ds, cs, rs := stats.Summarize(a.diams), stats.Summarize(a.colors), stats.Summarize(a.rounds)
		t.AddRow(fmtInt(n), fmtInt(k), fmtF(ds.Max), fmtF(ds.Max/lnN),
			fmtF(cs.Mean), fmtF(cs.Mean/lnN), fmtF(rs.Mean), fmtF(rs.Mean/(lnN*lnN)),
			fmt.Sprintf("%d/%d", a.success, a.trials))
		row := fmt.Sprintf("n=%d", n)
		t.AtMost(row+" rounds", rs.Max, rBound)
		a.verdicts(t, row, dBound, 3/o.C)
		lnNs = append(lnNs, lnN)
		rounds = append(rounds, rs.Mean)
	}
	if b, err := stats.LogLogSlope(lnNs, rounds); err == nil {
		t.AddNote("fitted exponent of rounds vs ln n: %.2f (the paper's O(log² n) is a ceiling; early exhaustion keeps the measured curve below exponent 2)", b)
	}
	return t, nil
}
