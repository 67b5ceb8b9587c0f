package harness

import (
	"fmt"
	"math"

	"netdecomp/internal/core"
	"netdecomp/internal/gen"
	"netdecomp/internal/stats"
)

// T6TruncationEvents reproduces Lemma 1: the probability that any vertex
// ever draws a radius r ≥ k+1 (breaking the per-phase round budget) is at
// most 2/c, so it decays inversely with the confidence parameter.
func T6TruncationEvents(cfg Config) (*Table, error) {
	cfg = cfg.normalize()
	n := pick(cfg, 256, 1024)
	trials := cfg.trials(40, 200)
	g, err := gen.Build(gen.FamilyGnp, n, cfg.Seed+3)
	if err != nil {
		return nil, err
	}
	k := 4
	t := &Table{
		ID:    "T6",
		Title: fmt.Sprintf("Lemma 1 truncation events (Gnp n=%d, k=%d, %d trials/c)", g.N(), k, trials),
		Claim: "Pr[∃v,t: r_v^{(t)} ≥ k+1] ≤ 2/c",
		Columns: []string{"c", "runs w/ event", "empirical Pr", "95% CI", "bound 2/c",
			"events/run(mean)"},
	}
	for _, c := range []float64{4, 8, 16, 32} {
		bad := 0
		var events []float64
		for i := 0; i < trials; i++ {
			dec, err := core.Run(g, core.Options{K: k, C: c, Seed: cfg.Seed + uint64(i)*613})
			if err != nil {
				return nil, err
			}
			if dec.TruncationEvents > 0 {
				bad++
			}
			events = append(events, float64(dec.TruncationEvents))
		}
		lo, hi := stats.WilsonCI(bad, trials, 1.96)
		t.AddRow(fmtF(c), fmt.Sprintf("%d/%d", bad, trials),
			fmtF(float64(bad)/float64(trials)), fmt.Sprintf("[%.2f,%.2f]", lo, hi),
			fmtF(2/c), fmtF(stats.Summarize(events).Mean))
		t.AtMostRate(fmt.Sprintf("c=%g rate of runs with a truncation event", c), bad, trials, 2/c)
	}
	return t, nil
}

// T7SurvivalDecay reproduces Claim 6 and Corollary 7: a vertex survives t
// phases with probability at most (1−(cn)^{−1/k})^t, so the graph is
// exhausted within (cn)^{1/k}·ln(cn) phases with probability ≥ 1−1/c.
func T7SurvivalDecay(cfg Config) (*Table, error) {
	cfg = cfg.normalize()
	n := pick(cfg, 384, 2048)
	trials := cfg.trials(10, 40)
	g, err := gen.Build(gen.FamilyGnp, n, cfg.Seed+4)
	if err != nil {
		return nil, err
	}
	k := 4
	c := 8.0
	cn := c * float64(g.N())
	q := 1 - math.Pow(cn, -1/float64(k)) // per-phase survival upper bound
	t := &Table{
		ID:      "T7",
		Title:   fmt.Sprintf("survival decay (Gnp n=%d, k=%d, c=%.0f, %d trials)", g.N(), k, c, trials),
		Claim:   "Pr[v ∈ G_{t+1}] ≤ (1−(cn)^{−1/k})^t; graph exhausted in (cn)^{1/k}ln(cn) phases w.p. ≥ 1−1/c",
		Columns: []string{"phase t", "alive frac(mean)", "envelope q^t", "ratio"},
	}
	// Collect per-phase alive fractions across trials.
	perPhase := map[int][]float64{}
	complete := 0
	maxPhase := 0
	for i := 0; i < trials; i++ {
		dec, err := core.Run(g, core.Options{K: k, C: c, Seed: cfg.Seed + uint64(i)*827})
		if err != nil {
			return nil, err
		}
		if dec.Complete {
			complete++
		}
		for p, alive := range dec.AlivePerPhase {
			perPhase[p] = append(perPhase[p], float64(alive)/float64(g.N()))
			if p > maxPhase {
				maxPhase = p
			}
		}
	}
	for _, p := range checkpoints(maxPhase) {
		if _, ok := perPhase[p]; !ok {
			continue
		}
		// Runs that finished before phase p have alive fraction 0.
		vals := perPhase[p]
		for len(vals) < trials {
			vals = append(vals, 0)
		}
		mean := stats.Summarize(vals).Mean
		env := math.Pow(q, float64(p))
		ratio := 0.0
		if env > 0 {
			ratio = mean / env
		}
		t.AddRow(fmtInt(p), fmt.Sprintf("%.4f", mean), fmt.Sprintf("%.4f", env), fmtF(ratio))
	}
	t.AddNote("ratio is shape, not a verdict: Claim 6 bounds an expectation that rare large-radius draws carry, " +
		"so per-run survival is skewed and a mean over few runs can sit above q^t on correct code")
	t.AtMostRate("rate of runs not exhausted within the phase budget", trials-complete, trials, 1/c)
	return t, nil
}

// checkpoints returns the phases at which T7 reports: 0,1,2,4,8,... up to
// the maximum.
func checkpoints(max int) []int {
	var cp []int
	for p := 0; p <= max; {
		cp = append(cp, p)
		switch {
		case p == 0:
			p = 1
		default:
			p *= 2
		}
	}
	if len(cp) == 0 || cp[len(cp)-1] != max {
		cp = append(cp, max)
	}
	return cp
}
