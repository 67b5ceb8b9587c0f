package harness

import (
	"context"
	"fmt"
	"math"

	"netdecomp/internal/decomp"
	"netdecomp/internal/gen"
)

// T14RegistryHeadToHead is the unified-API sweep: every algorithm in the
// decomp registry decomposes the same graph under identical options, and
// the one Partition type reports completeness, quality and CONGEST cost
// side by side. New registrations appear in this table (and through it in
// cmd/experiments) with no harness changes — this is the head-to-head
// driver the registry redesign replaces the per-algorithm glue with.
func T14RegistryHeadToHead(cfg Config) (*Table, error) {
	cfg = cfg.normalize()
	ctx := context.Background()
	n := pick(cfg, 384, 2048)
	g, err := gen.Build(gen.FamilyGnp, n, cfg.Seed+51)
	if err != nil {
		return nil, err
	}
	k := int(math.Ceil(math.Log(float64(g.N()))))
	t := &Table{
		ID:    "T14",
		Title: fmt.Sprintf("registry head-to-head: every algorithm on Gnp n=%d (k=%d)", g.N(), k),
		Claim: "one Decompose call per registered name; one Partition type reports quality and cost for all of them",
		Columns: []string{"algo", "mode", "complete", "clusters", "colors", "sdiam", "disc",
			"wdiam", "rounds", "messages"},
	}
	for _, name := range decomp.Names() {
		pl, err := decomp.Compile(name,
			decomp.WithK(k), decomp.WithSeed(cfg.Seed), decomp.WithForceComplete())
		if err != nil {
			return nil, err
		}
		p, err := runPlan(ctx, pl, g)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		sd, disc := p.StrongDiameter(g)
		sdCell := fmtInt(sd)
		if disc > 0 {
			sdCell = "inf"
		}
		wdCell := "inf"
		if wd, ok := p.WeakDiameter(g); ok {
			wdCell = fmtInt(wd)
		}
		t.AddRow(name, p.Mode.String(), fmt.Sprintf("%v", p.Complete),
			fmtInt(len(p.Clusters)), fmtInt(p.Colors), sdCell, fmtInt(disc), wdCell,
			fmtInt(p.Metrics.Rounds), fmt.Sprintf("%d", p.Metrics.Messages))
		t.AtMost(name+" violations of its mode's invariants", float64(len(p.Verify(g).Errors)), 0)
	}
	t.AddNote("sdiam=inf marks weak-diameter algorithms with disconnected clusters")
	st := SessionStats()
	t.AddNote("serving session to date: %d hits, %d misses, %d dedups (repeated (graph, plan, seed) work is cached)",
		st.Hits, st.Misses, st.Dedups)
	if h := sharedSession.Registry().Histogram("session.miss.ns").Snapshot(); h.Count > 0 {
		t.AddNote("session execution latency to date (ns, from the telemetry registry): p50/p90/p99 = %s over %d misses",
			fmtQuantiles(h), h.Count)
	}
	return t, nil
}
