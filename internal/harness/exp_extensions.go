package harness

import (
	"fmt"
	"math"

	"netdecomp/internal/baseline"
	"netdecomp/internal/core"
	"netdecomp/internal/cover"
	"netdecomp/internal/gen"
	"netdecomp/internal/spanner"
	"netdecomp/internal/stats"
)

// A1ForwardingAblation is the design-choice ablation behind the paper's
// CONGEST claim (end of Section 2): forwarding the top TWO shifted values
// per round is exactly sufficient. keep=2 matches the exact per-center
// broadcast on every join decision (a verdict); keep=1 visibly corrupts
// them, because the join rule m₁−m₂ > 1 needs the runner-up value that
// top-1 forwarding prunes upstream.
func A1ForwardingAblation(cfg Config) (*Table, error) {
	cfg = cfg.normalize()
	n := pick(cfg, 300, 2048)
	trials := cfg.trials(5, 25)
	t := &Table{
		ID:    "A1",
		Title: fmt.Sprintf("top-k forwarding ablation (Gnp n≈%d, %d trials)", n, trials),
		Claim: "keep=2 is lossless (Section 2 CONGEST argument); keep=1 is not",
		Columns: []string{"keep", "beta", "decision mism(sum)", "center mism(sum)",
			"joined/exact(mean)"},
	}
	g, err := gen.Build(gen.FamilyGnp, n, cfg.Seed+21)
	if err != nil {
		return nil, err
	}
	for _, keep := range []int{2, 1} {
		for _, beta := range []float64{0.5, 0.9} {
			dm, cm := 0, 0
			var ratio []float64
			for i := 0; i < trials; i++ {
				res, err := core.TopKForwardingAblation(g, cfg.Seed+uint64(i)*97, beta, 6, keep)
				if err != nil {
					return nil, err
				}
				dm += res.DecisionMismatches
				cm += res.CenterMismatches
				if res.JoinedExact > 0 {
					ratio = append(ratio, float64(res.Joined)/float64(res.JoinedExact))
				}
			}
			t.AddRow(fmtInt(keep), fmtF(beta), fmtInt(dm), fmtInt(cm),
				fmtF(stats.Summarize(ratio).Mean))
			if keep == 2 {
				t.AtMost(fmt.Sprintf("keep=2 β=%.1f decision and center mismatches", beta), float64(dm+cm), 0)
			}
		}
	}
	t.AddNote("keep=1 rows show the information loss the paper's rule avoids")
	return t, nil
}

// T11NeighborhoodCovers reproduces the Section 1.1 connection to sparse
// neighborhood covers [ABCP92, AP92]: decomposing the power graph G^{2W+1}
// and expanding clusters by W yields a W-neighborhood cover of degree ≤ χ.
func T11NeighborhoodCovers(cfg Config) (*Table, error) {
	cfg = cfg.normalize()
	n := pick(cfg, 200, 1024)
	trials := cfg.trials(3, 8)
	families := []gen.Family{gen.FamilyGnp, gen.FamilyGrid}
	t := &Table{
		ID:    "T11",
		Title: fmt.Sprintf("W-neighborhood covers from the decomposition (n≈%d, %d trials)", n, trials),
		Claim: "every ball B(v,W) inside one cover set; degree ≤ χ; sets connected with bounded diameter",
		Columns: []string{"family", "W", "sets(mean)", "degree(max)", "chi(mean)",
			"diam(max)"},
	}
	for _, fam := range families {
		g, err := gen.Build(fam, n, cfg.Seed+uint64(fam)*23)
		if err != nil {
			return nil, err
		}
		for _, w := range []int{1, 2} {
			var sets, chis, diams []float64
			degree, invalid, overChi := 0, 0, 0
			for i := 0; i < trials; i++ {
				c, err := cover.Build(g, cover.Options{W: w, K: 4, Seed: cfg.Seed + uint64(i)*389})
				if err != nil {
					return nil, err
				}
				d, err := c.Verify(g)
				if err != nil {
					invalid++
				}
				if c.Degree > c.Colors {
					overChi++
				}
				sets = append(sets, float64(len(c.Clusters)))
				chis = append(chis, float64(c.Colors))
				diams = append(diams, float64(d))
				degree = max(degree, c.Degree)
			}
			t.AddRow(fam.String(), fmtInt(w), fmtF(stats.Summarize(sets).Mean),
				fmtInt(degree), fmtF(stats.Summarize(chis).Mean),
				fmtF(stats.Summarize(diams).Max))
			row := fmt.Sprintf("%s W=%d", fam, w)
			t.AtMost(row+" invalid covers", float64(invalid), 0)
			t.AtMost(row+" covers with degree above their χ", float64(overChi), 0)
		}
	}
	return t, nil
}

// T12Spanners reproduces the Section 1.1 connection to sparse spanners and
// skeletons [DMP+05]: cluster BFS trees plus one bridge per adjacent
// cluster pair give a connected subgraph whose sparsity and stretch are
// governed by (D, χ).
func T12Spanners(cfg Config) (*Table, error) {
	cfg = cfg.normalize()
	n := pick(cfg, 300, 2048)
	trials := cfg.trials(3, 8)
	families := []gen.Family{gen.FamilyGnp, gen.FamilyRegular, gen.FamilyRingOfCliques}
	t := &Table{
		ID:    "T12",
		Title: fmt.Sprintf("skeleton spanners from the decomposition (n≈%d, k=⌈ln n⌉, %d trials)", n, trials),
		Claim: "connected skeleton with < n tree edges + one bridge per adjacent cluster pair; stretch bounded via D",
		Columns: []string{"family", "m(G)", "edges(mean)", "tree", "bridges",
			"stretch max", "stretch mean"},
	}
	for _, fam := range families {
		g, err := gen.Build(fam, n, cfg.Seed+uint64(fam)*29)
		if err != nil {
			return nil, err
		}
		k := int(math.Ceil(math.Log(float64(g.N()))))
		var edges, trees, bridges, smax, smean []float64
		for i := 0; i < trials; i++ {
			dec, err := core.Run(g, core.Options{K: k, C: 8, Seed: cfg.Seed + uint64(i)*443, ForceComplete: true})
			if err != nil {
				return nil, err
			}
			sp, err := spanner.Build(g, &dec.Partition)
			if err != nil {
				return nil, err
			}
			mx, mn, err := sp.StretchSample(g, cfg.Seed+uint64(i), 40)
			if err != nil {
				return nil, err
			}
			edges = append(edges, float64(sp.Edges))
			trees = append(trees, float64(sp.TreeEdges))
			bridges = append(bridges, float64(sp.BridgeEdges))
			smax = append(smax, mx)
			smean = append(smean, mn)
		}
		t.AddRow(fam.String(), fmtInt(g.M()), fmtF(stats.Summarize(edges).Mean),
			fmtF(stats.Summarize(trees).Mean), fmtF(stats.Summarize(bridges).Mean),
			fmtF(stats.Summarize(smax).Max), fmtF(stats.Summarize(smean).Mean))
	}
	t.AddNote("on dense inputs the skeleton keeps a small fraction of m while staying connected with modest stretch")
	return t, nil
}

// T13SequentialYardstick compares the distributed Elkin–Neiman
// decomposition against the classic deterministic sequential ball-carving
// construction (the existence argument for strong (O(log n), O(log n))
// decompositions). The paper's point is exactly this gap: the sequential
// construction is easy but inherently global; EN achieves comparable
// quality in O(log² n) distributed rounds.
func T13SequentialYardstick(cfg Config) (*Table, error) {
	cfg = cfg.normalize()
	n := pick(cfg, 384, 2048)
	trials := cfg.trials(3, 10)
	families := []gen.Family{gen.FamilyGnp, gen.FamilyGrid, gen.FamilyTree}
	t := &Table{
		ID:    "T13",
		Title: fmt.Sprintf("EN (distributed) vs sequential ball carving (n≈%d, k=⌈ln n⌉, %d trials)", n, trials),
		Claim: "EN matches the sequential existence bound — strong O(log n) diameter, O(log n) colors — while running distributedly",
		Columns: []string{"family", "EN sdiam(clean)", "EN sdiam(all)", "diamBound", "EN colors",
			"EN rounds", "BC sdiam", "BC colors", "BC bound 2k", "lnN"},
	}
	for _, fam := range families {
		g, err := gen.Build(fam, n, cfg.Seed+uint64(fam)*41)
		if err != nil {
			return nil, err
		}
		k := int(math.Ceil(math.Log(float64(g.N()))))
		o := core.Options{K: k, C: 8, ForceComplete: true}
		dBound, err := core.TheoremDiameterBound(g.N(), o)
		if err != nil {
			return nil, err
		}
		var enD, enClean, enC, enR []float64
		for i := 0; i < trials; i++ {
			o.Seed = cfg.Seed + uint64(i)*577
			dec, err := core.Run(g, o)
			if err != nil {
				return nil, err
			}
			d, disconnected := dec.StrongDiameter(g)
			if disconnected != 0 {
				return nil, fmt.Errorf("harness: EN cluster disconnected")
			}
			enD = append(enD, float64(d))
			if dec.TruncationEvents == 0 {
				enClean = append(enClean, float64(d))
			}
			enC = append(enC, float64(dec.Colors))
			enR = append(enR, float64(dec.Metrics.Rounds))
		}
		bc, err := baseline.BallCarving(g, baseline.BCOptions{K: k})
		if err != nil {
			return nil, err
		}
		bcD, disc := bc.StrongDiameter(g)
		if disc != 0 {
			return nil, fmt.Errorf("harness: ball carving produced disconnected cluster")
		}
		clean := stats.Summarize(enClean)
		t.AddRow(fam.String(), fmtF(clean.Max), fmtF(stats.Summarize(enD).Max), fmtInt(dBound),
			fmtF(stats.Summarize(enC).Mean), fmtF(stats.Summarize(enR).Mean), fmtInt(bcD),
			fmtInt(bc.Colors), fmtInt(2*k), fmtF(math.Log(float64(g.N()))))
		if clean.N > 0 {
			t.AtMost(fam.String()+" EN clean-run strong diameter", clean.Max, float64(dBound))
		}
	}
	t.AddNote("BC is deterministic and sequential (rounds not comparable); EN pays O(log² n) rounds for the same quality class")
	return t, nil
}
