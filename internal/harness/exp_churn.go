package harness

// T15: dynamic churn. A serving-shaped workload against the internal/dyn
// maintenance engine: mutation batches arrive with Poisson-distributed
// sizes (mean lambda per batch), cluster-membership queries follow a Zipf
// law over vertex ids, and two Maintainers — one on the certified repair
// path, one forced to full recompute — consume identical batches. Each row
// checks the partitions stay bit-identical (a verdict: no batch may
// differ in any field but Metrics), reads repair and recompute
// latency quantiles from the dyn.repair.* histograms, and measures how
// often a hot vertex's cluster survives a batch untouched (assignment
// stability, the property that makes session caches worth invalidating
// narrowly).

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"

	"netdecomp/internal/decomp"
	"netdecomp/internal/dist"
	"netdecomp/internal/dyn"
	"netdecomp/internal/gen"
	"netdecomp/internal/graph"
	"netdecomp/internal/obs"
)

// poissonDraw samples Poisson(lambda) via Knuth's product method —
// fine for the small means used here.
func poissonDraw(rng *rand.Rand, lambda float64) int {
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// churnBatch builds a balanced batch: half deletions of present edges,
// half insertions of absent ones, every mutation effective.
func churnBatch(rng *rand.Rand, g graph.Interface, size int) dyn.Batch {
	n := g.N()
	muts := make([]dyn.Mutation, 0, size)
	for len(muts) < size/2 {
		u := rng.IntN(n)
		row := g.Neighbors(u)
		if len(row) == 0 {
			continue
		}
		muts = append(muts, dyn.Mutation{Op: dyn.OpDelete, U: int32(u), V: row[rng.IntN(len(row))]})
	}
	for len(muts) < size {
		u, v := rng.IntN(n), rng.IntN(n)
		if u == v || hasNeighbor(g, u, int32(v)) {
			continue
		}
		muts = append(muts, dyn.Mutation{Op: dyn.OpInsert, U: int32(u), V: int32(v)})
	}
	return dyn.Batch(muts)
}

func hasNeighbor(g graph.Interface, u int, v int32) bool {
	for _, w := range g.Neighbors(u) {
		if w == v {
			return true
		}
	}
	return false
}

// clusterID names v's cluster by its smallest member — stable across the
// index shuffling a repair may introduce, so it is the right notion of
// "same cluster" for the stability measurement.
func clusterID(p *decomp.Partition, v int) int {
	ci := p.ClusterOf[v]
	if ci < 0 {
		return -1
	}
	return p.Clusters[ci].Members[0]
}

// samePartition reports whether two partitions agree in every field but
// Metrics, the account of the execution that produced each.
func samePartition(a, b *decomp.Partition) bool {
	x, y := *a, *b
	x.Metrics, y.Metrics = dist.Metrics{}, dist.Metrics{}
	return reflect.DeepEqual(x, y)
}

// fmtMsQuantiles renders a nanosecond histogram's p50/p90/p99 in ms.
func fmtMsQuantiles(s obs.HistogramSnapshot) string {
	q := func(p float64) string { return fmt.Sprintf("%.2f", s.Quantile(p)/1e6) }
	return q(0.5) + "/" + q(0.9) + "/" + q(0.99)
}

// T15ChurnRepair runs the churn experiment.
func T15ChurnRepair(cfg Config) (*Table, error) {
	cfg = cfg.normalize()
	ctx := context.Background()
	n := pick(cfg, 1024, 4096)
	batches := cfg.trials(16, 40)
	queries := pick(cfg, 128, 512)
	lambdas := pick(cfg, []float64{2, 8, 32}, []float64{4, 16, 64})

	t := &Table{
		ID:    "T15",
		Title: "Dynamic churn: certified repair vs recompute",
		Claim: "Under Poisson mutation arrivals the incremental repair path stays " +
			"bit-identical to from-scratch decomposition while hot (Zipf-weighted) " +
			"cluster assignments survive most batches untouched.",
		Columns: []string{"lambda", "batches", "repairs", "fallbacks",
			"repair ms p50/p90/p99", "recomp ms p50/p90/p99", "speedup(p50)", "hot-stable"},
	}

	for _, lam := range lambdas {
		g, err := gen.Build(gen.FamilyTorus, n, cfg.Seed+61)
		if err != nil {
			return nil, err
		}
		pl, err := decomp.Compile("elkin-neiman",
			decomp.WithSeed(cfg.Seed+11), decomp.WithForceComplete())
		if err != nil {
			return nil, err
		}
		// Separate registries keep the histograms clean: a repair-side
		// fallback lands in its own dyn.repair.recompute.ns, not the
		// baseline's.
		regR, regC := obs.NewRegistry(), obs.NewRegistry()
		mr, err := dyn.NewMaintainer(ctx, pl, g, dyn.Config{Recorder: obs.New(regR, nil)})
		if err != nil {
			return nil, err
		}
		mc, err := dyn.NewMaintainer(ctx, pl, g, dyn.Config{
			ForceRecompute: true, Recorder: obs.New(regC, nil)})
		if err != nil {
			return nil, err
		}

		rng := rand.New(rand.NewPCG(uint64(cfg.Seed)+77, uint64(lam*1000)))
		zipf := rand.NewZipf(rng, 1.4, 1, uint64(n-1))
		cur := mr.Graph()
		stable, asked, divergent := 0, 0, 0
		for b := 0; b < batches; b++ {
			size := poissonDraw(rng, lam)
			if size == 0 {
				size = 1
			}
			batch := churnBatch(rng, cur, size)
			next, res, err := dyn.Wrap(cur).Apply(batch)
			if err != nil {
				return nil, err
			}
			c := next.Compact()
			prev := mr.Partition()
			pR, _, err := mr.Update(ctx, c, res.Effective)
			if err != nil {
				return nil, err
			}
			pC, _, err := mc.Update(ctx, c, res.Effective)
			if err != nil {
				return nil, err
			}
			if !samePartition(pR, pC) {
				divergent++
			}
			// Zipf query mix: hot vertices dominate, so this measures the
			// stability a session cache actually experiences.
			for q := 0; q < queries; q++ {
				v := int(zipf.Uint64())
				if clusterID(prev, v) == clusterID(pR, v) {
					stable++
				}
				asked++
			}
			cur = c
		}

		hR := regR.Histogram("dyn.repair.ns").Snapshot()
		hC := regC.Histogram("dyn.repair.recompute.ns").Snapshot()
		repairs := int(regR.Counter("dyn.repair.repairs").Value())
		fallbacks := int(regR.Counter("dyn.repair.fallbacks").Value())
		speedup := "-"
		if repairs > 0 && hR.Quantile(0.5) > 0 {
			speedup = fmt.Sprintf("%.2fx", hC.Quantile(0.5)/hR.Quantile(0.5))
		}
		t.AddRow(fmtF(lam), fmtInt(batches), fmtInt(repairs), fmtInt(fallbacks),
			fmtMsQuantiles(hR), fmtMsQuantiles(hC), speedup,
			fmt.Sprintf("%.3f", float64(stable)/float64(asked)))
		t.AtMost(fmt.Sprintf("lambda=%s batches whose repair differs from recompute", fmtF(lam)), float64(divergent), 0)
	}
	t.AddNote("torus n=%d, %d Zipf(1.4) queries per batch; batch sizes ~ Poisson(lambda), "+
		"balanced half-delete/half-insert; every batch compares the two partitions in every field but Metrics", n, queries)
	return t, nil
}
