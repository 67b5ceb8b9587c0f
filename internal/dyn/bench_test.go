package dyn

// The repair-vs-recompute benchmark pair behind the dyn rows of
// BENCH_gates.json: one Maintainer on the repair path and one forced to
// full recompute, both fed identical balanced mutation batches (half
// deletions of present edges, half insertions of absent ones) at 0.1%, 1%,
// and 5% of the edge count on a torus of n=2^16 vertices. The torus is
// the honest family for this measurement: repair wins by exploiting
// locality, and a bounded-degree lattice is the regime where a mutation's
// influence ball is genuinely local. (On gnp at this size the diameter is
// ~6, so any batch's influence ball spans the whole graph and repair
// degrades to recompute — that regime is covered by the 5% row falling
// back.) CI gates both 0.1% rows and checks the live ratio between them
// stays at least 5.5x; the 1% and 5% rows are informational and document
// the crossover. At the end, BenchmarkOverlayCompact and
// BenchmarkOverlayMaterialize compact one 0.1% overlay both ways; a
// manifest check keeps the splice at least 4x faster than the rebuild.

import (
	"context"
	"fmt"
	"testing"

	"netdecomp/internal/decomp"
	"netdecomp/internal/gen"
	"netdecomp/internal/graph"
	"netdecomp/internal/randx"
)

const benchN = 1 << 16

// benchRates are the mutation-batch sizes as fractions of the edge count.
var benchRates = []struct {
	name string
	frac float64
}{
	{"0.1pct", 0.001},
	{"1pct", 0.01},
	{"5pct", 0.05},
}

// benchBatch builds a balanced batch of size edges against g: half
// deletions sampled from present edges (degree-biased, which is fine for a
// load model), half insertions of fresh random non-edges. Every mutation
// is effective, so the batch size is the damage driver it claims to be.
func benchBatch(rng *randx.SplitMix64, g graph.Interface, size int) Batch {
	n := g.N()
	muts := make([]Mutation, 0, size)
	for len(muts) < size/2 {
		u := rng.Intn(n)
		row := g.Neighbors(u)
		if len(row) == 0 {
			continue
		}
		muts = append(muts, Mutation{Op: OpDelete, U: int32(u), V: row[rng.Intn(len(row))]})
	}
	for len(muts) < size {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || rowHas(g.Neighbors(u), int32(v)) {
			continue
		}
		muts = append(muts, Mutation{Op: OpInsert, U: int32(u), V: int32(v)})
	}
	return Batch(muts)
}

// benchMaintainer bootstraps a Maintainer over the benchmark graph.
func benchMaintainer(b *testing.B, force bool) (*Maintainer, *randx.SplitMix64) {
	b.Helper()
	g, err := gen.Build(gen.FamilyTorus, benchN, 7)
	if err != nil {
		b.Fatal(err)
	}
	pl, err := decomp.Compile("elkin-neiman", decomp.WithSeed(11), decomp.WithForceComplete())
	if err != nil {
		b.Fatal(err)
	}
	m, err := NewMaintainer(context.Background(), pl, g, Config{ForceRecompute: force})
	if err != nil {
		b.Fatal(err)
	}
	return m, randx.New(0xbe7c4)
}

// runUpdates drives b.N mutation batches through m, generating each batch
// off the clock so only Update (repair or recompute) is measured.
func runUpdates(b *testing.B, m *Maintainer, rng *randx.SplitMix64, frac float64) {
	b.Helper()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		size := int(frac * float64(graph.EdgeCount(m.Graph())))
		batch := benchBatch(rng, m.Graph(), size)
		next, res, err := Wrap(m.Graph()).Apply(batch)
		if err != nil {
			b.Fatal(err)
		}
		// Compact off the clock too: splicing the patched rows into a flat
		// CSR is the ingest cost of the new version, identical on both
		// sides, not part of repair.
		c := next.Compact()
		b.StartTimer()
		if _, _, err := m.Update(ctx, c, res.Effective); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDynRepair measures incremental repair per mutation batch. The
// balanced batches keep the edge count stable across iterations, so the
// steady state each iteration repairs from is statistically the bootstrap
// graph.
func BenchmarkDynRepair(b *testing.B) {
	for _, r := range benchRates {
		b.Run(fmt.Sprintf("rate=%s", r.name), func(b *testing.B) {
			m, rng := benchMaintainer(b, false)
			runUpdates(b, m, rng, r.frac)
		})
	}
}

// BenchmarkDynRecompute is the same workload with the repair path disabled
// — every batch pays a from-scratch plan run, the denominator of the
// repair speedup BENCH_gates.json checks.
func BenchmarkDynRecompute(b *testing.B) {
	for _, r := range benchRates {
		b.Run(fmt.Sprintf("rate=%s", r.name), func(b *testing.B) {
			m, rng := benchMaintainer(b, true)
			runUpdates(b, m, rng, r.frac)
		})
	}
}

// benchOverlay is the benchmark torus carrying one balanced 0.1% batch:
// the overlay a small repair-torus op compacts (about 260 patched rows).
func benchOverlay(b *testing.B) *Overlay {
	b.Helper()
	g, err := gen.Build(gen.FamilyTorus, benchN, 7)
	if err != nil {
		b.Fatal(err)
	}
	o, _, err := Wrap(g).Apply(benchBatch(randx.New(0xbe7c4), g, int(0.001*float64(g.M()))))
	if err != nil {
		b.Fatal(err)
	}
	return o
}

// BenchmarkOverlayCompact measures Compact, the splice of the patched rows
// into a copy of the base CSR. BENCH_gates.json checks that
// BenchmarkOverlayMaterialize, the edge-stream rebuild of the same
// overlay, stays at least 4x slower.
func BenchmarkOverlayCompact(b *testing.B) {
	o := benchOverlay(b)
	b.ReportAllocs()
	for b.Loop() {
		o.Compact()
	}
}

// BenchmarkOverlayMaterialize measures Materialize on the same overlay:
// two passes of the edge stream through Neighbors, then a sort per row.
func BenchmarkOverlayMaterialize(b *testing.B) {
	o := benchOverlay(b)
	b.ReportAllocs()
	for b.Loop() {
		Materialize(o)
	}
}
