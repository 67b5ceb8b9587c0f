package main

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"netdecomp/internal/dyn"
	"netdecomp/internal/gen"
	"netdecomp/internal/graph"
)

// churnBatches returns the first k batches of maintainer m's stream.
func churnBatches(seed uint64, m, k int) []dyn.Batch {
	c := newChurn(seed, m, torusSide, smallQuarter)
	out := make([]dyn.Batch, k)
	for i := range out {
		out[i] = slices.Clone(c.next())
	}
	return out
}

// coldSeeds returns the first k decomposition seeds of the request stream.
func coldSeeds(seed uint64, k int) []uint64 {
	r := newColdRequests(seed)
	out := make([]uint64, k)
	for i := range out {
		out[i] = r.next()
	}
	return out
}

func TestSeedDeterminism(t *testing.T) {
	inputs := map[string]func(seed uint64) any{
		"serve-warm inputs": func(seed uint64) any { return newWarmInputs(seed) },
		"decompose-cold pool": func(seed uint64) any {
			fams, seeds := coldPoolSpecs(seed)
			return fmt.Sprint(fams, seeds)
		},
		"decompose-cold requests": func(seed uint64) any { return coldSeeds(seed, 100) },
		"repair-torus mutations":  func(seed uint64) any { return churnBatches(seed, 1, 5) },
	}
	for name, gen := range inputs {
		if !reflect.DeepEqual(gen(7), gen(7)) {
			t.Errorf("%s: seed 7 twice gave different sequences", name)
		}
		if reflect.DeepEqual(gen(7), gen(8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence", name)
		}
	}
	if reflect.DeepEqual(churnBatches(7, 0, 3), churnBatches(7, 2, 3)) {
		t.Error("two maintainers share a mutation stream")
	}
}

func TestZipfRanks(t *testing.T) {
	z := newZipf(64, warmZipfS)
	if r := z.rank(0); r != 0 {
		t.Errorf("rank(0) = %d", r)
	}
	if r := z.rank(0.999999999); r != 63 {
		t.Errorf("rank(~1) = %d", r)
	}
	// Rank 0 carries 1/H(64, 1.2) ≈ 29% of the requests.
	if got := z.cdf[0]; got < 0.28 || got > 0.30 {
		t.Errorf("P(rank 0) = %v", got)
	}
}

func TestPopularityOrder(t *testing.T) {
	primed := make([][]byte, 64)
	for k := range primed {
		primed[k] = make([]byte, 1000+(k*37)%64) // sizes are a permutation of 1000..1063
	}
	order := popularityOrder(primed)
	if got := slices.Sorted(slices.Values(order)); !slices.Equal(got, seqInts(64)) {
		t.Fatalf("order is not a permutation of the keys: %v", order)
	}
	// Ranks follow the size quantiles 1/2, 1/4, 3/4, 1/8, ...
	for rank, want := range []int{1032, 1016, 1048, 1008} {
		if got := len(primed[order[rank]]); got != want {
			t.Errorf("rank %d serves a key of size %d, want %d", rank, got, want)
		}
	}
}

func seqInts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestStationaryRepairStream applies a stream to a small torus and checks
// that after every batch the graph is the torus minus that batch's failed
// links plus its shortcuts, with every mutation effective.
func TestStationaryRepairStream(t *testing.T) {
	const side, q = 16, 6
	torus, err := gen.Build(gen.FamilyTorus, side*side, 0)
	if err != nil {
		t.Fatal(err)
	}
	base := graphEdges(torus)
	c := newChurn(3, 0, side, q)
	g := dyn.Wrap(torus)
	for i := range 30 {
		batch := c.next()
		next, res, err := g.Apply(batch)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Effective) != len(batch) {
			t.Fatalf("batch %d: %d of %d mutations effective", i, len(res.Effective), len(batch))
		}
		want := map[dyn.Mutation]bool{}
		for e := range base {
			want[e] = true
		}
		if len(c.failed) != q || len(c.shortcuts) != q {
			t.Fatalf("batch %d: %d failed links and %d shortcuts, want %d each", i, len(c.failed), len(c.shortcuts), q)
		}
		for _, f := range c.failed {
			delete(want, dyn.Mutation{Op: dyn.OpInsert, U: f.U, V: f.V})
		}
		for _, s := range c.shortcuts {
			want[s] = true
		}
		if got := graphEdges(next); !reflect.DeepEqual(got, want) {
			t.Fatalf("batch %d: graph is not the torus plus exactly this batch's damage", i)
		}
		g = dyn.Wrap(next.Compact())
	}
}

// graphEdges lists g's edges as canonical insert mutations.
func graphEdges(g graph.Interface) map[dyn.Mutation]bool {
	out := map[dyn.Mutation]bool{}
	for u, v := range graph.EdgeSeq(g) {
		out[edge(dyn.OpInsert, u, v)] = true
	}
	return out
}
