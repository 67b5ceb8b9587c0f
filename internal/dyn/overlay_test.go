package dyn

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"netdecomp/internal/gen"
	"netdecomp/internal/graph"
	"netdecomp/internal/randx"
)

// edgeSet is the reference model: the set of undirected edges as (u,v)
// pairs with u < v.
type edgeSet map[[2]int32]bool

func modelOf(g graph.Interface) edgeSet {
	s := make(edgeSet)
	for u, v := range graph.EdgeSeq(g) {
		s[[2]int32{int32(u), int32(v)}] = true
	}
	return s
}

func (s edgeSet) apply(mut Mutation) bool {
	k := [2]int32{mut.U, mut.V}
	if k[0] > k[1] {
		k[0], k[1] = k[1], k[0]
	}
	switch {
	case mut.Op == OpInsert && !s[k]:
		s[k] = true
		return true
	case mut.Op == OpDelete && s[k]:
		delete(s, k)
		return true
	}
	return false
}

// randomBatch draws size mutations over n vertices, roughly half deletes of
// present edges (when any exist) and half random inserts/deletes.
func randomBatch(rng *randx.SplitMix64, model edgeSet, n, size int) Batch {
	present := make([][2]int32, 0, len(model))
	for k := range model {
		present = append(present, k)
	}
	slices.SortFunc(present, func(a, b [2]int32) int {
		if a[0] != b[0] {
			return int(a[0] - b[0])
		}
		return int(a[1] - b[1])
	})
	b := make(Batch, 0, size)
	for len(b) < size {
		if len(present) > 0 && rng.Float64() < 0.4 {
			e := present[rng.Intn(len(present))]
			b = append(b, Mutation{Op: OpDelete, U: e[0], V: e[1]})
			continue
		}
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u == v {
			continue
		}
		op := OpInsert
		if rng.Intn(2) == 0 {
			op = OpDelete
		}
		b = append(b, Mutation{Op: op, U: u, V: v})
	}
	return b
}

func checkAgainstModel(t *testing.T, o *Overlay, model edgeSet) {
	t.Helper()
	if got := modelOf(o); len(got) != len(model) {
		t.Fatalf("edge count: overlay %d, model %d", len(got), len(model))
	} else {
		for k := range model {
			if !got[k] {
				t.Fatalf("edge {%d,%d} in model but not overlay", k[0], k[1])
			}
		}
	}
	if o.M() != len(model) {
		t.Fatalf("M() = %d, model has %d edges", o.M(), len(model))
	}
	// Rows must stay sorted and degree-consistent — the graph.Interface
	// contract every decomposer assumes.
	deg := 0
	for v := 0; v < o.N(); v++ {
		row := o.Neighbors(v)
		if !slices.IsSorted(row) {
			t.Fatalf("row %d not sorted: %v", v, row)
		}
		if len(row) != o.Degree(v) {
			t.Fatalf("vertex %d: len(Neighbors)=%d Degree=%d", v, len(row), o.Degree(v))
		}
		deg += len(row)
	}
	if deg != 2*o.M() {
		t.Fatalf("degree sum %d != 2*M %d", deg, 2*o.M())
	}
}

func TestOverlayApplyMatchesModel(t *testing.T) {
	rng := randx.New(0x0dd5)
	for trial := 0; trial < 8; trial++ {
		n := 16 + rng.Intn(48)
		base := gen.Gnp(rng, n, 0.12)
		model := modelOf(base)
		o := Wrap(base)
		for round := 0; round < 6; round++ {
			b := randomBatch(rng, model, n, 1+rng.Intn(12))
			next, res, err := o.Apply(b)
			if err != nil {
				t.Fatalf("trial %d round %d: %v", trial, round, err)
			}
			effective := 0
			for _, mut := range b {
				if model.apply(mut) {
					effective++
				}
			}
			if got := res.Inserted + res.Deleted; got != effective {
				t.Fatalf("effective count %d, model says %d", got, effective)
			}
			if len(res.Effective) != effective {
				t.Fatalf("len(Effective)=%d, want %d", len(res.Effective), effective)
			}
			if res.Noops != len(b)-effective {
				t.Fatalf("Noops=%d, want %d", res.Noops, len(b)-effective)
			}
			if next.Version() != o.Version()+1 {
				t.Fatalf("version %d after %d", next.Version(), o.Version())
			}
			if next.DeltaSize() != o.DeltaSize()+effective {
				t.Fatalf("delta %d, want %d", next.DeltaSize(), o.DeltaSize()+effective)
			}
			checkAgainstModel(t, next, model)
			o = next
		}
	}
}

// TestOverlayFunctional pins that Apply never modifies the receiver: the
// predecessor version still matches its own model after the successor is
// built and mutated further.
func TestOverlayFunctional(t *testing.T) {
	rng := randx.New(7)
	base := gen.GnpConnected(rng, 40, 0.1)
	baseModel := modelOf(base)
	o := Wrap(base)

	model1 := modelOf(o)
	v1, _, err := o.Apply(randomBatch(rng, model1, 40, 10))
	if err != nil {
		t.Fatal(err)
	}
	model2 := modelOf(v1)
	v2, _, err := v1.Apply(randomBatch(rng, model2, 40, 10))
	if err != nil {
		t.Fatal(err)
	}
	_ = v2
	checkAgainstModel(t, o, model1)
	checkAgainstModel(t, v1, model2)
	// The base CSR itself is untouched.
	if got := modelOf(base); len(got) != len(baseModel) {
		t.Fatalf("base graph mutated: %d edges, want %d", len(got), len(baseModel))
	}
}

func TestOverlayValidate(t *testing.T) {
	base := gen.Path(8)
	o := Wrap(base)
	cases := []struct {
		mut  Mutation
		want string
	}{
		{Mutation{Op: 0, U: 0, V: 1}, "unknown op"},
		{Mutation{Op: 9, U: 0, V: 1}, "unknown op"},
		{Mutation{Op: OpInsert, U: -1, V: 1}, "out of range"},
		{Mutation{Op: OpInsert, U: 0, V: 8}, "out of range"},
		{Mutation{Op: OpDelete, U: 3, V: 3}, "self-loop"},
	}
	for _, tc := range cases {
		_, _, err := o.Apply(Batch{{Op: OpInsert, U: 0, V: 2}, tc.mut})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("Apply(%+v): err %v, want %q", tc.mut, err, tc.want)
		}
	}
	// The whole batch was rejected: edge {0,2} must not have landed.
	if rowHas(o.Neighbors(0), 2) {
		t.Fatal("rejected batch partially applied")
	}
}

// TestOverlayFingerprintNeverAliasesBase is the satellite-1 regression: a
// mutated overlay must never return the base graph's cached digest.
func TestOverlayFingerprintNeverAliasesBase(t *testing.T) {
	rng := randx.New(0xfeed)
	base := gen.GnpConnected(rng, 64, 0.08)
	baseFP := base.Fingerprint()

	o := Wrap(base)
	if o.Fingerprint() != baseFP {
		t.Fatalf("unmutated wrap: fingerprint %x != base %x (same content must agree)",
			o.Fingerprint(), baseFP)
	}

	mutated, res, err := o.Apply(Batch{{Op: OpDelete, U: 0, V: base.Neighbors(0)[0]}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted != 1 {
		t.Fatalf("expected one deletion, got %+v", res)
	}
	if mutated.Fingerprint() == baseFP {
		t.Fatalf("mutated overlay aliases base fingerprint %x", baseFP)
	}
	// The digest is content-derived: the compacted CSR of the same edge set
	// agrees with the overlay.
	if got := mutated.Compact().Fingerprint(); got != mutated.Fingerprint() {
		t.Fatalf("compacted fingerprint %x != overlay %x", got, mutated.Fingerprint())
	}
	// Reverting the mutation restores the original content digest.
	reverted, _, err := mutated.Apply(Batch{{Op: OpInsert, U: 0, V: base.Neighbors(0)[0]}})
	if err != nil {
		t.Fatal(err)
	}
	if reverted.Fingerprint() != baseFP {
		t.Fatalf("reverted overlay fingerprint %x != base %x", reverted.Fingerprint(), baseFP)
	}
	// And the base's own cache was never clobbered.
	if base.Fingerprint() != baseFP {
		t.Fatal("base fingerprint changed")
	}
}

// compactCase is an overlay for TestOverlayCompact: a base graph, the
// batches applied to it in order (one Apply generation each) and the
// number of rows they patch (-1: not checked).
type compactCase struct {
	name    string
	base    *graph.Graph
	batches []Batch
	patched int
}

func ins(u, v int32) Mutation { return Mutation{Op: OpInsert, U: u, V: v} }
func del(u, v int32) Mutation { return Mutation{Op: OpDelete, U: u, V: v} }

// compactCases are the splice's edge cases, then random overlays.
func compactCases() []compactCase {
	cases := []compactCase{
		{"no patched rows", gen.Path(8), []Batch{{ins(0, 1), del(2, 5)}}, 0},
		{"vertex 0 patched", gen.Cycle(10), []Batch{{ins(0, 5)}}, 2},
		{"vertex n-1 patched", gen.Cycle(10), []Batch{{ins(9, 4)}}, 2},
		{"row deleted down to empty", gen.Path(6), []Batch{{del(1, 2), del(2, 3)}}, 3},
		{"isolated vertex gains edges", graph.FromEdges(6, [][2]int{{0, 1}, {1, 2}, {4, 5}}), []Batch{{ins(3, 0), ins(5, 3)}}, 3},
		{"every vertex patched", gen.Cycle(8), []Batch{{del(0, 1), del(2, 3), del(4, 5), del(6, 7), ins(0, 4), ins(3, 7)}}, 8},
		{"n = 2", graph.FromEdges(2, nil), []Batch{{ins(0, 1)}}, 2},
	}
	rng := randx.New(21)
	gens := compactCase{"several Apply generations", gen.Gnp(rng, 50, 0.1), nil, -1}
	model := modelOf(gens.base)
	for range 4 {
		b := randomBatch(rng, model, 50, 8)
		for _, mut := range b {
			model.apply(mut)
		}
		gens.batches = append(gens.batches, b)
	}
	cases = append(cases, gens)
	for i := range 10 {
		base := gen.Torus(8, 4+i)
		if i%2 == 1 {
			base = gen.Gnp(rng, 16+rng.Intn(48), 0.12)
		}
		c := compactCase{fmt.Sprintf("random %d", i), base, nil, -1}
		model := modelOf(base)
		for range 1 + rng.Intn(3) {
			b := randomBatch(rng, model, base.N(), 1+rng.Intn(12))
			for _, mut := range b {
				model.apply(mut)
			}
			c.batches = append(c.batches, b)
		}
		cases = append(cases, c)
	}
	return cases
}

// TestOverlayCompact pins Compact to Materialize: the same CSR arrays, M
// and fingerprint on every case, and no memory shared with the base graph
// or the overlay's rows.
func TestOverlayCompact(t *testing.T) {
	for _, tc := range compactCases() {
		t.Run(tc.name, func(t *testing.T) {
			o := Wrap(tc.base)
			model := modelOf(tc.base)
			for _, b := range tc.batches {
				var err error
				if o, _, err = o.Apply(b); err != nil {
					t.Fatal(err)
				}
				for _, mut := range b {
					model.apply(mut)
				}
			}
			if tc.patched >= 0 && len(o.rows) != tc.patched {
				t.Fatalf("%d patched rows, the case wants %d", len(o.rows), tc.patched)
			}
			flat, ref := o.Compact(), Materialize(o)
			gotOff, gotNbr := flat.CSR()
			refOff, refNbr := ref.CSR()
			if !slices.Equal(gotOff, refOff) || !slices.Equal(gotNbr, refNbr) {
				t.Fatalf("CSR differs from Materialize:\noffsets   %v\nwant      %v\nneighbors %v\nwant      %v",
					gotOff, refOff, gotNbr, refNbr)
			}
			if flat.M() != ref.M() || flat.M() != o.M() {
				t.Fatalf("M: compact %d, materialize %d, overlay %d", flat.M(), ref.M(), o.M())
			}
			if got := modelOf(flat); !maps.Equal(got, model) {
				t.Fatalf("compact edge set (%d edges) differs from the model (%d edges)", len(got), len(model))
			}
			if flat.Fingerprint() != ref.Fingerprint() || flat.Fingerprint() != o.Fingerprint() {
				t.Fatalf("fingerprint: compact %x, materialize %x, overlay %x",
					flat.Fingerprint(), ref.Fingerprint(), o.Fingerprint())
			}
			// Scribble over the compacted copy: the base and the overlay's
			// rows must not see it.
			baseRef := Materialize(tc.base)
			clear(gotOff)
			for i := range gotNbr {
				gotNbr[i] = -1
			}
			for v := range o.N() {
				if !slices.Equal(o.Neighbors(v), ref.Neighbors(v)) || !slices.Equal(tc.base.Neighbors(v), baseRef.Neighbors(v)) {
					t.Fatalf("row %d changed with the compacted copy", v)
				}
			}
		})
	}
}

func TestWrapIdempotent(t *testing.T) {
	base := gen.Cycle(12)
	o := Wrap(base)
	if Wrap(o) != o {
		t.Fatal("Wrap of an Overlay must return it unchanged")
	}
	if o.Base() != base {
		t.Fatal("Base() lost the wrapped graph")
	}
	if o.Version() != 0 || o.DeltaSize() != 0 {
		t.Fatalf("fresh wrap: version=%d delta=%d", o.Version(), o.DeltaSize())
	}
}
