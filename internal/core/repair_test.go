package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"netdecomp/internal/gen"
	"netdecomp/internal/graph"
	"netdecomp/internal/randx"
)

// applyChanges materializes a new CSR graph = g with the changes applied.
// The reference mutation path for the repair tests — no overlay machinery,
// just an edge-set rebuild.
func applyChanges(g *graph.Graph, changes []EdgeChange) *graph.Graph {
	edges := make(map[[2]int32]bool)
	for u, v := range graph.EdgeSeq(g) {
		edges[[2]int32{int32(u), int32(v)}] = true
	}
	for _, ch := range changes {
		k := [2]int32{ch.U, ch.V}
		if k[0] > k[1] {
			k[0], k[1] = k[1], k[0]
		}
		if ch.Insert {
			edges[k] = true
		} else {
			delete(edges, k)
		}
	}
	b := graph.NewBuilder(g.N())
	for k := range edges {
		b.AddEdge(int(k[0]), int(k[1]))
	}
	return b.Build()
}

// randomChanges draws effective mutations against g: deletions of present
// edges and insertions of absent ones, never no-ops.
func randomChanges(rng *randx.SplitMix64, g *graph.Graph, count int) []EdgeChange {
	present := make(map[[2]int32]bool)
	for u, v := range graph.EdgeSeq(g) {
		present[[2]int32{int32(u), int32(v)}] = true
	}
	var flat [][2]int32
	for k := range present {
		flat = append(flat, k)
	}
	// Map iteration order is random at runtime but the test must be
	// reproducible: sort, then shuffle with the seeded rng.
	for i := 1; i < len(flat); i++ {
		for j := i; j > 0 && less(flat[j], flat[j-1]); j-- {
			flat[j], flat[j-1] = flat[j-1], flat[j]
		}
	}
	for i := len(flat) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		flat[i], flat[j] = flat[j], flat[i]
	}

	n := g.N()
	changes := make([]EdgeChange, 0, count)
	for len(changes) < count {
		if len(flat) > 0 && rng.Intn(2) == 0 {
			e := flat[len(flat)-1]
			flat = flat[:len(flat)-1]
			changes = append(changes, EdgeChange{U: e[0], V: e[1], Insert: false})
			delete(present, e)
			continue
		}
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u == v {
			continue
		}
		k := [2]int32{u, v}
		if k[0] > k[1] {
			k[0], k[1] = k[1], k[0]
		}
		if present[k] {
			continue
		}
		present[k] = true
		changes = append(changes, EdgeChange{U: u, V: v, Insert: true})
	}
	return changes
}

func less(a, b [2]int32) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

// strippedDec zeroes the execution-account fields a repair is allowed to
// differ on. Everything else — clusters, colors, phase history, survivor
// counts, truncation events — must be bit-identical.
func strippedDec(d *Decomposition) Decomposition {
	cp := *d
	cp.Metrics.Rounds, cp.Metrics.Messages, cp.Metrics.Words, cp.Metrics.MaxMessageWords = 0, 0, 0, 0
	cp.Trace = nil
	return cp
}

func requireRepairEquivalent(t *testing.T, got, want *Decomposition, msg string) {
	t.Helper()
	g, w := strippedDec(got), strippedDec(want)
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: repaired decomposition differs from from-scratch run\n got: %+v\nwant: %+v", msg, g, w)
	}
}

// repairOpts covers every variant, both budget modes and both radius modes.
var repairOpts = []Options{
	{Variant: Theorem1, K: 4, C: 4, Seed: 11, ForceComplete: true},
	{Variant: Theorem1, K: 4, C: 4, Seed: 11},
	{Variant: Theorem2, K: 4, C: 8, Seed: 23, ForceComplete: true},
	{Variant: Theorem3, K: 4, C: 4, Lambda: 2, Seed: 31, ForceComplete: true},
	{Variant: Theorem1, K: 4, C: 4, Seed: 47, RadiusMode: RadiusExact, ForceComplete: true},
}

// TestRepairEquivalence is the core property: for every variant and radius
// mode, Repair on (mutated graph, prior state, changes) equals RunWith from
// scratch on the mutated graph, across chained mutation batches.
func TestRepairEquivalence(t *testing.T) {
	rng := randx.New(0x5eed)
	for _, o := range repairOpts {
		g := gen.GnpConnected(rng, 150, 0.03)
		dec, st, err := RunRepairable(g, o)
		if err != nil {
			t.Fatalf("%v: RunRepairable: %v", o.Variant, err)
		}
		ref, err := Run(g, o)
		if err != nil {
			t.Fatal(err)
		}
		requireRepairEquivalent(t, dec, ref, "bootstrap")

		for round := 0; round < 3; round++ {
			changes := randomChanges(rng, g, 1+rng.Intn(8))
			g2 := applyChanges(g, changes)
			got, st2, stats, err := Repair(g2, o, st, changes)
			if err != nil {
				t.Fatalf("variant %v round %d: %v", o.Variant, round, err)
			}
			want, err := Run(g2, o)
			if err != nil {
				t.Fatal(err)
			}
			requireRepairEquivalent(t, got, want, "repair")
			if stats.TotalClusters != len(got.Clusters) {
				t.Fatalf("TotalClusters=%d, clusters=%d", stats.TotalClusters, len(got.Clusters))
			}
			if stats.RepairedClusters > stats.TotalClusters {
				t.Fatalf("RepairedClusters %d > TotalClusters %d", stats.RepairedClusters, stats.TotalClusters)
			}
			g, st = g2, st2
		}
	}
}

// TestRepairStateChaining pins that the state returned by Repair supports
// further repairs indefinitely (state is self-renewing, not single-shot).
func TestRepairStateChaining(t *testing.T) {
	rng := randx.New(0xcafe)
	o := Options{Variant: Theorem1, K: 4, C: 4, Seed: 7, ForceComplete: true}
	g := gen.GnpConnected(rng, 120, 0.04)
	_, st, err := RunRepairable(g, o)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 8; round++ {
		changes := randomChanges(rng, g, 2)
		g2 := applyChanges(g, changes)
		got, st2, _, err := Repair(g2, o, st, changes)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		want, err := Run(g2, o)
		if err != nil {
			t.Fatal(err)
		}
		requireRepairEquivalent(t, got, want, "chained repair")
		g, st = g2, st2
	}
}

// requireSameState checks that a state handed on by Repair holds exactly a
// fresh bootstrap's joins, centers, per-phase cluster ranges and violation
// counts, and per-phase tables (rows, finals and radius statistics), and
// that every table's rows index consistently. It returns the number of
// tables compared.
func requireSameState(t *testing.T, got, want *RepairState, msg string) int {
	t.Helper()
	if !slices.Equal(got.joinPhase, want.joinPhase) || !slices.Equal(got.center, want.center) {
		t.Fatalf("%s: joins or centers differ from a fresh bootstrap's", msg)
	}
	if !slices.Equal(got.offsets, want.offsets) || !slices.Equal(got.violations, want.violations) {
		t.Fatalf("%s: cluster offsets %v and violations %v, fresh bootstrap %v and %v", msg, got.offsets, got.violations, want.offsets, want.violations)
	}
	if len(got.phases) != len(want.phases) {
		t.Fatalf("%s: %d tables, fresh bootstrap has %d", msg, len(got.phases), len(want.phases))
	}
	for p, pf := range got.phases {
		wf := want.phases[p]
		if pf.trunc != wf.trunc || pf.maxFl != wf.maxFl || pf.maxCnt != wf.maxCnt {
			t.Fatalf("%s: phase %d radius stats (%d,%d,%d), fresh (%d,%d,%d)", msg, p,
				pf.trunc, pf.maxFl, pf.maxCnt, wf.trunc, wf.maxFl, wf.maxCnt)
		}
		if len(pf.verts) != len(wf.verts) || len(pf.final) != len(pf.verts) {
			t.Fatalf("%s: phase %d has %d rows (%d finals), fresh has %d", msg, p, len(pf.verts), len(pf.final), len(wf.verts))
		}
		for i, v := range pf.verts {
			if pf.pos[v] != int32(i) {
				t.Fatalf("%s: phase %d row %d holds vertex %d indexed at %d", msg, p, i, v, pf.pos[v])
			}
		}
		for v := range int32(got.n) {
			gs, gok := pf.lookup(v)
			ws, wok := wf.lookup(v)
			if gok != wok || gs != ws {
				t.Fatalf("%s: phase %d vertex %d final %+v (%v), fresh %+v (%v)", msg, p, v, gs, gok, ws, wok)
			}
		}
	}
	return len(got.phases)
}

// TestRepairHandsOnFreshTables: the next repair trusts the tables a repair
// hands on, so across chained repairs they must equal a fresh bootstrap's
// on the mutated graph — not only the partition must.
func TestRepairHandsOnFreshTables(t *testing.T) {
	defer func(old float64) { maxRegionFraction = old }(maxRegionFraction)
	maxRegionFraction = 1
	rng := randx.New(0x7ab1e)
	tables, fellBack := 0, 0
	for _, o := range repairOpts {
		for _, g := range []*graph.Graph{gen.GnpConnected(rng, 150, 0.03), gen.Torus(32, 32)} {
			_, st, err := RunRepairable(g, o)
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 12; round++ {
				changes := randomChanges(rng, g, 1+rng.Intn(8))
				g2 := applyChanges(g, changes)
				_, st2, stats, err := Repair(g2, o, st, changes)
				if err != nil {
					t.Fatalf("variant %v n=%d round %d: %v", o.Variant, g.N(), round, err)
				}
				if stats.FellBack {
					fellBack++
				}
				_, fresh, err := RunRepairable(g2, o)
				if err != nil {
					t.Fatal(err)
				}
				tables += requireSameState(t, st2, fresh, fmt.Sprintf("variant %v n=%d round %d", o.Variant, g.N(), round))
				g, st = g2, st2
			}
		}
	}
	t.Logf("compared %d tables; %d of %d repairs fell back", tables, fellBack, 2*12*len(repairOpts))
}

// balancedChanges draws size effective mutations against g: half deletions
// of present edges, half insertions of absent ones.
func balancedChanges(rng *randx.SplitMix64, g *graph.Graph, size int) []EdgeChange {
	seen := map[[2]int32]bool{}
	changes := make([]EdgeChange, 0, size)
	for len(changes) < size {
		u := int32(rng.Intn(g.N()))
		var v int32
		insert := len(changes) >= size/2
		if insert {
			v = int32(rng.Intn(g.N()))
			if u == v || slices.Contains(g.Neighbors(int(u)), v) {
				continue
			}
		} else {
			row := g.Neighbors(int(u))
			v = row[rng.Intn(len(row))]
		}
		k := [2]int32{min(u, v), max(u, v)}
		if !seen[k] {
			seen[k] = true
			changes = append(changes, EdgeChange{U: u, V: v, Insert: insert})
		}
	}
	return changes
}

// TestRepairTorusRuns chains repairs on a 64×64 torus, where most of a
// phase's clusters are clean and sit in long runs between dirty ones:
// balanced batches of 0.1% and 1% of the edges, and one of 10% that trips
// the region cap. Every result equals Run and every handed-on state a
// fresh bootstrap's, and the repairs both copy clusters to a new index and
// rebuild others.
func TestRepairTorusRuns(t *testing.T) {
	g := gen.Torus(64, 64)
	o := Options{Seed: 11, ForceComplete: true}
	rng := randx.New(0x7025)
	_, st, err := RunRepairable(g, o)
	if err != nil {
		t.Fatal(err)
	}
	m := graph.EdgeCount(g)
	shifted, rebuilt := 0, 0
	for i, size := range []int{m / 1000, m / 100, m / 1000, m / 1000, m / 100, m / 10, m / 1000, m / 100} {
		changes := balancedChanges(rng, g, size)
		g2 := applyChanges(g, changes)
		prior := map[*int]int{}
		for ci, c := range st.clusters {
			prior[&c.Members[0]] = ci
		}
		got, st2, stats, err := Repair(g2, o, st, changes)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("update %d: %d changes, damaged %d, region %d, fell back %v (%s)", i, size, stats.DamagedVertices, stats.RegionVertices, stats.FellBack, stats.FallbackReason)
		if capped := size == m/10; stats.FellBack != capped || capped && stats.FallbackCause != CauseRegionCap {
			t.Fatalf("update %d of %d changes: fell back %v (%q)", i, size, stats.FellBack, stats.FallbackCause)
		}
		want, err := Run(g2, o)
		if err != nil {
			t.Fatal(err)
		}
		requireRepairEquivalent(t, got, want, fmt.Sprintf("update %d", i))
		_, fresh, err := RunRepairable(g2, o)
		if err != nil {
			t.Fatal(err)
		}
		requireSameState(t, st2, fresh, fmt.Sprintf("update %d", i))
		for ci, c := range got.Clusters {
			switch pi, ok := prior[&c.Members[0]]; {
			case !ok:
				rebuilt++
			case pi != ci:
				shifted++
			}
		}
		g, st = g2, st2
	}
	t.Logf("%d clusters copied to a new index, %d rebuilt", shifted, rebuilt)
	if shifted == 0 || rebuilt == 0 {
		t.Fatalf("%d clusters copied to a new index and %d rebuilt; want some of each", shifted, rebuilt)
	}
}

// TestRepairConsumesState: Repair moves the tables out of the state it is
// given, so passing that state again recomputes — and is still exact.
func TestRepairConsumesState(t *testing.T) {
	defer func(old float64) { maxRegionFraction = old }(maxRegionFraction)
	maxRegionFraction = 1
	rng := randx.New(6)
	o := Options{Variant: Theorem1, K: 4, C: 4, Seed: 3, ForceComplete: true}
	g := gen.GnpConnected(rng, 100, 0.05)
	_, st, err := RunRepairable(g, o)
	if err != nil {
		t.Fatal(err)
	}
	changes := randomChanges(rng, g, 3)
	g2 := applyChanges(g, changes)
	if _, _, stats, err := Repair(g2, o, st, changes); err != nil || stats.FellBack {
		t.Fatalf("first repair: err %v, stats %+v", err, stats)
	}
	got, _, stats, err := Repair(g2, o, st, changes)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.FellBack {
		t.Fatalf("second repair from a consumed state did not fall back: %+v", stats)
	}
	want, err := Run(g2, o)
	if err != nil {
		t.Fatal(err)
	}
	requireRepairEquivalent(t, got, want, "consumed-state repair")
}

// TestRepairNilStateFallsBack: with no prior state the repair degrades to
// a full recompute and reports why.
func TestRepairNilStateFallsBack(t *testing.T) {
	rng := randx.New(1)
	o := Options{Variant: Theorem1, K: 3, C: 4, Seed: 5, ForceComplete: true}
	g := gen.GnpConnected(rng, 60, 0.06)
	dec, st, stats, err := Repair(g, o, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.FellBack || stats.FallbackReason == "" {
		t.Fatalf("expected fallback, got %+v", stats)
	}
	if st == nil {
		t.Fatal("fallback must return fresh repair state")
	}
	want, err := Run(g, o)
	if err != nil {
		t.Fatal(err)
	}
	requireRepairEquivalent(t, dec, want, "nil-state fallback")
}

// TestRepairDamageFractionFallback: a region cap below any real damage
// forces the fallback, which still produces the exact answer.
func TestRepairDamageFractionFallback(t *testing.T) {
	defer func(old float64) { maxRegionFraction = old }(maxRegionFraction)
	maxRegionFraction = 1e-9
	rng := randx.New(2)
	o := Options{Variant: Theorem1, K: 4, C: 4, Seed: 9, ForceComplete: true}
	g := gen.GnpConnected(rng, 100, 0.05)
	_, st, err := RunRepairable(g, o)
	if err != nil {
		t.Fatal(err)
	}
	changes := randomChanges(rng, g, 10)
	g2 := applyChanges(g, changes)
	got, _, stats, err := Repair(g2, o, st, changes)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.FellBack {
		t.Fatalf("expected damage-fraction fallback, got %+v", stats)
	}
	want, err := Run(g2, o)
	if err != nil {
		t.Fatal(err)
	}
	requireRepairEquivalent(t, got, want, "damage-fraction fallback")
}

// TestRepairValidatesChanges: malformed changes error out rather than
// corrupting state.
func TestRepairValidatesChanges(t *testing.T) {
	rng := randx.New(3)
	o := Options{Variant: Theorem1, K: 3, C: 4, Seed: 1, ForceComplete: true}
	g := gen.GnpConnected(rng, 40, 0.08)
	_, st, err := RunRepairable(g, o)
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]EdgeChange{
		{{U: -1, V: 2, Insert: true}},
		{{U: 0, V: 40, Insert: true}},
		{{U: 5, V: 5, Insert: false}},
	}
	for _, changes := range bad {
		if _, _, _, err := Repair(g, o, st, changes); err == nil {
			t.Fatalf("Repair accepted malformed changes %+v", changes)
		}
	}
}

// TestRunRepairableStripsTrace: the returned decomposition is exactly a
// plain run's, field for field — no trace when CaptureTrace is unset, and
// Run's own trace when it is set.
func TestRunRepairableStripsTrace(t *testing.T) {
	rng := randx.New(5)
	g := gen.GnpConnected(rng, 50, 0.08)
	for _, capture := range []bool{false, true} {
		o := Options{Variant: Theorem1, K: 3, C: 4, Seed: 1, ForceComplete: true, CaptureTrace: capture}
		dec, st, err := RunRepairable(g, o)
		if err != nil {
			t.Fatal(err)
		}
		if st == nil {
			t.Fatal("nil repair state")
		}
		if (dec.Trace != nil) != capture {
			t.Fatalf("CaptureTrace=%v: trace attached %v", capture, dec.Trace != nil)
		}
		want, err := Run(g, o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(dec, want) {
			t.Fatalf("CaptureTrace=%v: RunRepairable differs from Run", capture)
		}
	}
}

// TestRepairResimulatedPhases chains repairs under options where radius
// truncation is common (C near its minimum with K = 3, and Theorem 3 with
// λ = 2), each chain under its own seed. Under K = 3 every even round's
// batch is picked, among up to 32 random draws, to change the run's
// length; every odd round undoes the batch before it, so one repair of
// each such pair has a new run that outlasts the old one. Both kinds of
// whole-phase re-simulation, a phase truncated in either run and a phase
// past the prior run's last, so run many times. Every repair must equal
// Run.
func TestRepairResimulatedPhases(t *testing.T) {
	defer func(old float64) { maxRegionFraction = old }(maxRegionFraction)
	maxRegionFraction = 1
	rng := randx.New(0x7e51)
	cases := []struct {
		o     Options
		draws int // random batches an even round may draw
	}{
		{Options{Variant: Theorem1, K: 3, C: 3.2, ForceComplete: true}, 32},
		{Options{Variant: Theorem3, C: 3.2, Lambda: 2, ForceComplete: true}, 1},
	}
	truncated, outlasted, repairs := 0, 0, 0
	for _, tc := range cases {
		o := tc.o
		for seed := range uint64(16) {
			o.Seed = seed
			g := gen.GnpConnected(rng, 120, 0.04)
			prior, st, err := RunRepairable(g, o)
			if err != nil {
				t.Fatal(err)
			}
			var changes []EdgeChange
			for round := 0; round < 6; round++ {
				var g2 *graph.Graph
				var want *Decomposition
				for draw := 0; draw < tc.draws; draw++ {
					if round%2 == 1 {
						for i, c := range changes {
							changes[i].Insert = !c.Insert
						}
					} else {
						changes = randomChanges(rng, g, 1+rng.Intn(16))
					}
					g2 = applyChanges(g, changes)
					if want, err = Run(g2, o); err != nil {
						t.Fatal(err)
					}
					if round%2 == 1 || want.PhasesUsed != prior.PhasesUsed {
						break
					}
				}
				got, st2, stats, err := Repair(g2, o, st, changes)
				if err != nil {
					t.Fatalf("variant %v seed %d round %d: %v", o.Variant, seed, round, err)
				}
				if stats.FellBack {
					t.Fatalf("variant %v seed %d round %d fell back: %s", o.Variant, seed, round, stats.FallbackReason)
				}
				requireRepairEquivalent(t, got, want, fmt.Sprintf("variant %v seed %d round %d", o.Variant, seed, round))
				if prior.TruncationEvents > 0 || want.TruncationEvents > 0 {
					truncated++
				}
				if want.PhasesUsed > prior.PhasesUsed {
					outlasted++
				}
				repairs++
				g, st, prior = g2, st2, want
			}
		}
	}
	t.Logf("%d repairs: %d with truncation in either run, %d outlasting the prior run", repairs, truncated, outlasted)
	if truncated < 30 || outlasted < 25 {
		t.Fatalf("%d repairs with truncation and %d outlasting the prior run; want at least 30 and 25", truncated, outlasted)
	}
}
