package core

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"netdecomp/internal/gen"
	"netdecomp/internal/graph"
	"netdecomp/internal/randx"
)

// Focused tests of Repair's steps, each driven on a repairer built over a
// real bootstrap state.

// bootRepairer bootstraps o on g and returns a repairer for the changes
// onto the mutated graph, with that graph and the prior state.
func bootRepairer(t *testing.T, g *graph.Graph, o Options, changes []EdgeChange) (*repairer, *graph.Graph, *RepairState) {
	t.Helper()
	_, st, err := RunRepairable(g, o)
	if err != nil {
		t.Fatal(err)
	}
	g2 := applyChanges(g, changes)
	r, err := newRepairer(g2, o, st, changes)
	if err != nil {
		t.Fatal(err)
	}
	return r, g2, st
}

// TestRepairRadiusStats: the statistics radiusStats derives from a table
// and the alive-set diff equal a full scan of the new alive set's draws,
// also when every prior achiever of the maximum died (the branch that
// draws the alive set again), and unionMax is the largest floored draw
// over both runs' alive sets.
func TestRepairRadiusStats(t *testing.T) {
	rng := randx.New(0x5ad1)
	o := Options{Variant: Theorem1, K: 3, C: 4, Seed: 19, ForceComplete: true}
	g := gen.GnpConnected(rng, 150, 0.03)
	allDied := 0
	for trial := 0; trial < 40; trial++ {
		r, _, _ := bootRepairer(t, g, o, nil)
		phase := 1 + rng.Intn(len(r.tables)-1)
		pf := r.tables[phase]
		r.startPhase(phase)
		radius := func(v int) float64 { return phaseRadius(r.o.Seed, phase, int32(v), r.beta) }

		// The prior alive set is the table's rows. The new one loses a
		// quarter of them, and in odd trials every achiever of the maximum,
		// and gains a quarter of the vertices the prior run had clustered.
		// The new run's join phases say which: −1 alive, phase−1 dead.
		killMax := trial%2 == 1
		r.diffList = r.diffList[:0]
		for v := range g.N() {
			_, wasAlive := pf.lookup(int32(v))
			alive := wasAlive
			if wasAlive && (rng.Intn(4) == 0 || killMax && int(math.Floor(radius(v))) == pf.maxFl) {
				alive = false
			}
			if !wasAlive && rng.Intn(4) == 0 {
				alive = true
			}
			r.next.joinPhase[v] = int32(phase - 1)
			if alive {
				r.next.joinPhase[v] = -1
			}
			if alive != wasAlive {
				r.diffList = append(r.diffList, int32(v))
			}
		}
		if killMax {
			allDied++
		}

		var want radiusStats
		wantUnion := 0
		for v := range g.N() {
			rad := radius(v)
			fl := int(math.Floor(rad))
			if r.unionAlive(int32(v), phase) {
				wantUnion = max(wantUnion, fl)
			}
			if !r.aliveNew(int32(v)) {
				continue
			}
			if rad >= float64(r.sched.k)+1 {
				want.trunc++
			}
			if fl > want.maxFl {
				want.maxFl, want.maxCnt = fl, 1
			} else if fl == want.maxFl {
				want.maxCnt++
			}
		}
		got, unionMax := r.radiusStats()
		if got != want || unionMax != wantUnion {
			t.Fatalf("trial %d phase %d (all achievers died: %v): stats %+v unionMax %d, rescan %+v unionMax %d",
				trial, phase, killMax, got, unionMax, want, wantUnion)
		}
	}
	if allDied == 0 {
		t.Fatal("no trial killed every achiever of the maximum")
	}
}

// TestRepairCertify: at every phase the new run settles by delta
// simulation, the certified states of the region's new-alive vertices
// equal a simulation of the whole phase on the new graph and alive set;
// the converged region certifies again, and a tampered shell final fails
// the certificate. Between phases the repairer advances along the new
// run's own joins, read off its trace.
func TestRepairCertify(t *testing.T) {
	defer func(old float64) { maxRegionFraction = old }(maxRegionFraction)
	maxRegionFraction = 1
	rng := randx.New(0xce27)
	certified, tampered := 0, 0
	for _, o := range repairOpts {
		g := gen.GnpConnected(rng, 150, 0.03)
		changes := randomChanges(rng, g, 1+rng.Intn(8))
		r, g2, _ := bootRepairer(t, g, o, changes)
		to := o
		to.CaptureTrace = true
		want, err := Run(g2, to)
		if err != nil {
			t.Fatal(err)
		}
		for phase := 0; phase < want.PhasesUsed; phase++ {
			r.startPhase(phase)
			r.sources()
			_, unionMax := r.radiusStats()
			if phase < len(r.tables) && len(r.srcList) > 0 && !r.truncated(unionMax) {
				if cause, reason := r.certify(unionMax); cause != "" {
					t.Fatalf("%v phase %d: %s", o.Variant, phase, reason)
				}
				alive := r.aliveList()
				mask := make([]bool, g2.N())
				for _, v := range alive {
					mask[v] = true
				}
				whole := newPhaseRunner(g2)
				drawRadiiSparse(r.o.Seed, phase, alive, r.beta, whole.radius)
				rounds := r.sched.k
				if r.o.RadiusMode == RadiusExact {
					rounds = maxFlooredRadiusSparse(alive, whole.radius)
				}
				whole.runSparse(mask, alive, rounds, nil)
				for _, v := range r.trusted {
					if r.runner.state[v] != whole.state[v] {
						t.Fatalf("%v phase %d vertex %d: certified %+v, whole phase %+v", o.Variant, phase, v, r.runner.state[v], whole.state[v])
					}
				}
				certified++

				pf := r.tables[phase]
				r.simulate(pf, r.rList, unionMax)
				if len(r.failList) > 0 {
					t.Fatalf("%v phase %d: converged region failed again at %v", o.Variant, phase, r.failList)
				}
				// A tampered value needs a round to travel.
				if w, ok := shellVertex(r, g2); ok && unionMax > 0 {
					saved, _ := pf.lookup(w)
					pf.set(w, topTwo{c1: w, v1: 100, c2: none})
					r.simulate(pf, r.rList, unionMax)
					if len(r.failList) == 0 {
						t.Fatalf("%v phase %d: tampered final of shell vertex %d certified", o.Variant, phase, w)
					}
					pf.set(w, saved)
					tampered++
				}
			}
			// Every vertex alive in either run takes its traced outcome and
			// stands in R, so advance sees every divergence.
			clearMask(r.rMask, r.rList)
			r.rList = r.rList[:0]
			for v := range int32(g2.N()) {
				if !r.unionAlive(v, phase) {
					continue
				}
				r.rList = append(r.rList, v)
				if c := want.Trace.Center[phase][v]; c != none {
					r.next.joinPhase[v], r.next.center[v] = int32(phase), int32(c)
				} else if r.next.joinPhase[v] == int32(phase) {
					r.next.joinPhase[v], r.next.center[v] = -1, none
				}
			}
			r.advance()
		}
	}
	t.Logf("%d certified phases, %d tampered", certified, tampered)
	if certified < 20 || tampered < 20 {
		t.Fatalf("%d certified phases and %d tampered; want at least 20 of each", certified, tampered)
	}
}

// shellVertex returns a vertex of the certified region's shell: alive in
// the new run, outside R, next to one of R's new-alive vertices.
func shellVertex(r *repairer, g graph.Interface) (int32, bool) {
	for _, v := range r.trusted {
		for _, w := range g.Neighbors(int(v)) {
			if r.aliveNew(w) && !r.rMask[w] {
				return w, true
			}
		}
	}
	return 0, false
}

// randomOutcome settles the repairer's phase as a re-simulated region of
// its own choosing would: R is the divergence list plus one in share of
// the other vertices alive in either run (all of them past the prior
// run's last phase), R's new-alive part is trusted, and each trusted
// vertex gets a final state with a random join decision and center. A
// prior joiner of the phase rejoins with probability 3/4 and keeps its
// prior center with probability 3/4; any other trusted vertex joins at a
// random center with probability 1/10 (1/2 past the prior run's last
// phase). Outside R every vertex repeats the prior run, as Repair's steps
// assume. compose then records the outcome.
func randomOutcome(rng *randx.SplitMix64, r *repairer, share int) {
	p := int32(r.phase)
	past := r.phase >= len(r.tables)
	r.rList = append(r.rList[:0], r.diffList...)
	for _, v := range r.rList {
		r.rMask[v] = true
	}
	for v := range int32(r.n) {
		if !r.rMask[v] && r.unionAlive(v, r.phase) && (past || rng.Intn(share) == 0) {
			r.rMask[v] = true
			r.rList = append(r.rList, v)
		}
	}
	others := 10
	if past {
		others = 2
	}
	r.trusted = r.trusted[:0]
	for _, v := range r.rList {
		if !r.aliveNew(v) {
			continue
		}
		r.trusted = append(r.trusted, v)
		s := topTwo{c1: none, c2: none}
		switch {
		case r.prior.joinPhase[v] == p:
			if rng.Intn(4) != 0 {
				s.c1, s.v1 = r.prior.center[v], 2
				if rng.Intn(4) == 0 {
					s.c1 = int32(rng.Intn(r.n))
				}
			}
		case rng.Intn(others) == 0:
			s.c1, s.v1 = int32(rng.Intn(r.n)), 2
		}
		r.runner.state[v] = s
	}
	r.compose()
}

// TestRepairPatchClusters: whatever outcome a region decides, the clusters
// patchClusters appends, copied or rebuilt, equal buildClusters' on the
// new run's join sets, phase after phase: members, centers, phases,
// colors, order, ClusterOf and the center-violation count; the state it
// hands on carries each phase's cluster range and violation count. Some
// copied clusters must have moved to a new index, and some be rebuilt.
func TestRepairPatchClusters(t *testing.T) {
	rng := randx.New(0xc105)
	adopted, shifted, rebuilt := 0, 0, 0
	for trial := range uint64(20) {
		o := Options{Variant: Theorem1, K: 4, C: 4, Seed: trial, ForceComplete: true}
		g := gen.GnpConnected(rng, 150, 0.03)
		r, g2, st := bootRepairer(t, g, o, randomChanges(rng, g, 1+rng.Intn(8)))
		n := g2.N()
		ref := newDecomposition(n, r.o, r.sched)
		centers := make([]int, n)
		for phase := 0; r.alive > 0; phase++ {
			if phase > 1000 {
				t.Fatal("new run never exhausted")
			}
			r.startPhase(phase)
			randomOutcome(rng, r, 8)
			var joined []int
			for v := range n {
				if r.next.joinPhase[v] == int32(phase) {
					joined = append(joined, v)
					centers[v] = int(r.next.center[v])
				}
			}
			if len(joined) > 0 {
				ref.buildClusters(g2, joined, centers, phase, ref.Colors)
				ref.Colors++
			}
			r.patchClusters()
			r.advance()
		}
		// No phase was re-simulated, so none past the prior run's last has
		// a table; finish cuts the list to the phases run.
		for len(r.tables) < r.dec.PhasesUsed {
			r.tables = append(r.tables, nil)
		}
		got, next, _, err := r.finish()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Clusters, ref.Clusters) || got.Colors != ref.Colors || got.CenterViolations != ref.CenterViolations {
			t.Fatalf("trial %d: patched clusters differ from buildClusters'\n got %+v\nwant %+v", trial, got.Clusters, ref.Clusters)
		}
		if !slices.Equal(got.ClusterOf, ref.ClusterOf) {
			t.Fatalf("trial %d: ClusterOf %v, buildClusters gives %v", trial, got.ClusterOf, ref.ClusterOf)
		}
		if len(next.offsets) != got.PhasesUsed+1 || len(next.violations) != got.PhasesUsed || next.offsets[got.PhasesUsed] != len(got.Clusters) {
			t.Fatalf("trial %d: %d offsets and %d violation counts for %d phases", trial, len(next.offsets), len(next.violations), got.PhasesUsed)
		}
		for p := range got.PhasesUsed {
			mixed := 0
			for _, c := range got.Clusters[next.offsets[p]:next.offsets[p+1]] {
				if c.Phase != p {
					t.Fatalf("trial %d: phase %d range holds a cluster of phase %d", trial, p, c.Phase)
				}
				if mixedCenters(c.Members, next.center) {
					mixed++
				}
			}
			if mixed != next.violations[p] {
				t.Fatalf("trial %d phase %d: %d violations recorded, %d counted", trial, p, next.violations[p], mixed)
			}
		}
		prior := map[*int]int{}
		for i, c := range st.clusters {
			prior[&c.Members[0]] = i
		}
		for i, c := range got.Clusters {
			switch pi, ok := prior[&c.Members[0]]; {
			case !ok:
				rebuilt++
			case pi != i:
				shifted++
				fallthrough
			default:
				adopted++
			}
		}
	}
	t.Logf("%d clusters copied (%d to a new index), %d rebuilt", adopted, shifted, rebuilt)
	if shifted == 0 || rebuilt == 0 {
		t.Fatalf("%d copied clusters moved and %d rebuilt; want some of each", shifted, rebuilt)
	}
}

// TestRepairAdvance: whatever outcome a region decides, after compose and
// advance the new run's join phases describe exactly its alive set (kept
// by the test, with every vertex outside R repeating the prior run), each
// joiner's phase and center are recorded, the divergence list is exactly
// the vertices whose survival the runs disagree on, without duplicates,
// and the kept changes are those whose endpoints are both alive in either
// run.
func TestRepairAdvance(t *testing.T) {
	rng := randx.New(0xad7a)
	for trial := range uint64(10) {
		o := Options{Variant: Theorem1, K: 4, C: 4, Seed: trial, ForceComplete: true}
		g := gen.GnpConnected(rng, 150, 0.03)
		changes := randomChanges(rng, g, 1+rng.Intn(16))
		r, _, st := bootRepairer(t, g, o, changes)
		n := g.N()
		alive, left := make([]bool, n), n
		for v := range alive {
			alive[v] = true
		}
		trusted := make([]bool, n)
		for phase := 0; left > 0; phase++ {
			if phase > 1000 {
				t.Fatal("new run never exhausted")
			}
			r.startPhase(phase)
			randomOutcome(rng, r, 4)
			for _, v := range r.trusted {
				trusted[v] = true
			}
			for v := range int32(n) {
				if !alive[v] {
					continue
				}
				s := &r.runner.state[v]
				joins, center := st.joinPhase[v] == int32(phase), st.center[v]
				if trusted[v] {
					joins, center = s.joins(), s.c1
				}
				if joins {
					alive[v] = false
					left--
					if r.next.joinPhase[v] != int32(phase) || r.next.center[v] != center {
						t.Fatalf("trial %d phase %d: joiner %d recorded at phase %d center %d, want center %d", trial, phase, v, r.next.joinPhase[v], r.next.center[v], center)
					}
				}
			}
			clear(trusted)
			r.advance()

			next := phase + 1
			var wantDiff []int32
			for v := range int32(n) {
				if aliveAt(r.next.joinPhase[v], next) != alive[v] {
					t.Fatalf("trial %d phase %d: vertex %d has join phase %d, alive %v", trial, phase, v, r.next.joinPhase[v], alive[v])
				}
				if aliveAt(st.joinPhase[v], next) != alive[v] {
					wantDiff = append(wantDiff, v)
				}
			}
			gotDiff := slices.Sorted(slices.Values(r.diffList))
			if !slices.Equal(gotDiff, wantDiff) {
				t.Fatalf("trial %d phase %d: divergence list %v, want %v", trial, phase, gotDiff, wantDiff)
			}
			var wantChg []EdgeChange
			for _, c := range changes {
				if r.unionAlive(c.U, next) && r.unionAlive(c.V, next) {
					wantChg = append(wantChg, c)
				}
			}
			if !slices.Equal(r.chg, wantChg) {
				t.Fatalf("trial %d phase %d: kept changes %v, want %v", trial, phase, r.chg, wantChg)
			}
		}
	}
}
