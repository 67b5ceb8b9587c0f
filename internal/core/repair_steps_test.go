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
		killMax := trial%2 == 1
		r.aliveNewList, r.diffList = r.aliveNewList[:0], r.diffList[:0]
		for v := range g.N() {
			_, wasAlive := pf.lookup(int32(v))
			alive := wasAlive
			if wasAlive && (rng.Intn(4) == 0 || killMax && int(math.Floor(radius(v))) == pf.maxFl) {
				alive = false
			}
			if !wasAlive && rng.Intn(4) == 0 {
				alive = true
			}
			r.aliveOld[v], r.aliveNew[v] = wasAlive, alive
			if alive {
				r.aliveNewList = append(r.aliveNewList, int32(v))
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
			if r.aliveOld[v] || r.aliveNew[v] {
				wantUnion = max(wantUnion, fl)
			}
			if !r.aliveNew[v] {
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
		got, unionMax := r.radiusStats(phase)
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
// run's own join sets, read off its trace.
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
			_, unionMax := r.radiusStats(phase)
			if phase < len(r.tables) && len(r.srcList) > 0 && !r.truncated(unionMax) {
				if reason := r.certify(phase, unionMax); reason != "" {
					t.Fatalf("%v phase %d: %s", o.Variant, phase, reason)
				}
				whole := newPhaseRunner(g2)
				drawRadiiSparse(r.o.Seed, phase, r.aliveNewList, r.beta, whole.radius)
				rounds := r.sched.k
				if r.o.RadiusMode == RadiusExact {
					rounds = maxFlooredRadiusSparse(r.aliveNewList, whole.radius)
				}
				whole.runSparse(r.aliveNew, r.aliveNewList, rounds, nil)
				for _, v := range r.rList {
					if r.aliveNew[v] && r.runner.state[v] != whole.state[v] {
						t.Fatalf("%v phase %d vertex %d: certified %+v, whole phase %+v", o.Variant, phase, v, r.runner.state[v], whole.state[v])
					}
				}
				certified++

				pf := r.tables[phase]
				r.simulate(pf, phase, r.rList, unionMax)
				if len(r.failList) > 0 {
					t.Fatalf("%v phase %d: converged region failed again at %v", o.Variant, phase, r.failList)
				}
				// A tampered value needs a round to travel.
				if w, ok := shellVertex(r, g2); ok && unionMax > 0 {
					saved, _ := pf.lookup(w)
					pf.set(w, topTwo{c1: int(w), v1: 100, c2: none})
					r.simulate(pf, phase, r.rList, unionMax)
					if len(r.failList) == 0 {
						t.Fatalf("%v phase %d: tampered final of shell vertex %d certified", o.Variant, phase, w)
					}
					pf.set(w, saved)
					tampered++
				}
				clearMask(r.rMask, r.rList)
			}
			var joined []int
			for _, v := range r.aliveNewList {
				if c := want.Trace.Center[phase][v]; c != none {
					joined = append(joined, int(v))
					r.centers[v] = c
				}
			}
			r.advance(joined, phase)
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
	for _, v := range r.rList {
		if !r.aliveNew[v] {
			continue
		}
		for _, w := range g.Neighbors(int(v)) {
			if r.aliveNew[w] && !r.rMask[w] {
				return w, true
			}
		}
	}
	return 0, false
}

// TestRepairPatchClusters: for any join sets, the clusters patchClusters
// appends, adopted or rebuilt, equal buildClusters' on the same sets,
// phase after phase: members, centers, phases, colors, order, ClusterOf
// and the center-violation count.
func TestRepairPatchClusters(t *testing.T) {
	rng := randx.New(0xc105)
	adopted, rebuilt := 0, 0
	for trial := range uint64(20) {
		o := Options{Variant: Theorem1, K: 4, C: 4, Seed: trial, ForceComplete: true}
		g := gen.GnpConnected(rng, 150, 0.03)
		r, g2, st := bootRepairer(t, g, o, randomChanges(rng, g, 1+rng.Intn(8)))
		n := g2.N()
		ref := newDecomposition(n, r.o, r.sched)
		centers := make([]int, n)
		taken := make([]bool, n)
		// Each phase joins three quarters of the prior run's joiners with
		// their prior centers, plus a twentieth of the rest with random ones.
		for phase := range r.oldJoin {
			var joined []int
			for v := range n {
				switch {
				case taken[v]:
					continue
				case st.joinPhase[v] == int32(phase) && rng.Intn(4) != 0:
					centers[v] = int(st.center[v])
				case rng.Intn(20) == 0:
					centers[v] = rng.Intn(n)
				default:
					continue
				}
				taken[v] = true
				joined = append(joined, v)
				r.centers[v] = centers[v]
			}
			if len(joined) > 0 {
				ref.buildClusters(g2, joined, centers, phase, ref.Colors)
				ref.Colors++
			}
			r.patchClusters(joined, phase)
		}
		got := r.dec
		if !reflect.DeepEqual(got.Clusters, ref.Clusters) || got.Colors != ref.Colors || got.CenterViolations != ref.CenterViolations {
			t.Fatalf("trial %d: patched clusters differ from buildClusters'\n got %+v\nwant %+v", trial, got.Clusters, ref.Clusters)
		}
		for v := range n {
			if taken[v] && got.ClusterOf[v] != ref.ClusterOf[v] {
				t.Fatalf("trial %d: vertex %d in cluster %d, buildClusters puts it in %d", trial, v, got.ClusterOf[v], ref.ClusterOf[v])
			}
		}
		prior := map[*int]bool{}
		for _, c := range st.clusters {
			prior[&c.Members[0]] = true
		}
		for _, c := range got.Clusters {
			if prior[&c.Members[0]] {
				adopted++
			} else {
				rebuilt++
			}
		}
	}
	t.Logf("%d clusters adopted, %d rebuilt", adopted, rebuilt)
	if adopted == 0 || rebuilt == 0 {
		t.Fatalf("%d clusters adopted and %d rebuilt; want some of each", adopted, rebuilt)
	}
}

// TestRepairAdvance: whatever the new run's join sets, after each advance
// the divergence list is exactly {v : aliveOld[v] ≠ aliveNew[v]}, without
// duplicates and mirrored by its mask, the new alive list is that set's
// ascending list, the kept changes are those whose endpoints are both
// alive in either run, and each joiner's phase and center are recorded.
func TestRepairAdvance(t *testing.T) {
	rng := randx.New(0xad7a)
	for trial := range uint64(10) {
		o := Options{Variant: Theorem1, K: 4, C: 4, Seed: trial, ForceComplete: true}
		g := gen.GnpConnected(rng, 150, 0.03)
		changes := randomChanges(rng, g, 1+rng.Intn(16))
		r, _, st := bootRepairer(t, g, o, changes)
		n := g.N()
		for phase := 0; len(r.aliveNewList) > 0; phase++ {
			if phase > 1000 {
				t.Fatal("new run never exhausted")
			}
			// Join half of the prior run's joiners of this phase that are
			// still alive, and an eighth of the other survivors.
			var joined []int
			for _, v := range r.aliveNewList {
				p := 8
				if st.joinPhase[v] == int32(phase) {
					p = 2
				}
				if rng.Intn(p) == 0 {
					joined = append(joined, int(v))
					r.centers[v] = rng.Intn(n)
				}
			}
			r.advance(joined, phase)

			var wantDiff, wantAlive []int32
			for v := range int32(n) {
				if r.aliveOld[v] != r.aliveNew[v] {
					wantDiff = append(wantDiff, v)
				}
				if r.aliveNew[v] {
					wantAlive = append(wantAlive, v)
				}
				if r.diffMask[v] != (r.aliveOld[v] != r.aliveNew[v]) {
					t.Fatalf("trial %d phase %d: diffMask[%d] = %v", trial, phase, v, r.diffMask[v])
				}
			}
			gotDiff := slices.Sorted(slices.Values(r.diffList))
			if !slices.Equal(gotDiff, wantDiff) {
				t.Fatalf("trial %d phase %d: divergence list %v, want %v", trial, phase, gotDiff, wantDiff)
			}
			if !slices.Equal(r.aliveNewList, wantAlive) {
				t.Fatalf("trial %d phase %d: alive list %v, want %v", trial, phase, r.aliveNewList, wantAlive)
			}
			var wantChg []EdgeChange
			for _, c := range changes {
				if r.unionAlive(c.U) && r.unionAlive(c.V) {
					wantChg = append(wantChg, c)
				}
			}
			if !slices.Equal(r.chg, wantChg) {
				t.Fatalf("trial %d phase %d: kept changes %v, want %v", trial, phase, r.chg, wantChg)
			}
			for _, v := range joined {
				if r.next.joinPhase[v] != int32(phase) || r.next.center[v] != int32(r.centers[v]) {
					t.Fatalf("trial %d phase %d: joiner %d recorded at phase %d center %d", trial, phase, v, r.next.joinPhase[v], r.next.center[v])
				}
			}
		}
	}
}
