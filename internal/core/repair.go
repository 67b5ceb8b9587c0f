package core

// Incremental repair of a completed decomposition under edge mutations.
//
// The Elkin–Neiman phase is a distance-potential computation: after the
// broadcast rounds, a vertex's final top-two state is exactly the two best
// values r_c − d(c, v) over alive centers c with d(c, v) ≤ ⌊r_c⌋ (ties
// broken toward smaller center id), and the join decision and chosen
// center are pure functions of that state. Two properties make the phase
// repairable locally:
//
//  1. The radius draws are a pure function of (seed, phase, vertex),
//     independent of the alive set and the graph.
//  2. The broadcast is closed under top-two propagation: every value a
//     vertex ever forwards is dominated (in the beats order) by its final
//     top-two entries, so any entry of any vertex's final state is present
//     in the final state of every vertex along its shortest path.
//
// Repair replays the phase loop of RunWith keeping both runs' alive sets
// plus their difference. Per phase, the vertices whose state could have
// changed are found by certified delta simulation: grow a region around
// the divergence sources (diverged vertices and live changed-edge
// endpoints), re-simulate the region with its boundary shell frozen at the
// prior run's final states (rebroadcast from round 0 — which, in
// the absence of radius truncation, reaches exactly the vertices the
// original timed arrivals reached), and accept the region iff every
// boundary vertex's simulated final state bit-matches the prior run's.
// Property 2 makes that certificate sound in both directions: a change
// escaping the region must alter a boundary final, and a prior-run value
// whose supporting path broke must vanish from a boundary final. On
// certificate failure the failing component's region grows by another
// hop and re-simulates; phases with no divergence
// sources reuse the prior outcome wholesale; phases with radius
// truncation (where the round budget, not the value gate, limits reach)
// fall back to the conservative ball bound; and past a configurable
// region fraction Repair abandons incrementality for a full recompute.
//
// The state carried between repairs is one table of final states per
// phase. Repair patches each phase's table in place once the phase is
// settled — re-simulated vertices take their new finals (gaining a row if
// newly alive), vertices that no longer reach the phase leave — so the
// tables always describe the latest graph and nothing of older runs stays
// reachable.
//
// The composed join set is clustered in the same order buildClusters gives
// a scratch run on the new graph, adopting unchanged prior clusters
// wholesale, so cluster ordering, centers, colors, and center-violation
// accounting all match. The returned Decomposition is
// content-identical to Run(g, o) on the mutated graph — Clusters,
// ClusterOf, Colors, PhasesUsed, AlivePerPhase, Complete,
// TruncationEvents, CenterViolations all match — while the traffic metrics
// (Metrics: Rounds, Messages, Words, MaxMessageWords) account the repair's
// own, much smaller, simulation: that difference is the speedup being
// bought.

import (
	"fmt"
	"math"
	"slices"

	"netdecomp/internal/graph"
	"netdecomp/internal/partition"
	"netdecomp/internal/randx"
)

// phaseFinals is one phase's table of converged broadcast states: the
// final top-two of every vertex alive in that phase, one row each. Repair
// patches it in place (set for re-simulated vertices, drop for deaths), so
// its rows are always exactly the phase's alive set.
type phaseFinals struct {
	pos   []int32  // vertex → row; -1 = not alive in the phase
	verts []int32  // row → vertex
	final []topTwo // row → final state

	// Radius statistics over the phase's alive set. Radii are pure
	// functions of (seed, phase, v), so a repair updates these from the
	// alive-set diff alone instead of re-drawing every alive vertex —
	// the draw (one exponential per vertex per phase) is the dominant
	// fixed cost of small repairs otherwise.
	trunc  int // draws at or past k+1 (truncation events)
	maxFl  int // max ⌊r_v⌋ over the alive set (at least 0)
	maxCnt int // alive vertices achieving maxFl
}

// newPhaseFinals tables state over the alive list of an n-vertex graph.
func newPhaseFinals(n int, aliveList []int32, state []topTwo) *phaseFinals {
	pf := &phaseFinals{
		pos:   make([]int32, n),
		verts: slices.Clone(aliveList),
		final: make([]topTwo, len(aliveList)),
	}
	for v := range pf.pos {
		pf.pos[v] = -1
	}
	for i, v := range aliveList {
		pf.pos[v] = int32(i)
		pf.final[i] = state[v]
	}
	return pf
}

// lookup returns v's recorded final state, if v was alive in the phase.
func (pf *phaseFinals) lookup(v int32) (topTwo, bool) {
	i := pf.pos[v]
	if i < 0 {
		return topTwo{}, false
	}
	return pf.final[i], true
}

// set records s as v's final state, adding a row if v had none.
func (pf *phaseFinals) set(v int32, s topTwo) {
	if i := pf.pos[v]; i >= 0 {
		pf.final[i] = s
		return
	}
	pf.pos[v] = int32(len(pf.verts))
	pf.verts = append(pf.verts, v)
	pf.final = append(pf.final, s)
}

// drop removes v's row, if any, moving the last row into its place.
func (pf *phaseFinals) drop(v int32) {
	i := pf.pos[v]
	if i < 0 {
		return
	}
	last := len(pf.verts) - 1
	u := pf.verts[last]
	pf.verts[i], pf.final[i] = u, pf.final[last]
	pf.pos[u] = i
	pf.pos[v] = -1
	pf.verts, pf.final = pf.verts[:last], pf.final[:last]
}

// RepairState pins the outcome of a completed run: the phase at which each
// vertex joined its cluster, the center it chose, the clusters, and one
// table of converged broadcast states per phase — the reference delta
// simulation replays and certifies against. RunRepairable produces one;
// Repair consumes one and returns its successor.
type RepairState struct {
	n         int
	joinPhase []int32 // phase v joined at, or -1 (never clustered)
	center    []int32 // center v chose when it joined, or -1
	// phases holds one table per executed phase. Repair moves them out of
	// the state it is given (leaving nil) into the state it returns, so a
	// state already consumed carries none and repairs by recompute.
	phases []*phaseFinals
	// The prior run's cluster list and vertex→cluster index (shared with
	// the Decomposition that produced them, immutable by convention).
	// Repair adopts clusters of untouched components wholesale — member
	// slices included — and rebuilds only components reached by membership
	// changes or changed edges, so steady-state cluster extraction costs
	// the damage, not the graph.
	clusters  []partition.Cluster
	clusterOf []int
}

// RunRepairable executes a full decomposition and returns the repair state
// alongside it — the bootstrap (and fallback) path of incremental
// maintenance. The returned Decomposition is exactly Run(g, o)'s; the
// state is read off each phase's final states, which also decide every
// vertex's join and center.
func RunRepairable(g graph.Interface, o Options) (*Decomposition, *RepairState, error) {
	n := g.N()
	_, sched, err := resolve(n, o)
	if err != nil {
		return nil, nil, err
	}
	st := &RepairState{n: n, joinPhase: make([]int32, n), center: make([]int32, n)}
	for v := range st.joinPhase {
		st.joinPhase[v] = -1
		st.center[v] = none
	}
	x := Exec{phaseFinal: func(phase int, aliveList []int32, state []topTwo, radius []float64) {
		pf := newPhaseFinals(n, aliveList, state)
		for _, v := range aliveList {
			if state[v].joins() {
				st.joinPhase[v] = int32(phase)
				st.center[v] = int32(state[v].c1)
			}
			r := radius[v]
			if r >= float64(sched.k)+1 {
				pf.trunc++
			}
			if fl := int(math.Floor(r)); fl > pf.maxFl {
				pf.maxFl, pf.maxCnt = fl, 1
			} else if fl == pf.maxFl {
				pf.maxCnt++
			}
		}
		st.phases = append(st.phases, pf)
	}}
	dec, err := RunWith(g, o, x)
	if err != nil {
		return nil, nil, err
	}
	st.clusters, st.clusterOf = dec.Clusters, dec.ClusterOf
	return dec, st, nil
}

// EdgeChange is one effective edge mutation between the prior run's graph
// and the new one.
type EdgeChange struct {
	U, V int32
	// Insert reports the direction: true when {U,V} exists in the new
	// graph but not the old, false for a deletion.
	Insert bool
}

// RepairConfig tunes the repair path.
type RepairConfig struct {
	// MaxDamageFraction is the fraction of n the per-phase re-simulation
	// region may reach before Repair abandons incrementality and falls
	// back to a full recompute. 0 selects the default 0.25.
	MaxDamageFraction float64
}

// RepairStats reports what a repair did.
type RepairStats struct {
	// Phases counts replayed phases (equals the result's PhasesUsed unless
	// the repair fell back).
	Phases int
	// DamagedVertices totals the per-phase divergence sources (vertices
	// whose survival status differs between the runs plus live changed-edge
	// endpoints); RegionVertices totals the per-phase re-simulated regions
	// across all certificate attempts; MaxRegion is the largest
	// single-attempt region.
	DamagedVertices int
	RegionVertices  int
	MaxRegion       int
	// RepairedClusters counts result clusters containing at least one
	// region vertex; TotalClusters is len(Clusters).
	RepairedClusters int
	TotalClusters    int
	// FellBack reports a full recompute happened instead, with the reason.
	FellBack       bool
	FallbackReason string
}

// Repair produces the decomposition of the mutated graph g from the prior
// run's state st, re-simulating only the affected region of each phase. o
// must equal the Options of the run that produced st (same seed included);
// changes must list exactly the effective edge differences between the
// prior graph and g. It returns the new decomposition, the state pinning
// it (for the next repair), and the repair statistics.
//
// Repair consumes st: once the changes validate, st's per-phase tables
// move into the returned state and are patched there in place, whatever
// the outcome. A consumed state passed again repairs by full recompute,
// as a nil st does.
func Repair(g graph.Interface, o Options, st *RepairState, changes []EdgeChange, cfg RepairConfig) (*Decomposition, *RepairState, RepairStats, error) {
	n := g.N()
	if st == nil || st.n != n {
		return repairFallback(g, o, RepairStats{}, "no prior state for this vertex count")
	}
	if st.phases == nil {
		return repairFallback(g, o, RepairStats{}, "prior state already consumed")
	}
	for _, c := range changes {
		if c.U < 0 || int(c.U) >= n || c.V < 0 || int(c.V) >= n || c.U == c.V {
			return nil, nil, RepairStats{}, fmt.Errorf("core: bad edge change {%d,%d} on %d vertices", c.U, c.V, n)
		}
	}
	o2, sched, err := resolve(n, o)
	if err != nil {
		return nil, nil, RepairStats{}, err
	}
	tables := st.phases
	st.phases = nil
	frac := cfg.MaxDamageFraction
	if frac == 0 {
		frac = 0.25
	}
	regionCap := int(frac * float64(n))
	if regionCap < 1 {
		regionCap = 1
	}

	var stats RepairStats

	// Deleted-edge adjacency patches: the union graph the region growth
	// walks is g plus these rows (edges that existed in the prior graph
	// only).
	delAdj := map[int32][]int32{}
	chg := make([]EdgeChange, 0, len(changes))
	for _, c := range changes {
		chg = append(chg, c)
		if !c.Insert {
			delAdj[c.U] = append(delAdj[c.U], c.V)
			delAdj[c.V] = append(delAdj[c.V], c.U)
		}
	}

	// The prior run's per-phase join sets, bucketed ascending.
	oldJoin := make([][]int32, len(tables))
	for v, p := range st.joinPhase {
		if p >= 0 {
			oldJoin[p] = append(oldJoin[p], int32(v))
		}
	}
	oldJoinAt := func(phase int) []int32 {
		if phase < len(oldJoin) {
			return oldJoin[phase]
		}
		return nil
	}

	aliveOld := make([]bool, n)
	aliveNew := make([]bool, n)
	aliveNewList := make([]int32, n)
	for v := range aliveOld {
		aliveOld[v] = true
		aliveNew[v] = true
		aliveNewList[v] = int32(v)
	}
	aliveNewCount := n
	unionAlive := func(v int32) bool { return aliveOld[v] || aliveNew[v] }

	// diffList holds exactly the vertices where the two alive sets differ
	// (diffMask mirrors it for O(1) membership).
	diffMask := make([]bool, n)
	var diffList []int32

	// Scratch: rMask/rList hold the grown region R (union-alive);
	// simMask/simList the restricted simulation's alive set (R's new-alive
	// part plus the frozen shell); shellMask marks the shell within it.
	rMask := make([]bool, n)
	simMask := make([]bool, n)
	shellMask := make([]bool, n)
	trustMask := make([]bool, n)
	regionEver := make([]bool, n)
	compMask := make([]bool, n)
	var rList, simList, shellList, cur, nxt, srcList []int32
	var compList, visitedList, dirtySeeds, seedsBuf, failList []int32
	srcMask := make([]bool, n)
	centersArr := make([]int, n)

	// Cluster-adoption scratch: joinedMask marks the phase's join set,
	// assignedMask the members already placed into a cluster, dirtyMask the
	// prior clusters that cannot be adopted this phase.
	joinedMask := make([]bool, n)
	assignedMask := make([]bool, n)
	dirtyMask := make([]bool, len(st.clusters))
	var dirtyList []int
	var clusterQueue []int32

	dec := newDecomposition(n, o2, sched)
	// The prior run's cluster count is a near-exact capacity estimate;
	// growing this slice inside emitCluster otherwise dominates the
	// small-batch repair floor (tens of thousands of Cluster appends).
	dec.Clusters = make([]partition.Cluster, 0, len(st.clusters)+16)
	// Start from the prior run's assignment: adopted clusters whose index
	// did not shift then skip their per-member writes entirely, which
	// removes the last O(n) random-write pass from small repairs. Vertices
	// the new run leaves unclustered are fixed up after the phase loop;
	// every other vertex is covered by an emitCluster call.
	copy(dec.ClusterOf, st.clusterOf)
	newState := &RepairState{n: n, joinPhase: make([]int32, n), center: make([]int32, n)}
	for v := range newState.joinPhase {
		newState.joinPhase[v] = -1
		newState.center[v] = none
	}

	runner := newPhaseRunner(g)
	maxPhases := sched.budget
	if o2.ForceComplete {
		maxPhases = 64*sched.budget + 1024
	}

	// patchClusters assembles a phase's clusters by adopting every prior
	// cluster whose component provably did not change and rebuilding the
	// rest with local searches over the join set. A prior cluster is
	// adoptable unless marked dirty: it lost a member, a changed edge
	// touches two of this phase's joined vertices in it, or a vertex that
	// newly joined this phase is adjacent to it — any edge between an
	// adoptable cluster and the rest of the join set would imply one of
	// those marks, so adoptable clusters are exactly the unchanged maximal
	// components. Clusters are emitted in ascending order of their smallest
	// member, the same order buildClusters derives from the ascending join
	// list, so the cluster list stays bit-identical to a scratch run's.
	// pc is the prior index of an adopted cluster (-1 for rebuilt ones);
	// when it equals the new index, ClusterOf already carries the right
	// value from the prior-assignment clone above.
	emitCluster := func(members []int, phase, pc int) {
		center := centersArr[members[0]]
		uniform := true
		for _, u := range members[1:] {
			if centersArr[u] != center {
				uniform = false
			}
		}
		if !uniform {
			dec.CenterViolations++
		}
		ci := len(dec.Clusters)
		dec.Clusters = append(dec.Clusters, partition.Cluster{
			Members: members,
			Center:  center,
			Phase:   phase,
			Color:   dec.Colors,
		})
		if pc != ci {
			for _, u := range members {
				dec.ClusterOf[u] = ci
			}
		}
	}
	patchClusters := func(joined []int, phase int) {
		for _, v := range joined {
			joinedMask[v] = true
		}
		markDirty := func(v int32) {
			if st.joinPhase[v] == int32(phase) {
				if pc := st.clusterOf[v]; pc >= 0 && !dirtyMask[pc] {
					dirtyMask[pc] = true
					dirtyList = append(dirtyList, pc)
				}
			}
		}
		for _, v := range oldJoinAt(phase) {
			if !joinedMask[v] {
				markDirty(v)
			}
		}
		for _, v := range joined {
			if st.joinPhase[v] != int32(phase) {
				// Newly joined here: whatever it attaches to must merge.
				for _, w := range g.Neighbors(v) {
					if joinedMask[w] {
						markDirty(w)
					}
				}
			}
		}
		for _, c := range chg {
			if joinedMask[c.U] && joinedMask[c.V] {
				markDirty(c.U)
				markDirty(c.V)
			}
		}
		for _, v := range joined {
			if assignedMask[v] {
				continue
			}
			pc := -1
			if st.joinPhase[v] == int32(phase) {
				pc = st.clusterOf[v]
			}
			if pc >= 0 && !dirtyMask[pc] {
				members := st.clusters[pc].Members
				for _, u := range members {
					assignedMask[u] = true
				}
				emitCluster(members, phase, pc)
				continue
			}
			// Rebuild v's component over the join set. The search cannot
			// reach an adoptable cluster: a connecting edge would have
			// marked it dirty.
			clusterQueue = append(clusterQueue[:0], int32(v))
			assignedMask[v] = true
			members := []int{v}
			for head := 0; head < len(clusterQueue); head++ {
				for _, w := range g.Neighbors(int(clusterQueue[head])) {
					if joinedMask[w] && !assignedMask[w] {
						assignedMask[w] = true
						clusterQueue = append(clusterQueue, w)
						members = append(members, int(w))
					}
				}
			}
			slices.Sort(members)
			emitCluster(members, phase, -1)
		}
		for _, v := range joined {
			joinedMask[v] = false
			assignedMask[v] = false
		}
		for _, pc := range dirtyList {
			dirtyMask[pc] = false
		}
		dirtyList = dirtyList[:0]
	}

	for phase := 0; aliveNewCount > 0; phase++ {
		if phase >= sched.budget && !o2.ForceComplete {
			break
		}
		if phase >= maxPhases {
			return nil, nil, stats, fmt.Errorf("core: graph not exhausted after %d phases (n=%d, k=%d); this indicates a bug", phase, n, sched.k)
		}
		beta := sched.betas[len(sched.betas)-1]
		if phase < len(sched.betas) {
			beta = sched.betas[phase]
		}
		dec.AlivePerPhase = append(dec.AlivePerPhase, aliveNewCount)

		// Divergence sources this phase: vertices whose survival differs
		// between the runs, plus the endpoints of changed edges still live
		// in either run (chg is pruned below, so every entry qualifies).
		srcList = srcList[:0]
		for _, v := range diffList {
			if !srcMask[v] {
				srcMask[v] = true
				srcList = append(srcList, v)
			}
		}
		for _, c := range chg {
			for _, v := range [2]int32{c.U, c.V} {
				if unionAlive(v) && !srcMask[v] {
					srcMask[v] = true
					srcList = append(srcList, v)
				}
			}
		}
		stats.DamagedVertices += len(srcList)

		// Per-phase radius statistics: the truncation count and max floored
		// radius over the new alive set (with its achiever count), plus the
		// union-alive max that bounds propagation rounds. When the prior
		// run tabled this phase, they are maintained from the alive-set
		// diff alone — radii are pure functions of (seed, phase, v) — so the
		// full-graph draw (one exponential per alive vertex, the dominant
		// fixed cost of small repairs) happens only past the tabled
		// prefix. The simulation paths below draw radii for exactly the
		// vertices they touch.
		truncNew, maxFlNew, maxCntNew := 0, 0, 0
		unionMax := 0
		if phase < len(tables) {
			pf := tables[phase]
			truncNew = pf.trunc
			deadMax, deadFl := 0, 0
			addedFl, addedCnt := -1, 0
			for _, v := range diffList {
				r := phaseRadius(o2.Seed, phase, v, beta)
				fl := int(math.Floor(r))
				if aliveNew[v] {
					if r >= float64(sched.k)+1 {
						truncNew++
					}
					if fl > addedFl {
						addedFl, addedCnt = fl, 1
					} else if fl == addedFl {
						addedCnt++
					}
				} else {
					if r >= float64(sched.k)+1 {
						truncNew--
					}
					if fl == pf.maxFl {
						deadMax++
					}
					if fl > deadFl {
						deadFl = fl
					}
				}
			}
			if deadMax >= pf.maxCnt {
				// Every prior achiever of the max died; rescan the new
				// alive set. Rare, since the diff is tiny relative to it.
				for _, v := range aliveNewList {
					if fl := int(math.Floor(phaseRadius(o2.Seed, phase, v, beta))); fl > maxFlNew {
						maxFlNew, maxCntNew = fl, 1
					} else if fl == maxFlNew {
						maxCntNew++
					}
				}
			} else {
				maxFlNew, maxCntNew = pf.maxFl, pf.maxCnt-deadMax
				if addedFl > maxFlNew {
					maxFlNew, maxCntNew = addedFl, addedCnt
				} else if addedFl == maxFlNew {
					maxCntNew += addedCnt
				}
			}
			unionMax = maxFlNew
			if deadFl > unionMax {
				unionMax = deadFl
			}
		} else {
			drawRadiiSparse(o2.Seed, phase, aliveNewList, beta, runner.radius)
			truncNew = countTruncationsSparse(aliveNewList, runner.radius, sched.k)
			for _, v := range aliveNewList {
				if fl := int(math.Floor(runner.radius[v])); fl > maxFlNew {
					maxFlNew, maxCntNew = fl, 1
				} else if fl == maxFlNew {
					maxCntNew++
				}
			}
			unionMax = maxFlNew
			for _, v := range diffList {
				if aliveOld[v] && !aliveNew[v] {
					if fl := int(math.Floor(phaseRadius(o2.Seed, phase, v, beta))); fl > unionMax {
						unionMax = fl
					}
				}
			}
		}
		dec.TruncationEvents += truncNew

		var joined []int
		if len(srcList) == 0 {
			// Both runs see the same graph and alive set from here on this
			// phase (every diverged vertex is a source): reuse the prior
			// outcome wholesale and leave the phase's table as it is.
			for _, v := range oldJoinAt(phase) {
				joined = append(joined, int(v))
				centersArr[v] = int(st.center[v])
			}
		} else {
			// unionMax (computed above) bounds ⌊r_v⌋ over every vertex alive
			// in either run: the rounds any value of either run needs to
			// fully propagate.
			// Delta simulation is exact only while the value gate, not the
			// round budget, limits reach: under RadiusCap a draw past k
			// (a truncation event) breaks that, so such phases take the
			// conservative ball path.
			useDelta := o2.RadiusMode == RadiusExact || unionMax <= sched.k

			var res phaseResult
			var trusted []int32 // new-alive vertices whose sim outcome is exact
			var simJoined []int // ascending joiners among the simulated set
			var simCenters []int
			switch {
			case phase >= len(tables):
				// The prior run ended before this phase: every survivor is
				// diverged, so simulate the whole remaining graph — which is
				// exactly what a scratch run would do here.
				simRounds := sched.k
				if o2.RadiusMode == RadiusExact {
					simRounds = maxFlNew
				}
				res = runner.runSparse(aliveNew, aliveNewList, simRounds, nil)
				simJoined, simCenters = res.joined, res.centers
				trusted = aliveNewList
				for _, v := range aliveNewList {
					trustMask[v] = true
					regionEver[v] = true
				}
				stats.RegionVertices += len(aliveNewList)
				if len(aliveNewList) > stats.MaxRegion {
					stats.MaxRegion = len(aliveNewList)
				}

			case useDelta:
				pf := tables[phase]
				// R grows only where the certificate fails. Certification
				// is per connected component of R: a component whose boundary
				// matched once keeps its simulated states untouched in
				// runner.state and is only revisited when growth connects new
				// vertices to it, so converged damage sites stop costing
				// anything while stragglers keep growing.
				rList = rList[:0]
				dirtySeeds = dirtySeeds[:0]
				addR := func(v int32) {
					if unionAlive(v) && !rMask[v] {
						rMask[v] = true
						rList = append(rList, v)
						dirtySeeds = append(dirtySeeds, v)
					}
				}
				growFrom := func(v int32) {
					for _, w := range g.Neighbors(int(v)) {
						addR(w)
					}
					for _, w := range delAdj[v] {
						addR(w)
					}
				}
				// R starts at the sources alone: for most damage sites the
				// changed edge does not alter any converged state (gnp-style
				// graphs deliver values along many redundant paths), so the
				// minimal region certifies immediately and the site costs a
				// ~degree-sized sim instead of a ball. A source dead in the
				// new run cannot witness its own divergence (it is excluded
				// from the sim), so its live neighborhood joins R in its
				// stead — otherwise a dead source's component could certify
				// vacuously while its neighbors wrongly reuse old outcomes.
				for _, s := range srcList {
					addR(s)
					if !aliveNew[s] {
						growFrom(s)
					}
				}
				preset := func(v int32) (topTwo, bool) {
					if !shellMask[v] {
						return topTwo{}, false
					}
					return pf.lookup(v)
				}
				maxIter := 64
				if c := 2*unionMax + 16; c > maxIter {
					maxIter = c
				}
				var agg phaseResult
				for iter := 0; ; iter++ {
					if len(rList) > regionCap {
						return repairFallback(g, o, stats, fmt.Sprintf("phase %d region %d exceeds cap %d", phase, len(rList), regionCap))
					}
					if iter >= maxIter {
						// Growth is not converging; the damage is effectively
						// global this phase.
						return repairFallback(g, o, stats, fmt.Sprintf("phase %d delta certificate never converged", phase))
					}

					seedsBuf, dirtySeeds = dirtySeeds, seedsBuf[:0]
					failList = failList[:0]
					visitedList = visitedList[:0]
					for _, s := range seedsBuf {
						if compMask[s] {
							continue
						}
						// The component of s within R, over the union graph.
						compList = compList[:0]
						cur = cur[:0]
						compMask[s] = true
						compList = append(compList, s)
						cur = append(cur, s)
						for len(cur) > 0 {
							v := cur[len(cur)-1]
							cur = cur[:len(cur)-1]
							for _, w := range g.Neighbors(int(v)) {
								if rMask[w] && !compMask[w] {
									compMask[w] = true
									compList = append(compList, w)
									cur = append(cur, w)
								}
							}
							for _, w := range delAdj[v] {
								if rMask[w] && !compMask[w] {
									compMask[w] = true
									compList = append(compList, w)
									cur = append(cur, w)
								}
							}
						}
						visitedList = append(visitedList, compList...)

						// Draw the members' radii: in incremental-stats
						// phases nothing has filled them yet (re-draws after
						// growth are idempotent — the draw is pure).
						for _, v := range compList {
							if aliveNew[v] {
								runner.radius[v] = phaseRadius(o2.Seed, phase, v, beta)
							}
						}

						// Sim set: the component's new-alive part plus its
						// one-hop shell of new-alive outside neighbors, frozen
						// at prior finals.
						simList = simList[:0]
						shellList = shellList[:0]
						for _, v := range compList {
							if aliveNew[v] {
								simMask[v] = true
								simList = append(simList, v)
							}
						}
						for _, v := range compList {
							if !aliveNew[v] {
								continue
							}
							for _, w := range g.Neighbors(int(v)) {
								if aliveNew[w] && !rMask[w] && !shellMask[w] {
									shellMask[w] = true
									shellList = append(shellList, w)
									simMask[w] = true
									simList = append(simList, w)
								}
							}
						}
						// The runner does not need simList sorted: merge order
						// independence makes every observable output of the
						// sim a set or a sum, and the delta path derives
						// joins from runner.state directly.
						stats.RegionVertices += len(simList)
						if len(simList) > stats.MaxRegion {
							stats.MaxRegion = len(simList)
						}

						cres := runner.runSparseSeeded(simMask, simList, unionMax, nil, preset)
						agg.rounds += cres.rounds
						agg.messages += cres.messages
						agg.words += cres.words
						if cres.maxMsgWords > agg.maxMsgWords {
							agg.maxMsgWords = cres.maxMsgWords
						}
						// Certificate: every shell vertex and every component
						// vertex adjacent to the shell must converge to the
						// prior run's exact final state; a mismatch means
						// influence crossed the boundary there.
						for _, v := range simList {
							onBoundary := shellMask[v]
							if !onBoundary {
								for _, w := range g.Neighbors(int(v)) {
									if shellMask[w] {
										onBoundary = true
										break
									}
								}
							}
							if !onBoundary {
								continue
							}
							want, found := pf.lookup(v)
							if !found || runner.state[v] != want {
								failList = append(failList, v)
							}
						}
						clearMask(simMask, simList)
						clearMask(shellMask, shellList)
					}
					clearMask(compMask, visitedList)
					if len(failList) == 0 {
						break
					}
					// Grow around exactly the failing vertices. A failing
					// vertex itself re-seeds its component (growth may merge
					// it with a neighboring, already-certified one, which the
					// component walk then re-simulates as a whole).
					for _, f := range failList {
						addR(f)
						dirtySeeds = append(dirtySeeds, f)
						growFrom(f)
					}
				}
				res = agg
				// Every R vertex alive in the new run is trusted; joins are
				// read straight off the certified states.
				for _, v := range rList {
					if aliveNew[v] {
						trustMask[v] = true
						trusted = append(trusted, v)
						regionEver[v] = true
					}
				}
				slices.Sort(trusted)
				for _, v := range trusted {
					if runner.state[v].joins() {
						simJoined = append(simJoined, int(v))
						runner.centers[v] = runner.state[v].c1
					}
				}
				simCenters = runner.centers

			default:
				// Conservative ball bound: BFS to the influence depth from
				// the sources over the union graph, then re-simulate the
				// simRounds-ball of the damage — any path that can carry a
				// value into a damaged vertex lies inside it.
				simRounds := sched.k
				depth := sched.k
				if o2.RadiusMode == RadiusExact {
					simRounds = maxFlNew
					depth = unionMax
				}
				rList = rList[:0]
				cur = cur[:0]
				for _, s := range srcList {
					if unionAlive(s) && !rMask[s] {
						rMask[s] = true
						rList = append(rList, s)
						cur = append(cur, s)
					}
				}
				for d := 0; d < depth && len(cur) > 0; d++ {
					nxt = nxt[:0]
					for _, v := range cur {
						for _, w := range g.Neighbors(int(v)) {
							if unionAlive(w) && !rMask[w] {
								rMask[w] = true
								rList = append(rList, w)
								nxt = append(nxt, w)
							}
						}
						for _, w := range delAdj[v] {
							if unionAlive(w) && !rMask[w] {
								rMask[w] = true
								rList = append(rList, w)
								nxt = append(nxt, w)
							}
						}
					}
					cur, nxt = nxt, cur
				}
				if len(rList) > regionCap {
					return repairFallback(g, o, stats, fmt.Sprintf("phase %d damage %d exceeds cap %d", phase, len(rList), regionCap))
				}

				// Region: the simRounds-ball of the new-alive damage in the
				// new graph.
				simList = simList[:0]
				cur = cur[:0]
				for _, v := range rList {
					if aliveNew[v] && !simMask[v] {
						simMask[v] = true
						simList = append(simList, v)
						cur = append(cur, v)
					}
				}
				for d := 0; d < simRounds && len(cur) > 0; d++ {
					nxt = nxt[:0]
					for _, v := range cur {
						for _, w := range g.Neighbors(int(v)) {
							if aliveNew[w] && !simMask[w] {
								simMask[w] = true
								simList = append(simList, w)
								nxt = append(nxt, w)
							}
						}
					}
					cur, nxt = nxt, cur
				}
				stats.RegionVertices += len(simList)
				if len(simList) > stats.MaxRegion {
					stats.MaxRegion = len(simList)
				}
				if len(simList) > regionCap {
					return repairFallback(g, o, stats, fmt.Sprintf("phase %d region %d exceeds cap %d", phase, len(simList), regionCap))
				}
				slices.Sort(simList)
				// Draw the region's radii — in incremental-stats phases the
				// full-graph draw was skipped.
				for _, v := range simList {
					runner.radius[v] = phaseRadius(o2.Seed, phase, v, beta)
				}

				res = runner.runSparse(simMask, simList, simRounds, nil)
				simJoined, simCenters = res.joined, res.centers
				// Only the damaged (R) vertices' outcomes are exact — the
				// rest of the region is boundary context.
				for _, v := range rList {
					if aliveNew[v] {
						trustMask[v] = true
						trusted = append(trusted, v)
						regionEver[v] = true
					}
				}
				clearMask(simMask, simList)
			}

			m := &dec.Metrics
			m.Rounds += res.rounds
			m.Messages += res.messages
			m.Words += res.words
			m.MaxMessageWords = max(m.MaxMessageWords, res.maxMsgWords)

			// Compose the phase's join set: trusted vertices take the
			// regional simulation's outcome, everything else repeats the
			// prior run. Both inputs are ascending, so a linear merge keeps
			// the order buildClusters (and the from-scratch run) sees. R's
			// old-only vertices (diverged deaths) count as trusted too: the
			// new run settled them in an earlier phase.
			old := oldJoinAt(phase)
			oi, si := 0, 0
			sim := simJoined
			for oi < len(old) || si < len(sim) {
				for oi < len(old) && (trustMask[old[oi]] || rMask[old[oi]]) {
					oi++
				}
				for si < len(sim) && !trustMask[sim[si]] {
					si++
				}
				switch {
				case oi < len(old) && (si >= len(sim) || int(old[oi]) < sim[si]):
					v := int(old[oi])
					joined = append(joined, v)
					centersArr[v] = int(st.center[v])
					oi++
				case si < len(sim):
					v := sim[si]
					joined = append(joined, v)
					centersArr[v] = simCenters[v]
					si++
				}
			}

			// Patch this phase's table for the next repair. Every other
			// row already holds its final: a vertex alive in both runs
			// outside R saw no divergence this phase.
			if phase < len(tables) {
				pf := tables[phase]
				for _, v := range trusted {
					pf.set(v, runner.state[v])
				}
				for _, v := range diffList {
					if !aliveNew[v] {
						pf.drop(v)
					}
				}
				pf.trunc, pf.maxFl, pf.maxCnt = truncNew, maxFlNew, maxCntNew
			} else {
				pf := newPhaseFinals(n, aliveNewList, runner.state)
				pf.trunc, pf.maxFl, pf.maxCnt = truncNew, maxFlNew, maxCntNew
				tables = append(tables, pf)
			}

			clearMask(trustMask, trusted)
			clearMask(rMask, rList)
		}
		clearMask(srcMask, srcList)

		if len(joined) > 0 {
			patchClusters(joined, phase)
			dec.Colors++
			for _, v := range joined {
				newState.joinPhase[v] = int32(phase)
				newState.center[v] = int32(centersArr[v])
				aliveNew[v] = false
			}
			aliveNewCount -= len(joined)
			k := 0
			for _, v := range aliveNewList {
				if aliveNew[v] {
					aliveNewList[k] = v
					k++
				}
			}
			aliveNewList = aliveNewList[:k]
		}
		for _, v := range oldJoinAt(phase) {
			aliveOld[v] = false
		}

		// Rebuild the divergence set: only vertices that just joined in
		// either run, or were already diverged, can be diverged now.
		cand := cur[:0]
		cand = append(cand, diffList...)
		cand = append(cand, oldJoinAt(phase)...)
		for _, v := range joined {
			cand = append(cand, int32(v))
		}
		for _, v := range diffList {
			diffMask[v] = false
		}
		diffList = diffList[:0]
		for _, v := range cand {
			if aliveOld[v] != aliveNew[v] && !diffMask[v] {
				diffMask[v] = true
				diffList = append(diffList, v)
			}
		}
		cur = cand[:0]

		// A changed edge stays relevant only while both endpoints survive
		// in at least one run; death is permanent, so pruning is too.
		k := 0
		for _, c := range chg {
			if unionAlive(c.U) && unionAlive(c.V) {
				chg[k] = c
				k++
			}
		}
		chg = chg[:k]

		dec.PhasesUsed++
		stats.Phases++
	}
	dec.AlivePerPhase = append(dec.AlivePerPhase, aliveNewCount)
	dec.Complete = aliveNewCount == 0
	for _, v := range aliveNewList {
		dec.ClusterOf[v] = -1
	}
	// Tables past the new run's last phase describe phases it never ran.
	clear(tables[dec.PhasesUsed:])
	newState.phases = tables[:dec.PhasesUsed]
	newState.clusters = dec.Clusters
	newState.clusterOf = dec.ClusterOf

	stats.TotalClusters = len(dec.Clusters)
	for i := range dec.Clusters {
		for _, v := range dec.Clusters[i].Members {
			if regionEver[v] {
				stats.RepairedClusters++
				break
			}
		}
	}
	return dec, newState, stats, nil
}

// phaseRadius re-draws one vertex's exponential radius for a phase — the
// same pure function of (seed, phase, v) drawRadiiSparse evaluates.
func phaseRadius(seed uint64, phase int, v int32, beta float64) float64 {
	rng := randx.Derive(seed, uint64(phase), uint64(v))
	return randx.Exp(rng, beta)
}

// repairFallback abandons incrementality: full recompute with state
// capture, surfaced with the triggering reason in the stats.
func repairFallback(g graph.Interface, o Options, stats RepairStats, reason string) (*Decomposition, *RepairState, RepairStats, error) {
	stats.FellBack = true
	stats.FallbackReason = reason
	dec, st, err := RunRepairable(g, o)
	if err != nil {
		return nil, nil, stats, err
	}
	stats.TotalClusters = len(dec.Clusters)
	stats.RepairedClusters = len(dec.Clusters)
	return dec, st, stats, nil
}

// clearMask resets the listed entries of a scratch mask.
func clearMask(mask []bool, list []int32) {
	for _, v := range list {
		mask[v] = false
	}
}
