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
// plus their difference, and settles each phase on one of two paths. A
// phase the prior run tabled and no radius draw truncates is certified by
// delta simulation: grow a region around the divergence sources (diverged
// vertices and live changed-edge endpoints), re-simulate the region with
// its boundary shell frozen at the prior run's final states (rebroadcast
// from round 0 — which, in the absence of radius truncation, reaches
// exactly the vertices the original timed arrivals reached), and accept
// the region iff every boundary vertex's simulated final state bit-matches
// the prior run's. Property 2 makes that certificate sound in both
// directions: a change escaping the region must alter a boundary final,
// and a prior-run value whose supporting path broke must vanish from a
// boundary final. On certificate failure the failing component's region
// grows by another hop and re-simulates; a phase with no divergence
// sources has an empty region and reuses the prior outcome wholesale; and
// past a quarter of n in one region Repair abandons incrementality for a
// full recompute. Every other phase — truncated under RadiusCap, where the
// round budget rather than the value gate limits reach, or past the prior
// run's last phase — is re-simulated whole, exactly as RunWith runs it.
// Lemma 1 bounds the total probability of truncation by 2/c, so such
// phases are rare.
//
// The state carried between repairs is one table of final states per
// phase. Repair patches each phase's table in place once the phase is
// settled — re-simulated vertices take their new finals (gaining a row if
// newly alive), vertices that no longer reach the phase leave — so the
// tables always describe the latest graph and nothing of older runs stays
// reachable. A phase re-simulated whole gets a fresh table.
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

// maxRegionFraction is the share of n one phase's certified region may
// reach before Repair abandons incrementality for a full recompute. It is
// fixed; a variable only so package tests can move it.
var maxRegionFraction = 0.25

// radiusStats summarizes one phase's radius draws over an alive set.
// Radii are pure functions of (seed, phase, v), so a repair updates them
// from the alive-set diff alone instead of re-drawing every alive vertex —
// the draw (one exponential per vertex per phase) is the dominant fixed
// cost of small repairs otherwise.
type radiusStats struct {
	trunc  int // draws at or past k+1 (truncation events)
	maxFl  int // max ⌊r_v⌋ over the alive set (at least 0)
	maxCnt int // alive vertices achieving maxFl
}

// scanRadii computes the statistics of the draws radius holds for
// aliveList from scratch.
func scanRadii(aliveList []int32, radius []float64, k int) radiusStats {
	var rs radiusStats
	for _, v := range aliveList {
		r := radius[v]
		if r >= float64(k)+1 {
			rs.trunc++
		}
		if fl := int(math.Floor(r)); fl > rs.maxFl {
			rs.maxFl, rs.maxCnt = fl, 1
		} else if fl == rs.maxFl {
			rs.maxCnt++
		}
	}
	return rs
}

// phaseFinals is one phase's table of converged broadcast states: the
// final top-two of every vertex alive in that phase, one row each, and the
// radius statistics over the same alive set. Repair patches it in place
// (set for re-simulated vertices, drop for deaths), so its rows are always
// exactly the phase's alive set.
type phaseFinals struct {
	pos   []int32  // vertex → row; -1 = not alive in the phase
	verts []int32  // row → vertex
	final []topTwo // row → final state
	radiusStats
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
// maintenance. The returned Decomposition is exactly RunWith(g, o)'s,
// trace included when o.CaptureTrace is set; the state is read off each
// phase's final states, which also decide every vertex's join and center.
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
		for _, v := range aliveList {
			if state[v].joins() {
				st.joinPhase[v] = int32(phase)
				st.center[v] = int32(state[v].c1)
			}
		}
		pf := newPhaseFinals(n, aliveList, state)
		pf.radiusStats = scanRadii(aliveList, radius, sched.k)
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

// RepairStats reports what a repair did.
type RepairStats struct {
	// DamagedVertices totals the per-phase divergence sources (vertices
	// whose survival status differs between the runs plus live changed-edge
	// endpoints); RegionVertices totals the per-phase re-simulated vertices
	// across all certificate attempts and whole-phase re-simulations.
	DamagedVertices int
	RegionVertices  int
	// RepairedClusters counts result clusters containing at least one
	// re-simulated vertex; TotalClusters is len(Clusters).
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
func Repair(g graph.Interface, o Options, st *RepairState, changes []EdgeChange) (*Decomposition, *RepairState, RepairStats, error) {
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
	r, err := newRepairer(g, o, st, changes)
	if err != nil {
		return nil, nil, RepairStats{}, err
	}
	for phase := 0; len(r.aliveNewList) > 0; phase++ {
		if phase >= r.sched.budget && !r.o.ForceComplete {
			break
		}
		if phase >= r.maxPhases {
			return nil, nil, r.stats, fmt.Errorf("core: graph not exhausted after %d phases (n=%d, k=%d); this indicates a bug", phase, n, r.sched.k)
		}
		r.startPhase(phase)
		r.sources()
		rs, unionMax := r.radiusStats(phase)
		r.dec.TruncationEvents += rs.trunc
		// A tabled phase is certified by delta simulation — trivially, with
		// an empty region, when nothing diverges — unless a draw in either
		// run is truncated; every other phase is re-simulated whole.
		var joined []int
		if phase < len(r.tables) && (len(r.srcList) == 0 || !r.truncated(unionMax)) {
			if reason := r.certify(phase, unionMax); reason != "" {
				return repairFallback(g, o, r.stats, reason)
			}
			joined = r.compose(phase)
			r.patchTable(phase, rs)
		} else {
			joined = r.resimulate(phase, rs)
		}
		r.patchClusters(joined, phase)
		r.advance(joined, phase)
	}
	return r.finish()
}

// repairer is one Repair call's working set: both runs' alive sets and
// their difference, the region and cluster scratch, the phase runner, and
// the decomposition and state being built. Repair's phase loop calls its
// steps in order; every step leaves the scratch masks it set cleared,
// except certify, whose region compose reads and clears.
type repairer struct {
	g         graph.Interface
	n         int
	o         Options // resolved
	sched     schedule
	maxPhases int
	regionCap int
	beta      float64 // the current phase's exponential rate

	// The prior run: its joins, centers and clusters, its per-phase join
	// sets (ascending) and its per-phase tables, which Repair now owns.
	prior   *RepairState
	oldJoin [][]int32
	tables  []*phaseFinals
	// delAdj holds the deleted edges: the union graph region growth walks
	// is g plus these rows. chg holds the changes whose endpoints are both
	// alive in either run.
	delAdj map[int32][]int32
	chg    []EdgeChange

	aliveOld, aliveNew []bool
	aliveNewList       []int32 // ascending
	diffMask           []bool
	diffList           []int32 // exactly {v : aliveOld[v] ≠ aliveNew[v]}
	srcMask            []bool
	srcList            []int32 // the phase's divergence sources

	// Region scratch. rMask/rList hold the certified region R (vertices
	// alive in either run) and trusted its new-alive part, ascending;
	// simMask/simList one component's simulation set, shellMask/shellList
	// its frozen shell; compMask/compList the component itself.
	rMask, simMask, shellMask, compMask []bool
	rList, trusted, simList, shellList  []int32
	compList, visitedList               []int32
	dirtySeeds, seedsBuf, failList      []int32
	regionEver                          []bool // re-simulated in some phase

	// Cluster scratch: centers[v] is the center v chose in the current
	// phase, joinedMask marks the phase's join set, assignedMask the
	// joiners already placed into a cluster, dirtyMask the prior clusters
	// that cannot be adopted this phase.
	centers                  []int
	joinedMask, assignedMask []bool
	dirtyMask                []bool
	dirtyList                []int
	queue                    []int32

	runner *phaseRunner
	dec    *Decomposition
	next   *RepairState
	stats  RepairStats
}

// newRepairer resolves o and takes st's tables for a repair onto g.
func newRepairer(g graph.Interface, o Options, st *RepairState, changes []EdgeChange) (*repairer, error) {
	n := g.N()
	o2, sched, err := resolve(n, o)
	if err != nil {
		return nil, err
	}
	r := &repairer{
		g:            g,
		n:            n,
		o:            o2,
		sched:        sched,
		maxPhases:    sched.budget,
		regionCap:    max(1, int(maxRegionFraction*float64(n))),
		prior:        st,
		oldJoin:      make([][]int32, len(st.phases)),
		tables:       st.phases,
		delAdj:       map[int32][]int32{},
		chg:          slices.Clone(changes),
		aliveOld:     make([]bool, n),
		aliveNew:     make([]bool, n),
		aliveNewList: make([]int32, n),
		diffMask:     make([]bool, n),
		srcMask:      make([]bool, n),
		rMask:        make([]bool, n),
		simMask:      make([]bool, n),
		shellMask:    make([]bool, n),
		compMask:     make([]bool, n),
		regionEver:   make([]bool, n),
		centers:      make([]int, n),
		joinedMask:   make([]bool, n),
		assignedMask: make([]bool, n),
		dirtyMask:    make([]bool, len(st.clusters)),
		runner:       newPhaseRunner(g),
		dec:          newDecomposition(n, o2, sched),
		next:         &RepairState{n: n, joinPhase: make([]int32, n), center: make([]int32, n)},
	}
	st.phases = nil
	if o2.ForceComplete {
		r.maxPhases = 64*sched.budget + 1024
	}
	for _, c := range changes {
		if !c.Insert {
			r.delAdj[c.U] = append(r.delAdj[c.U], c.V)
			r.delAdj[c.V] = append(r.delAdj[c.V], c.U)
		}
	}
	for v, p := range st.joinPhase {
		if p >= 0 {
			r.oldJoin[p] = append(r.oldJoin[p], int32(v))
		}
	}
	for v := range n {
		r.aliveOld[v], r.aliveNew[v] = true, true
		r.aliveNewList[v] = int32(v)
		r.next.joinPhase[v], r.next.center[v] = -1, none
	}
	// The prior run's cluster count is a near-exact capacity estimate;
	// growing this slice inside emitCluster otherwise dominates the
	// small-batch repair floor (tens of thousands of Cluster appends).
	r.dec.Clusters = make([]partition.Cluster, 0, len(st.clusters)+16)
	// Start from the prior run's assignment: adopted clusters whose index
	// did not shift then skip their per-member writes entirely, which
	// removes the last O(n) random-write pass from small repairs. Vertices
	// the new run leaves unclustered are fixed up by finish; every other
	// vertex is covered by an emitCluster call.
	copy(r.dec.ClusterOf, st.clusterOf)
	return r, nil
}

// oldJoinAt returns the prior run's joiners of a phase, ascending.
func (r *repairer) oldJoinAt(phase int) []int32 {
	if phase < len(r.oldJoin) {
		return r.oldJoin[phase]
	}
	return nil
}

// unionAlive reports whether v is alive in either run.
func (r *repairer) unionAlive(v int32) bool { return r.aliveOld[v] || r.aliveNew[v] }

// truncated reports whether a phase whose largest floored radius over
// either run's alive set is unionMax has a draw the round budget cuts
// short. Delta simulation is exact only while the value gate, not the
// round budget, limits reach.
func (r *repairer) truncated(unionMax int) bool {
	return r.o.RadiusMode != RadiusExact && unionMax > r.sched.k
}

// startPhase sets the phase's exponential rate and records the vertices
// entering it.
func (r *repairer) startPhase(phase int) {
	r.beta = r.sched.betas[len(r.sched.betas)-1]
	if phase < len(r.sched.betas) {
		r.beta = r.sched.betas[phase]
	}
	r.dec.AlivePerPhase = append(r.dec.AlivePerPhase, len(r.aliveNewList))
}

// sources collects the phase's divergence sources: every vertex whose
// survival differs between the runs, plus both endpoints of every changed
// edge still relevant (advance keeps exactly those whose endpoints are
// alive in either run).
func (r *repairer) sources() {
	r.srcList = append(r.srcList[:0], r.diffList...)
	for _, v := range r.srcList {
		r.srcMask[v] = true
	}
	for _, c := range r.chg {
		for _, v := range [2]int32{c.U, c.V} {
			if !r.srcMask[v] {
				r.srcMask[v] = true
				r.srcList = append(r.srcList, v)
			}
		}
	}
	clearMask(r.srcMask, r.srcList)
	r.stats.DamagedVertices += len(r.srcList)
}

// radiusStats returns the phase's radius statistics over the new alive set
// and unionMax, the largest ⌊r_v⌋ over every vertex alive in either run:
// the rounds any value of either run needs to fully propagate. For a
// phase the prior run tabled they follow from the table's statistics and
// the alive-set diff; only when every prior achiever of the maximum died
// is the new alive set drawn again. Past the prior run's last phase the
// prior alive set is empty and the new one is drawn whole.
func (r *repairer) radiusStats(phase int) (radiusStats, int) {
	if phase >= len(r.tables) {
		rs := r.rescan(phase)
		return rs, rs.maxFl
	}
	pf := r.tables[phase]
	rs := pf.radiusStats
	k := float64(r.sched.k)
	deadMax, deadFl := 0, 0
	addedFl, addedCnt := -1, 0
	for _, v := range r.diffList {
		rad := phaseRadius(r.o.Seed, phase, v, r.beta)
		fl := int(math.Floor(rad))
		if r.aliveNew[v] {
			if rad >= k+1 {
				rs.trunc++
			}
			if fl > addedFl {
				addedFl, addedCnt = fl, 1
			} else if fl == addedFl {
				addedCnt++
			}
			continue
		}
		if rad >= k+1 {
			rs.trunc--
		}
		if fl == pf.maxFl {
			deadMax++
		}
		deadFl = max(deadFl, fl)
	}
	if deadMax >= pf.maxCnt {
		// Every prior achiever of the max died. Rare, since the diff is
		// tiny relative to the alive set.
		rs = r.rescan(phase)
	} else {
		rs.maxCnt -= deadMax
		if addedFl > rs.maxFl {
			rs.maxFl, rs.maxCnt = addedFl, addedCnt
		} else if addedFl == rs.maxFl {
			rs.maxCnt += addedCnt
		}
	}
	return rs, max(rs.maxFl, deadFl)
}

// rescan draws the phase's radii for the whole new alive set and returns
// their statistics.
func (r *repairer) rescan(phase int) radiusStats {
	drawRadiiSparse(r.o.Seed, phase, r.aliveNewList, r.beta, r.runner.radius)
	return scanRadii(r.aliveNewList, r.runner.radius, r.sched.k)
}

// certify settles a tabled, untruncated phase by delta simulation. The
// region R starts at the sources and grows only where the certificate
// fails. Certification is per connected component of R: a component whose
// boundary matched once keeps its simulated states untouched in
// runner.state and is only revisited when growth connects new vertices to
// it, so converged damage sites stop costing anything while stragglers
// keep growing. It leaves R in rList and rMask and the certified states in
// runner.state, and returns "" — or, past the region cap or when growth
// does not converge, the reason to fall back.
func (r *repairer) certify(phase, unionMax int) string {
	pf := r.tables[phase]
	r.rList, r.dirtySeeds = r.rList[:0], r.dirtySeeds[:0]
	// R starts at the sources alone: for most damage sites the changed
	// edge does not alter any converged state (gnp-style graphs deliver
	// values along many redundant paths), so the minimal region certifies
	// immediately and the site costs a ~degree-sized sim instead of a
	// ball. A source dead in the new run cannot witness its own divergence
	// (it is excluded from the sim), so its live neighborhood joins R in
	// its stead — otherwise a dead source's component could certify
	// vacuously while its neighbors wrongly reuse old outcomes.
	for _, s := range r.srcList {
		r.addR(s)
		if !r.aliveNew[s] {
			r.growFrom(s)
		}
	}
	maxIter := max(64, 2*unionMax+16)
	for iter := 0; ; iter++ {
		if len(r.rList) > r.regionCap {
			return fmt.Sprintf("phase %d region %d exceeds cap %d", phase, len(r.rList), r.regionCap)
		}
		if iter >= maxIter {
			// Growth is not converging; the damage is effectively global
			// this phase.
			return fmt.Sprintf("phase %d delta certificate never converged", phase)
		}
		r.seedsBuf, r.dirtySeeds = r.dirtySeeds, r.seedsBuf[:0]
		r.simulate(pf, phase, r.seedsBuf, unionMax)
		if len(r.failList) == 0 {
			return ""
		}
		// Grow around exactly the failing vertices. A failing vertex itself
		// re-seeds its component (growth may merge it with a neighboring,
		// already-certified one, which the component walk then
		// re-simulates as a whole).
		for _, f := range r.failList {
			r.addR(f)
			r.dirtySeeds = append(r.dirtySeeds, f)
			r.growFrom(f)
		}
	}
}

// addR adds v to R if it is alive in either run, marking it a seed.
func (r *repairer) addR(v int32) {
	if r.unionAlive(v) && !r.rMask[v] {
		r.rMask[v] = true
		r.rList = append(r.rList, v)
		r.dirtySeeds = append(r.dirtySeeds, v)
	}
}

// growFrom adds v's union-graph neighbors to R.
func (r *repairer) growFrom(v int32) {
	for _, w := range r.g.Neighbors(int(v)) {
		r.addR(w)
	}
	for _, w := range r.delAdj[v] {
		r.addR(w)
	}
}

// simulate re-simulates every component of R that holds one of seeds: the
// component's new-alive part plus its one-hop shell of new-alive outside
// neighbors, the shell frozen at pf's finals. It lists in failList the
// boundary vertices — the shell and the component vertices next to it —
// whose simulated final differs from pf's: a mismatch means influence
// crossed the boundary there.
func (r *repairer) simulate(pf *phaseFinals, phase int, seeds []int32, rounds int) {
	preset := func(v int32) (topTwo, bool) {
		if !r.shellMask[v] {
			return topTwo{}, false
		}
		return pf.lookup(v)
	}
	r.failList, r.visitedList = r.failList[:0], r.visitedList[:0]
	for _, s := range seeds {
		if r.compMask[s] {
			continue
		}
		r.component(s)
		// Draw the members' radii: nothing may have filled them yet (a
		// re-draw after growth is idempotent — the draw is pure).
		r.simList, r.shellList = r.simList[:0], r.shellList[:0]
		for _, v := range r.compList {
			if r.aliveNew[v] {
				r.runner.radius[v] = phaseRadius(r.o.Seed, phase, v, r.beta)
				r.simMask[v] = true
				r.simList = append(r.simList, v)
			}
		}
		for _, v := range r.compList {
			if !r.aliveNew[v] {
				continue
			}
			for _, w := range r.g.Neighbors(int(v)) {
				if r.aliveNew[w] && !r.rMask[w] && !r.shellMask[w] {
					r.shellMask[w] = true
					r.shellList = append(r.shellList, w)
					r.simMask[w] = true
					r.simList = append(r.simList, w)
				}
			}
		}
		// The runner does not need simList sorted: merge order independence
		// makes every observable output of the sim a set or a sum, and
		// joins are read off runner.state directly.
		r.stats.RegionVertices += len(r.simList)
		r.dec.account(r.runner.runSparseSeeded(r.simMask, r.simList, rounds, nil, preset))
		for _, v := range r.simList {
			if !r.onBoundary(v) {
				continue
			}
			if want, found := pf.lookup(v); !found || r.runner.state[v] != want {
				r.failList = append(r.failList, v)
			}
		}
		clearMask(r.simMask, r.simList)
		clearMask(r.shellMask, r.shellList)
	}
	clearMask(r.compMask, r.visitedList)
}

// component collects into compList the component of s within R over the
// union graph, marking it in compMask and visitedList.
func (r *repairer) component(s int32) {
	r.compMask[s] = true
	r.compList = append(r.compList[:0], s)
	for head := 0; head < len(r.compList); head++ {
		v := r.compList[head]
		for _, w := range r.g.Neighbors(int(v)) {
			if r.rMask[w] && !r.compMask[w] {
				r.compMask[w] = true
				r.compList = append(r.compList, w)
			}
		}
		for _, w := range r.delAdj[v] {
			if r.rMask[w] && !r.compMask[w] {
				r.compMask[w] = true
				r.compList = append(r.compList, w)
			}
		}
	}
	r.visitedList = append(r.visitedList, r.compList...)
}

// onBoundary reports whether simulated vertex v is in the shell or next
// to it.
func (r *repairer) onBoundary(v int32) bool {
	if r.shellMask[v] {
		return true
	}
	for _, w := range r.g.Neighbors(int(v)) {
		if r.shellMask[w] {
			return true
		}
	}
	return false
}

// compose returns a certified phase's join set, ascending — the order
// buildClusters (and the from-scratch run) sees — and records each
// joiner's center. R's new-alive vertices, collected into trusted, take
// their certified outcome; everyone else repeats the prior run. R's
// old-only vertices (diverged deaths) repeat nothing: the new run settled
// them in an earlier phase. compose clears R.
func (r *repairer) compose(phase int) []int {
	r.trusted = r.trusted[:0]
	for _, v := range r.rList {
		if r.aliveNew[v] {
			r.trusted = append(r.trusted, v)
			r.regionEver[v] = true
		}
	}
	slices.Sort(r.trusted)
	old := r.oldJoinAt(phase)
	joined := make([]int, 0, len(old))
	oi := 0
	repeatOld := func(bound int32) {
		for ; oi < len(old) && old[oi] < bound; oi++ {
			if v := old[oi]; !r.rMask[v] {
				joined = append(joined, int(v))
				r.centers[v] = int(r.prior.center[v])
			}
		}
	}
	for _, v := range r.trusted {
		if s := &r.runner.state[v]; s.joins() {
			repeatOld(v)
			joined = append(joined, int(v))
			r.centers[v] = s.c1
		}
	}
	repeatOld(int32(r.n))
	clearMask(r.rMask, r.rList)
	r.rList = r.rList[:0]
	return joined
}

// patchTable brings a certified phase's table to the new run: trusted
// vertices take their certified finals (a newly alive one gains a row),
// diverged deaths leave, and the radius statistics become rs. Every other
// row already holds its final: a vertex alive in both runs outside R saw
// no divergence this phase.
func (r *repairer) patchTable(phase int, rs radiusStats) {
	pf := r.tables[phase]
	for _, v := range r.trusted {
		pf.set(v, r.runner.state[v])
	}
	for _, v := range r.diffList {
		if !r.aliveNew[v] {
			pf.drop(v)
		}
	}
	pf.radiusStats = rs
}

// resimulate settles a phase the prior run cannot certify — truncated
// under RadiusCap, or past the prior run's last phase — by simulating the
// whole new alive set exactly as RunWith does. That simulation's joins are
// the phase's joins, and its final states the phase's fresh table.
func (r *repairer) resimulate(phase int, rs radiusStats) []int {
	drawRadiiSparse(r.o.Seed, phase, r.aliveNewList, r.beta, r.runner.radius)
	rounds := r.sched.k
	if r.o.RadiusMode == RadiusExact {
		rounds = rs.maxFl
	}
	res := r.runner.runSparse(r.aliveNew, r.aliveNewList, rounds, nil)
	r.dec.account(res)
	r.stats.RegionVertices += len(r.aliveNewList)
	for _, v := range r.aliveNewList {
		r.regionEver[v] = true
	}
	for _, v := range res.joined {
		r.centers[v] = res.centers[v]
	}
	pf := newPhaseFinals(r.n, r.aliveNewList, r.runner.state)
	pf.radiusStats = rs
	if phase < len(r.tables) {
		r.tables[phase] = pf
	} else {
		r.tables = append(r.tables, pf)
	}
	return res.joined
}

// patchClusters appends a phase's clusters, colored with the next color,
// by adopting every prior cluster whose component provably did not change
// and rebuilding the rest with local searches over the join set. A prior
// cluster is adoptable unless marked dirty: it lost a member, a changed
// edge touches two of this phase's joined vertices in it, or a vertex that
// newly joined this phase is adjacent to it — any edge between an
// adoptable cluster and the rest of the join set would imply one of those
// marks, so adoptable clusters are exactly the unchanged maximal
// components. Clusters are emitted in ascending order of their smallest
// member, the same order buildClusters derives from the ascending join
// list, so the cluster list stays bit-identical to a scratch run's.
func (r *repairer) patchClusters(joined []int, phase int) {
	if len(joined) == 0 {
		return
	}
	for _, v := range joined {
		r.joinedMask[v] = true
	}
	for _, v := range r.oldJoinAt(phase) {
		if !r.joinedMask[v] {
			r.markDirty(v, phase)
		}
	}
	for _, v := range joined {
		if r.prior.joinPhase[v] != int32(phase) {
			// Newly joined here: whatever it attaches to must merge.
			for _, w := range r.g.Neighbors(v) {
				if r.joinedMask[w] {
					r.markDirty(w, phase)
				}
			}
		}
	}
	for _, c := range r.chg {
		if r.joinedMask[c.U] && r.joinedMask[c.V] {
			r.markDirty(c.U, phase)
			r.markDirty(c.V, phase)
		}
	}
	for _, v := range joined {
		if r.assignedMask[v] {
			continue
		}
		pc := -1
		if r.prior.joinPhase[v] == int32(phase) {
			pc = r.prior.clusterOf[v]
		}
		if pc >= 0 && !r.dirtyMask[pc] {
			members := r.prior.clusters[pc].Members
			for _, u := range members {
				r.assignedMask[u] = true
			}
			r.emitCluster(members, phase, pc)
			continue
		}
		// Rebuild v's component over the join set. The search cannot
		// reach an adoptable cluster: a connecting edge would have marked
		// it dirty.
		r.queue = append(r.queue[:0], int32(v))
		r.assignedMask[v] = true
		members := []int{v}
		for head := 0; head < len(r.queue); head++ {
			for _, w := range r.g.Neighbors(int(r.queue[head])) {
				if r.joinedMask[w] && !r.assignedMask[w] {
					r.assignedMask[w] = true
					r.queue = append(r.queue, w)
					members = append(members, int(w))
				}
			}
		}
		slices.Sort(members)
		r.emitCluster(members, phase, -1)
	}
	for _, v := range joined {
		r.joinedMask[v] = false
		r.assignedMask[v] = false
	}
	for _, pc := range r.dirtyList {
		r.dirtyMask[pc] = false
	}
	r.dirtyList = r.dirtyList[:0]
	r.dec.Colors++
}

// markDirty bars v's prior cluster from adoption, if v joined it in this
// phase of the prior run.
func (r *repairer) markDirty(v int32, phase int) {
	if r.prior.joinPhase[v] != int32(phase) {
		return
	}
	if pc := r.prior.clusterOf[v]; pc >= 0 && !r.dirtyMask[pc] {
		r.dirtyMask[pc] = true
		r.dirtyList = append(r.dirtyList, pc)
	}
}

// emitCluster appends one cluster with the current color. pc is the prior
// index of an adopted cluster (-1 for rebuilt ones); when it equals the new
// index, ClusterOf already carries the right value from the prior
// assignment newRepairer copied.
func (r *repairer) emitCluster(members []int, phase, pc int) {
	dec := r.dec
	center := r.centers[members[0]]
	for _, u := range members[1:] {
		if r.centers[u] != center {
			dec.CenterViolations++
			break
		}
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

// advance moves both runs past the phase: the new run's joiners record
// their phase and center and leave its alive set, the prior run's leave
// its own. Only a vertex that just joined in either run, or was already
// diverged, can be diverged now, so the divergence list is rebuilt from
// those alone. A changed edge stays relevant only while both endpoints
// survive in at least one run; death is permanent, so pruning is too.
func (r *repairer) advance(joined []int, phase int) {
	for _, v := range joined {
		r.next.joinPhase[v] = int32(phase)
		r.next.center[v] = int32(r.centers[v])
		r.aliveNew[v] = false
	}
	if len(joined) > 0 {
		k := 0
		for _, v := range r.aliveNewList {
			if r.aliveNew[v] {
				r.aliveNewList[k] = v
				k++
			}
		}
		r.aliveNewList = r.aliveNewList[:k]
	}
	old := r.oldJoinAt(phase)
	for _, v := range old {
		r.aliveOld[v] = false
	}

	k := 0
	for _, v := range r.diffList {
		if r.aliveOld[v] != r.aliveNew[v] {
			r.diffList[k] = v
			k++
		} else {
			r.diffMask[v] = false
		}
	}
	r.diffList = r.diffList[:k]
	for _, v := range old {
		r.diverge(v)
	}
	for _, v := range joined {
		r.diverge(int32(v))
	}

	k = 0
	for _, c := range r.chg {
		if r.unionAlive(c.U) && r.unionAlive(c.V) {
			r.chg[k] = c
			k++
		}
	}
	r.chg = r.chg[:k]
	r.dec.PhasesUsed++
}

// diverge adds v to the divergence list if the runs disagree on it.
func (r *repairer) diverge(v int32) {
	if r.aliveOld[v] != r.aliveNew[v] && !r.diffMask[v] {
		r.diffMask[v] = true
		r.diffList = append(r.diffList, v)
	}
}

// finish closes the new run and hands on its state: the tables are cut to
// the phases it ran, and nothing in the state points into the repairer's
// scratch.
func (r *repairer) finish() (*Decomposition, *RepairState, RepairStats, error) {
	dec := r.dec
	dec.AlivePerPhase = append(dec.AlivePerPhase, len(r.aliveNewList))
	dec.Complete = len(r.aliveNewList) == 0
	for _, v := range r.aliveNewList {
		dec.ClusterOf[v] = -1
	}
	// Tables past the new run's last phase describe phases it never ran.
	clear(r.tables[dec.PhasesUsed:])
	r.next.phases = r.tables[:dec.PhasesUsed]
	r.next.clusters, r.next.clusterOf = dec.Clusters, dec.ClusterOf

	r.stats.TotalClusters = len(dec.Clusters)
	for i := range dec.Clusters {
		for _, v := range dec.Clusters[i].Members {
			if r.regionEver[v] {
				r.stats.RepairedClusters++
				break
			}
		}
	}
	return dec, r.next, r.stats, nil
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
