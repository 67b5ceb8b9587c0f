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
// The bookkeeping follows the damage, not n. The new run's join phases and
// centers start as copies of the prior run's and only re-simulated
// vertices write them; a vertex is alive at phase p iff its join phase is
// −1 or at least p, in either run, because outside the region the new run
// repeats the prior one. Only the region can diverge, and each phase's
// clean prior clusters, one contiguous range of the prior list, are copied
// in runs and merged by smallest member with the few rebuilt ones (the
// order buildClusters gives), so Clusters, ClusterOf, Colors, PhasesUsed,
// AlivePerPhase, Complete, TruncationEvents and CenterViolations all equal
// Run(g, o) on the mutated graph. What stays O(n) per call is the output
// (the cluster list, ClusterOf, the two copied arrays), the region masks
// and the phase runner. Metrics (Rounds, Messages, Words,
// MaxMessageWords) account the repair's own, much smaller, simulation:
// that difference is the speedup being bought.

import (
	"cmp"
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
	// The run's cluster list and vertex→cluster index (shared with the
	// Decomposition that produced them, immutable by convention). Phase p's
	// clusters are clusters[offsets[p]:offsets[p+1]], and violations[p] of
	// them have members that chose more than one center. Repair copies the
	// clean clusters of each phase in runs — member slices included — and
	// rebuilds only those its region reaches, so steady-state cluster
	// extraction costs the damage, not the graph.
	clusters   []partition.Cluster
	clusterOf  []int
	offsets    []int
	violations []int
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
				st.center[v] = state[v].c1
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
	st.offsets = make([]int, len(st.phases)+1)
	st.violations = make([]int, len(st.phases))
	for _, c := range dec.Clusters {
		st.offsets[c.Phase+1]++
		if mixedCenters(c.Members, st.center) {
			st.violations[c.Phase]++
		}
	}
	for p := range st.phases {
		st.offsets[p+1] += st.offsets[p]
	}
	return dec, st, nil
}

// mixedCenters reports whether a cluster's members chose more than one
// center.
func mixedCenters(members []int, center []int32) bool {
	for _, u := range members[1:] {
		if center[u] != center[members[0]] {
			return true
		}
	}
	return false
}

// EdgeChange is one effective edge mutation between the prior run's graph
// and the new one.
type EdgeChange struct {
	U, V int32
	// Insert reports the direction: true when {U,V} exists in the new
	// graph but not the old, false for a deletion.
	Insert bool
}

// FallbackCause names why a repair fell back to a full recompute, as a
// metric-safe word: a phase's region passed the cap, its growth did not
// converge, or there was no prior state (none for this vertex count, or
// one already consumed).
type FallbackCause string

const (
	CauseRegionCap     FallbackCause = "region_cap"
	CauseNoConvergence FallbackCause = "no_convergence"
	CauseNoState       FallbackCause = "no_state"
)

// FallbackCauses lists every FallbackCause.
var FallbackCauses = []FallbackCause{CauseRegionCap, CauseNoConvergence, CauseNoState}

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
	// FellBack reports a full recompute happened instead: FallbackCause
	// says why, FallbackReason in words.
	FellBack       bool
	FallbackCause  FallbackCause
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
		return repairFallback(g, o, RepairStats{}, CauseNoState, "no prior state for this vertex count")
	}
	if st.phases == nil {
		return repairFallback(g, o, RepairStats{}, CauseNoState, "prior state already consumed")
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
	for phase := 0; r.alive > 0; phase++ {
		if phase >= r.sched.budget && !r.o.ForceComplete {
			break
		}
		if phase >= r.maxPhases {
			return nil, nil, r.stats, fmt.Errorf("core: graph not exhausted after %d phases (n=%d, k=%d); this indicates a bug", phase, n, r.sched.k)
		}
		r.startPhase(phase)
		r.sources()
		rs, unionMax := r.radiusStats()
		r.dec.TruncationEvents += rs.trunc
		// A tabled phase is certified by delta simulation — trivially, with
		// an empty region, when nothing diverges — unless a draw in either
		// run is truncated; every other phase is re-simulated whole.
		if phase < len(r.tables) && (len(r.srcList) == 0 || !r.truncated(unionMax)) {
			if cause, reason := r.certify(unionMax); cause != "" {
				return repairFallback(g, o, r.stats, cause, reason)
			}
			r.patchTable(rs)
		} else {
			r.resimulate(rs)
		}
		r.compose()
		r.patchClusters()
		r.advance()
	}
	return r.finish()
}

// repairer is one Repair call's working set: the new run's state being
// patched, the divergence and region lists, the region and cluster
// scratch, and the phase runner. Neither run's alive set is stored; both
// are read off the join phases (aliveAt), so a phase's bookkeeping costs
// its region, not n. Repair's phase loop calls the steps in order; every
// step leaves the scratch masks it set cleared, except certify, whose
// region R the later steps read and advance clears.
type repairer struct {
	g         graph.Interface
	n         int
	o         Options // resolved
	sched     schedule
	maxPhases int
	regionCap int
	phase     int     // the phase being settled
	beta      float64 // its exponential rate

	// The prior run and its per-phase tables, which Repair now owns.
	prior  *RepairState
	tables []*phaseFinals
	// delAdj holds the deleted edges: the union graph region growth walks
	// is g plus these rows. chg holds the changes whose endpoints are both
	// alive in either run.
	delAdj map[int32][]int32
	chg    []EdgeChange

	alive    int     // the new run's alive count entering the phase
	aliveBuf []int32 // the new alive set, listed by aliveList
	diffList []int32 // exactly the vertices whose survival the runs disagree on
	srcMask  []bool
	srcList  []int32 // the phase's divergence sources

	// Region scratch. rMask/rList hold the region R (vertices alive in
	// either run, a superset of the divergence list) and trusted its
	// new-alive part, whose outcome the phase simulation decides;
	// simMask/simList one component's simulation set, shellMask/shellList
	// its frozen shell; compMask/compList the component itself.
	// regionEver/everList the vertices trusted in some phase.
	rMask, simMask, shellMask, compMask []bool
	rList, trusted, simList, shellList  []int32
	compList, visitedList, everList     []int32
	dirtySeeds, seedsBuf, failList      []int32
	regionEver                          []bool

	// Cluster scratch: dirtyMask/dirtyList the prior clusters that cannot
	// be copied this phase, assignedMask the joiners rebuilt clusters
	// hold, rebuilt those clusters.
	dirtyMask    []bool
	dirtyList    []int
	assignedMask []bool
	queue        []int32
	rebuilt      []partition.Cluster

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
		tables:       st.phases,
		delAdj:       map[int32][]int32{},
		chg:          slices.Clone(changes),
		alive:        n,
		srcMask:      make([]bool, n),
		rMask:        make([]bool, n),
		simMask:      make([]bool, n),
		shellMask:    make([]bool, n),
		compMask:     make([]bool, n),
		regionEver:   make([]bool, n),
		dirtyMask:    make([]bool, len(st.clusters)),
		assignedMask: make([]bool, n),
		runner:       newPhaseRunner(g),
		dec:          newDecomposition(n, o2, sched),
		next: &RepairState{
			n:          n,
			joinPhase:  slices.Clone(st.joinPhase),
			center:     slices.Clone(st.center),
			offsets:    make([]int, 0, len(st.offsets)+1),
			violations: make([]int, 0, len(st.violations)+1),
		},
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
	// The prior run's cluster count is a near-exact capacity estimate, so
	// the runs copied in each phase never regrow the list.
	r.dec.Clusters = make([]partition.Cluster, 0, len(st.clusters)+16)
	return r, nil
}

// aliveAt reports whether a vertex with the given join phase (−1: never
// clustered) is alive at phase p.
func aliveAt(join int32, p int) bool { return join < 0 || int(join) >= p }

// aliveNew reports whether v is alive at the current phase in the new run,
// whose join phases are patched up to that phase; unionAlive whether v is
// alive at phase p in either run.
func (r *repairer) aliveNew(v int32) bool { return aliveAt(r.next.joinPhase[v], r.phase) }
func (r *repairer) unionAlive(v int32, p int) bool {
	return aliveAt(r.prior.joinPhase[v], p) || aliveAt(r.next.joinPhase[v], p)
}

// aliveList lists the new run's alive set, ascending, by scanning every
// vertex: only steps that cost O(n) anyway — a radius rescan, a phase
// re-simulated whole — call it.
func (r *repairer) aliveList() []int32 {
	r.aliveBuf = r.aliveBuf[:0]
	for v := range int32(r.n) {
		if r.aliveNew(v) {
			r.aliveBuf = append(r.aliveBuf, v)
		}
	}
	return r.aliveBuf
}

// truncated reports whether a phase whose largest floored radius over
// either run's alive set is unionMax has a draw the round budget cuts
// short. Delta simulation is exact only while the value gate, not the
// round budget, limits reach.
func (r *repairer) truncated(unionMax int) bool {
	return r.o.RadiusMode != RadiusExact && unionMax > r.sched.k
}

// startPhase sets the phase and its exponential rate, and records the
// vertices entering it.
func (r *repairer) startPhase(phase int) {
	r.phase = phase
	r.beta = r.sched.betas[len(r.sched.betas)-1]
	if phase < len(r.sched.betas) {
		r.beta = r.sched.betas[phase]
	}
	r.dec.AlivePerPhase = append(r.dec.AlivePerPhase, r.alive)
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
func (r *repairer) radiusStats() (radiusStats, int) {
	if r.phase >= len(r.tables) {
		rs := r.rescan()
		return rs, rs.maxFl
	}
	pf := r.tables[r.phase]
	rs := pf.radiusStats
	k := float64(r.sched.k)
	deadMax, deadFl := 0, 0
	addedFl, addedCnt := -1, 0
	for _, v := range r.diffList {
		rad := phaseRadius(r.o.Seed, r.phase, v, r.beta)
		fl := int(math.Floor(rad))
		if r.aliveNew(v) {
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
		rs = r.rescan()
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
func (r *repairer) rescan() radiusStats {
	alive := r.aliveList()
	drawRadiiSparse(r.o.Seed, r.phase, alive, r.beta, r.runner.radius)
	return scanRadii(alive, r.runner.radius, r.sched.k)
}

// certify settles a tabled, untruncated phase by delta simulation. The
// region R starts at the sources and grows only where the certificate
// fails. Certification is per connected component of R: a component whose
// boundary matched once keeps its simulated states untouched in
// runner.state and is only revisited when growth connects new vertices to
// it, so converged damage sites stop costing anything while stragglers
// keep growing. It leaves R in rList and rMask, R's new-alive part in
// trusted and the certified states in runner.state, and returns "" — or,
// past the region cap or when growth does not converge, the cause and
// reason to fall back.
func (r *repairer) certify(unionMax int) (FallbackCause, string) {
	pf := r.tables[r.phase]
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
		if !r.aliveNew(s) {
			r.growFrom(s)
		}
	}
	maxIter := max(64, 2*unionMax+16)
	for iter := 0; ; iter++ {
		if len(r.rList) > r.regionCap {
			return CauseRegionCap, fmt.Sprintf("phase %d region %d exceeds cap %d", r.phase, len(r.rList), r.regionCap)
		}
		if iter >= maxIter {
			// Growth is not converging; the damage is effectively global
			// this phase.
			return CauseNoConvergence, fmt.Sprintf("phase %d delta certificate never converged", r.phase)
		}
		r.seedsBuf, r.dirtySeeds = r.dirtySeeds, r.seedsBuf[:0]
		r.simulate(pf, r.seedsBuf, unionMax)
		if len(r.failList) == 0 {
			break
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
	r.trusted = r.trusted[:0]
	for _, v := range r.rList {
		if r.aliveNew(v) {
			r.trusted = append(r.trusted, v)
		}
	}
	return "", ""
}

// addR adds v to R if it is alive in either run, marking it a seed.
func (r *repairer) addR(v int32) {
	if r.unionAlive(v, r.phase) && !r.rMask[v] {
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
func (r *repairer) simulate(pf *phaseFinals, seeds []int32, rounds int) {
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
			if r.aliveNew(v) {
				r.runner.radius[v] = phaseRadius(r.o.Seed, r.phase, v, r.beta)
				r.simMask[v] = true
				r.simList = append(r.simList, v)
			}
		}
		for _, v := range r.compList {
			if !r.aliveNew(v) {
				continue
			}
			for _, w := range r.g.Neighbors(int(v)) {
				if r.aliveNew(w) && !r.rMask[w] && !r.shellMask[w] {
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

// patchTable brings a certified phase's table to the new run: trusted
// vertices take their certified finals (a newly alive one gains a row),
// diverged deaths leave, and the radius statistics become rs. Every other
// row already holds its final: a vertex alive in both runs outside R saw
// no divergence this phase.
func (r *repairer) patchTable(rs radiusStats) {
	pf := r.tables[r.phase]
	for _, v := range r.trusted {
		pf.set(v, r.runner.state[v])
	}
	for _, v := range r.diffList {
		if !r.aliveNew(v) {
			pf.drop(v)
		}
	}
	pf.radiusStats = rs
}

// resimulate settles a phase the prior run cannot certify — truncated
// under RadiusCap, or past the prior run's last phase — by simulating the
// whole new alive set exactly as RunWith does. That simulation decides
// every alive vertex, so all of them are trusted, and R adds the diverged
// deaths; its final states are the phase's fresh table.
func (r *repairer) resimulate(rs radiusStats) {
	alive := r.aliveList()
	drawRadiiSparse(r.o.Seed, r.phase, alive, r.beta, r.runner.radius)
	rounds := r.sched.k
	if r.o.RadiusMode == RadiusExact {
		rounds = rs.maxFl
	}
	for _, v := range alive {
		r.simMask[v] = true
	}
	r.dec.account(r.runner.runSparse(r.simMask, alive, rounds, nil))
	clearMask(r.simMask, alive)
	r.stats.RegionVertices += len(alive)
	pf := newPhaseFinals(r.n, alive, r.runner.state)
	pf.radiusStats = rs
	if r.phase < len(r.tables) {
		r.tables[r.phase] = pf
	} else {
		r.tables = append(r.tables, pf)
	}
	r.trusted = append(r.trusted[:0], alive...)
	r.rList = append(r.rList[:0], alive...)
	for _, v := range r.diffList {
		if !r.aliveNew(v) {
			r.rList = append(r.rList, v)
		}
	}
}

// compose records the phase's outcome for the trusted vertices from their
// simulated finals: a joiner takes the phase and its center, and a
// non-joiner whose entry names this phase (the prior run's join) becomes
// −1. A trusted vertex is alive, so any other entry it has is −1 or a
// later phase already; every other vertex repeats the prior run, whose
// join phase and center next already holds.
func (r *repairer) compose() {
	p := int32(r.phase)
	for _, v := range r.trusted {
		if !r.regionEver[v] {
			r.regionEver[v] = true
			r.everList = append(r.everList, v)
		}
		if s := &r.runner.state[v]; s.joins() {
			r.next.joinPhase[v], r.next.center[v] = p, s.c1
		} else if r.next.joinPhase[v] == p {
			r.next.joinPhase[v], r.next.center[v] = -1, none
		}
	}
}

// patchClusters appends the phase's clusters, colored with the next color,
// and takes their members off the alive count. The new join set J is
// {v : next.joinPhase[v] = phase}. The prior run's clusters of the phase
// are copied unless dirty (markClusters); the dirty ones and the trusted
// joiners outside clean clusters seed local searches over J that rebuild
// the rest. Clusters are emitted in ascending order of their smallest
// member, the order buildClusters derives from the ascending join set,
// so the cluster list stays bit-identical to a scratch run's. The phase's
// center violations are the prior run's, less the dirty clusters', plus
// the rebuilt ones'.
func (r *repairer) patchClusters() {
	p := int32(r.phase)
	r.markClusters()
	for _, v := range r.trusted {
		// A trusted joiner outside a clean prior cluster of this phase.
		if r.next.joinPhase[v] == p && (r.prior.joinPhase[v] != p || r.dirtyMask[r.prior.clusterOf[v]]) {
			r.rebuild(v)
		}
	}
	violations := 0
	if r.phase < len(r.prior.violations) {
		violations = r.prior.violations[r.phase]
	}
	for _, pc := range r.dirtyList {
		members := r.prior.clusters[pc].Members
		if mixedCenters(members, r.prior.center) {
			violations--
		}
		for _, u := range members {
			if r.next.joinPhase[u] == p {
				r.rebuild(int32(u))
			}
		}
	}
	for _, c := range r.rebuilt {
		if mixedCenters(c.Members, r.next.center) {
			violations++
		}
		for _, u := range c.Members {
			r.assignedMask[u] = false
		}
	}
	dec := r.dec
	start := len(dec.Clusters)
	r.emit()
	for i := start; i < len(dec.Clusters); i++ {
		dec.Clusters[i].Color = dec.Colors
		r.alive -= len(dec.Clusters[i].Members)
	}
	if len(dec.Clusters) > start {
		dec.Colors++
	}
	dec.CenterViolations += violations
	r.next.offsets = append(r.next.offsets, start)
	r.next.violations = append(r.next.violations, violations)
	for _, pc := range r.dirtyList {
		r.dirtyMask[pc] = false
	}
	r.dirtyList, r.rebuilt = r.dirtyList[:0], r.rebuilt[:0]
}

// markClusters marks dirty every prior cluster of the phase that cannot be
// copied: it lost a member, a vertex newly in J is adjacent to it, a
// changed edge touches two of J's vertices in it, or a member chose a new
// center (Claim 3 keeps a cluster's centers uniform, not unchanged). Only
// R's vertices can lose or gain membership or change center — everyone
// else repeats the prior run — and any edge between a clean cluster and
// the rest of J would imply one of those marks, so clean clusters are
// exactly J's unchanged components, centers included.
func (r *repairer) markClusters() {
	p := int32(r.phase)
	pj, nj := r.prior.joinPhase, r.next.joinPhase
	for _, v := range r.rList {
		if pj[v] == p && nj[v] != p {
			r.markDirty(v)
		}
	}
	for _, v := range r.trusted {
		switch {
		case nj[v] != p:
		case pj[v] != p:
			// Newly joined here: whatever it attaches to must merge.
			for _, w := range r.g.Neighbors(int(v)) {
				if nj[w] == p {
					r.markDirty(w)
				}
			}
		case r.next.center[v] != r.prior.center[v]:
			r.markDirty(v)
		}
	}
	for _, c := range r.chg {
		if nj[c.U] == p && nj[c.V] == p {
			r.markDirty(c.U)
			r.markDirty(c.V)
		}
	}
}

// markDirty bars v's prior cluster from being copied, if v joined it in
// this phase of the prior run.
func (r *repairer) markDirty(v int32) {
	if r.prior.joinPhase[v] != int32(r.phase) {
		return
	}
	if pc := r.prior.clusterOf[v]; pc >= 0 && !r.dirtyMask[pc] {
		r.dirtyMask[pc] = true
		r.dirtyList = append(r.dirtyList, pc)
	}
}

// rebuild adds to rebuilt the component of J holding v, unless a rebuilt
// cluster already holds it. The search cannot reach a clean cluster: a
// connecting edge would have marked it dirty.
func (r *repairer) rebuild(v int32) {
	if r.assignedMask[v] {
		return
	}
	p := int32(r.phase)
	r.assignedMask[v] = true
	r.queue = append(r.queue[:0], v)
	members := []int{int(v)}
	for head := 0; head < len(r.queue); head++ {
		for _, w := range r.g.Neighbors(int(r.queue[head])) {
			if r.next.joinPhase[w] == p && !r.assignedMask[w] {
				r.assignedMask[w] = true
				r.queue = append(r.queue, w)
				members = append(members, int(w))
			}
		}
	}
	slices.Sort(members)
	r.rebuilt = append(r.rebuilt, partition.Cluster{
		Members: members,
		Center:  int(r.next.center[members[0]]),
		Phase:   r.phase,
	})
}

// emit appends the phase's clusters: the prior range's clean clusters,
// copied in runs, merged by smallest member with the rebuilt ones.
func (r *repairer) emit() {
	lo, hi := 0, 0
	if r.phase+1 < len(r.prior.offsets) {
		lo, hi = r.prior.offsets[r.phase], r.prior.offsets[r.phase+1]
	}
	slices.Sort(r.dirtyList)
	slices.SortFunc(r.rebuilt, func(a, b partition.Cluster) int { return cmp.Compare(a.Members[0], b.Members[0]) })
	byFirst := func(c partition.Cluster, m int) int { return cmp.Compare(c.Members[0], m) }
	from := lo
	for _, c := range r.rebuilt {
		at, _ := slices.BinarySearchFunc(r.prior.clusters[from:hi], c.Members[0], byFirst)
		from = r.adopt(from, from+at)
		r.dec.Clusters = append(r.dec.Clusters, c)
	}
	r.adopt(from, hi)
}

// adopt appends the clean prior clusters in [from, to), one append per run
// between the dirty ones, and returns to.
func (r *repairer) adopt(from, to int) int {
	for from < to {
		end := to
		if i, _ := slices.BinarySearch(r.dirtyList, from); i < len(r.dirtyList) && r.dirtyList[i] < to {
			end = r.dirtyList[i]
		}
		r.dec.Clusters = append(r.dec.Clusters, r.prior.clusters[from:end]...)
		from = end + 1
	}
	return to
}

// advance moves both runs past the phase. Only R's vertices can be
// diverged at the next phase — everyone else repeated the prior run — so
// the divergence list is rebuilt from R alone, and R is cleared. A changed
// edge stays relevant only while both endpoints survive in at least one
// run; death is permanent, so pruning is too.
func (r *repairer) advance() {
	next := r.phase + 1
	r.diffList = r.diffList[:0]
	for _, v := range r.rList {
		if aliveAt(r.prior.joinPhase[v], next) != aliveAt(r.next.joinPhase[v], next) {
			r.diffList = append(r.diffList, v)
		}
	}
	clearMask(r.rMask, r.rList)
	r.rList = r.rList[:0]
	k := 0
	for _, c := range r.chg {
		if r.unionAlive(c.U, next) && r.unionAlive(c.V, next) {
			r.chg[k] = c
			k++
		}
	}
	r.chg = r.chg[:k]
	r.dec.PhasesUsed++
}

// finish closes the new run and hands on its state: ClusterOf is written
// in one pass over the clusters, the tables are cut to the phases it ran,
// and nothing in the state points into the repairer's scratch. A result
// cluster counts as repaired when it holds a vertex some phase trusted.
func (r *repairer) finish() (*Decomposition, *RepairState, RepairStats, error) {
	dec := r.dec
	dec.AlivePerPhase = append(dec.AlivePerPhase, r.alive)
	dec.Complete = r.alive == 0
	for ci, c := range dec.Clusters {
		for _, v := range c.Members {
			dec.ClusterOf[v] = ci
		}
	}
	// Tables past the new run's last phase describe phases it never ran.
	clear(r.tables[dec.PhasesUsed:])
	r.next.phases = r.tables[:dec.PhasesUsed]
	r.next.offsets = append(r.next.offsets, len(dec.Clusters))
	r.next.clusters, r.next.clusterOf = dec.Clusters, dec.ClusterOf

	r.stats.TotalClusters = len(dec.Clusters)
	repaired := make([]bool, len(dec.Clusters))
	for _, v := range r.everList {
		if ci := dec.ClusterOf[v]; ci >= 0 && !repaired[ci] {
			repaired[ci] = true
			r.stats.RepairedClusters++
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
// capture, surfaced with the triggering cause and reason in the stats.
func repairFallback(g graph.Interface, o Options, stats RepairStats, cause FallbackCause, reason string) (*Decomposition, *RepairState, RepairStats, error) {
	stats.FellBack = true
	stats.FallbackCause = cause
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
