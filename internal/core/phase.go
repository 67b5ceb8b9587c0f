package core

import (
	"math"
	"slices"

	"netdecomp/internal/graph"
	"netdecomp/internal/obs"
	"netdecomp/internal/randx"
)

// none marks an empty top-two slot.
const none = -1

// topTwo is the per-vertex state of the shifted-value broadcast: the two
// largest values m = r_v − d(y, v) seen so far, with their centers.
// Ties (which have probability zero for continuous draws) break toward the
// smaller center id so that every execution order yields the same state.
// Centers are int32 like the CSR's vertex ids, which keeps the struct at
// 24 bytes: it is the simulation's per-vertex state and the row of every
// repair table.
type topTwo struct {
	c1, c2 int32
	v1, v2 float64
}

// reset empties both slots.
func (t *topTwo) reset() {
	t.c1, t.c2 = none, none
	t.v1, t.v2 = 0, 0
}

// beats reports whether candidate (c, m) outranks incumbent (ci, vi).
func beats(m float64, c int32, vi float64, ci int32) bool {
	if ci == none {
		return true
	}
	return m > vi || (m == vi && c < ci)
}

// merge folds the value m for center c into the top-two state and reports
// whether the state changed. Values for a center already present can only
// be superseded by larger ones (shorter paths), but the merge is written to
// be correct under any arrival order. Because merges only ever improve the
// state and ties break by center id, the final state — and therefore the
// whole phase — is independent of delivery order: the next frontier can
// stay in discovery order, and the engine program, which folds its inbox
// in another order, reaches the same states.
//
// A value below a filled second slot is rejected by its first compare: it
// loses to both slots whatever its center, and if its center holds a slot
// it is no improvement there either. Most merges of a dense phase are such
// values, so the center switch below runs for the few that can win.
func (t *topTwo) merge(c int32, m float64) bool {
	if m < t.v2 && t.c2 != none {
		return false
	}
	switch c {
	case t.c1:
		if m > t.v1 {
			t.v1 = m
			return true
		}
		return false
	case t.c2:
		if m <= t.v2 {
			return false
		}
		t.v2 = m
		if beats(t.v2, t.c2, t.v1, t.c1) {
			t.c1, t.c2 = t.c2, t.c1
			t.v1, t.v2 = t.v2, t.v1
		}
		return true
	}
	if beats(m, c, t.v1, t.c1) {
		t.c2, t.v2 = t.c1, t.v1
		t.c1, t.v1 = c, m
		return true
	}
	if beats(m, c, t.v2, t.c2) {
		t.c2, t.v2 = c, m
		return true
	}
	return false
}

// second returns the paper's m₂: the second-largest value, or 0 when only
// one broadcast reached the vertex ("if s = 1 ... define m₂ = 0").
func (t *topTwo) second() float64 {
	if t.c2 == none {
		return 0
	}
	return t.v2
}

// joins applies the clustering rule: join the block iff m₁ − m₂ > 1.
func (t *topTwo) joins() bool {
	return t.c1 != none && t.v1-t.second() > 1
}

// phaseResult is the outcome of a single phase.
type phaseResult struct {
	joined      []int // vertices that joined the block, ascending
	centers     []int // centers[v] = chosen center for joined v (stale for dead vertices)
	rounds      int
	messages    int64
	words       int64
	maxMsgWords int
	truncations int // draws with r_v >= k+1 (events E_v)
}

// roundAcc is the delivery loop's accumulator for one round: its traffic
// counters and the next frontier it discovers.
type roundAcc struct {
	msgs, words int64
	maxw        int
	next        []int32
}

// sendMsg is a frontier vertex's frozen broadcast for one round: up to two
// (center, value ≥ 1) entries.
type sendMsg struct {
	k      int32
	c1, c2 int32
	v1, v2 float64
}

// phaseRunner holds reusable scratch for the per-phase simulation so that a
// multi-phase run performs O(1) allocations per phase.
//
// The simulation is frontier-sparse: instead of scanning all n vertices
// every round, it keeps an explicit worklist of the vertices whose top-two
// state changed in the previous round (exactly the vertices the algorithm
// obliges to send) and a per-phase compacted CSR view of the surviving
// graph, so one round costs O(frontier + messages delivered) — the
// activity the paper's analysis charges — rather than O(n).
type phaseRunner struct {
	g graph.Interface

	radius  []float64 // exponential draws of the current phase
	state   []topTwo
	snap    []topTwo // frozen sender states (valid on frontier entries only)
	dirty   []bool   // already on the next frontier
	centers []int

	frontier []int32 // vertices that must send this round, ascending
	next     []int32

	// Compacted CSR over the surviving graph, rebuilt once per phase: the
	// alive-neighbor filter is paid once instead of on every round's every
	// edge. rowOf[v] indexes rowStart for alive v (stale for dead ones,
	// which never appear on a frontier).
	rowOf    []int32
	rowStart []int64
	cAdj     []int32

	// Telemetry histograms, set by RunWith when an Exec.Recorder is
	// attached: sender-frontier size of every executed broadcast round, and
	// per phase the number of rounds that carried messages vs. stayed
	// quiet. All nil (and never touched beyond a nil test) with telemetry
	// off.
	obsFrontier    *obs.Histogram
	obsPhaseActive *obs.Histogram
	obsPhaseQuiet  *obs.Histogram
}

// newPhaseRunner allocates scratch for graphs on n vertices.
func newPhaseRunner(g graph.Interface) *phaseRunner {
	n := g.N()
	return &phaseRunner{
		g:        g,
		radius:   make([]float64, n),
		state:    make([]topTwo, n),
		snap:     make([]topTwo, n),
		dirty:    make([]bool, n),
		centers:  make([]int, n),
		rowOf:    make([]int32, n),
		rowStart: make([]int64, 0, n+1),
	}
}

// row returns alive vertex v's compacted (alive-filtered) adjacency row.
func (p *phaseRunner) row(v int) []int32 {
	ri := p.rowOf[v]
	return p.cAdj[p.rowStart[ri]:p.rowStart[ri+1]]
}

// drawRadii samples r_v ~ Exp(beta) for every alive vertex from its
// per-vertex, per-phase stream. Dead vertices get 0. The draws are a pure
// function of (seed, phase, v), which is what makes the centralized
// simulation, the exact BFS reference and the message-passing execution
// bit-identical.
func drawRadii(seed uint64, phase int, alive []bool, beta float64, into []float64) {
	for v := range into {
		if alive == nil || alive[v] {
			rng := randx.Derive(seed, uint64(phase), uint64(v))
			into[v] = randx.Exp(rng, beta)
		} else {
			into[v] = 0
		}
	}
}

// drawRadiiSparse is drawRadii restricted to the alive vertices: entries of
// dead vertices are left stale and must not be read (RunWith reconstructs
// zeroed trace copies itself).
func drawRadiiSparse(seed uint64, phase int, aliveList []int32, beta float64, into []float64) {
	for _, v := range aliveList {
		rng := randx.Derive(seed, uint64(phase), uint64(v))
		into[v] = randx.Exp(rng, beta)
	}
}

// runSparse executes one phase on the surviving graph: the synchronous
// top-two broadcast for the given number of rounds, then the join rule.
// alive is not modified, and radius must already hold the phase's draws.
// aliveList must hold exactly the vertices with alive[v] == true,
// ascending.
//
// Each round, every vertex whose top-two list changed in the previous round
// sends its (up to two) entries with value ≥ 1 to every alive neighbor;
// receivers fold the entries in decremented by one (one more hop). This
// value gating implements exactly the ⌊r_v⌋-ball broadcast: a value
// arriving at distance d from its center is r_v − d ≥ 0 iff d ≤ ⌊r_v⌋.
// The send obligation is tracked as an explicit worklist (the frontier);
// everything a round does is proportional to that frontier and the
// messages it delivers, never to n.
//
// When emit is non-nil it is called once per budgeted broadcast round with
// that round's message/word traffic (zeros for rounds after the broadcast
// went quiet), and one final time for the phase's decision round carrying
// the departure notifications — mirroring the k+1 sub-round structure of
// the engine execution.
func (p *phaseRunner) runSparse(alive []bool, aliveList []int32, rounds int, emit func(msgs, words int64)) phaseResult {
	return p.runSparseSeeded(alive, aliveList, rounds, emit, nil)
}

// runSparseSeeded is runSparse with optional preset initial states: when
// preset returns ok for a listed vertex, that vertex starts the phase from
// the returned top-two state instead of the usual reset-plus-own-radius
// seeding, and broadcasts it from round 0. The repair path uses this to
// freeze a region's boundary at the prior run's final states — a converged
// state re-broadcast from round 0 reaches exactly the vertices its values'
// ⌊·⌋ hop budgets allow, which (absent truncation) is the same set the
// original timed arrivals reached.
func (p *phaseRunner) runSparseSeeded(alive []bool, aliveList []int32, rounds int, emit func(msgs, words int64), preset func(v int32) (topTwo, bool)) phaseResult {
	var res phaseResult
	res.rounds = rounds

	// Per-phase init: reset state, seed every alive vertex onto the round-0
	// frontier, and compact the surviving graph's adjacency (hoisting the
	// alive-neighbor filter out of the round loop). The alive rows' degree
	// sum bounds the compacted size, so cAdj grows at most once per phase
	// instead of by repeated appends.
	need := 0
	for _, v := range aliveList {
		need += p.g.Degree(int(v))
	}
	p.cAdj = slices.Grow(p.cAdj[:0], need)
	p.frontier = p.frontier[:0]
	p.rowStart = p.rowStart[:0]
	for _, v32 := range aliveList {
		v := int(v32)
		if s, ok := presetState(preset, v32); ok {
			p.state[v] = s
		} else {
			p.state[v].reset()
			p.state[v].merge(v32, p.radius[v])
		}
		p.dirty[v] = false
		p.centers[v] = none
		p.frontier = append(p.frontier, v32)
		p.rowOf[v] = int32(len(p.rowStart))
		p.rowStart = append(p.rowStart, int64(len(p.cAdj)))
		for _, w := range p.g.Neighbors(v) {
			if alive[w] {
				p.cAdj = append(p.cAdj, w)
			}
		}
	}
	p.rowStart = append(p.rowStart, int64(len(p.cAdj)))

	emitted := 0
	activeRounds := 0
	for round := 0; round < rounds; round++ {
		if p.obsFrontier != nil {
			p.obsFrontier.Observe(int64(len(p.frontier)))
		}
		// Freeze the sending states so a value moves one hop per round.
		for _, v := range p.frontier {
			p.snap[v] = p.state[v]
		}
		roundMsgs, roundWords := res.messages, res.words
		p.runRound(&res)
		// The next frontier is kept in discovery order: top-two merges are
		// order-independent (see merge) and every per-round statistic is a
		// sum or max, so no observable output depends on the iteration
		// order and sorting it would only burn the cycles the worklist
		// just saved. The dirty flags keep it duplicate-free.
		p.frontier, p.next = p.next, p.frontier[:0]
		for _, w := range p.frontier {
			p.dirty[w] = false
		}
		if emit != nil {
			emit(res.messages-roundMsgs, res.words-roundWords)
			emitted++
		}
		if res.messages == roundMsgs {
			// All broadcasts have gone quiet; the remaining rounds would
			// carry no messages. They still count toward the round budget,
			// which res.rounds already reflects.
			break
		}
		activeRounds++
	}
	if emit != nil {
		for ; emitted < rounds; emitted++ {
			emit(0, 0)
		}
	}
	if p.obsPhaseActive != nil {
		p.obsPhaseActive.Observe(int64(activeRounds))
		p.obsPhaseQuiet.Observe(int64(rounds - activeRounds))
	}

	res.joined = res.joined[:0]
	for _, v32 := range aliveList {
		v := int(v32)
		if p.state[v].joins() {
			res.joined = append(res.joined, v)
			p.centers[v] = int(p.state[v].c1)
		}
	}
	res.centers = p.centers

	// Departure notifications: each newly clustered vertex tells its alive
	// neighbors it is leaving G_t (one word each), which is how survivors
	// know the next phase's topology. The compacted row is exactly the
	// alive neighborhood, so its length is the fan-out.
	departMsgs, departWords := res.messages, res.words
	for _, v := range res.joined {
		deg := int64(len(p.row(v)))
		res.messages += deg
		res.words += deg
	}
	if res.maxMsgWords == 0 && len(res.joined) > 0 {
		res.maxMsgWords = 1
	}
	if emit != nil {
		// The decision round of the phase (sub-round k of the engine
		// execution): only departures travel.
		emit(res.messages-departMsgs, res.words-departWords)
	}
	return res
}

// loadSend reads vertex v's frozen broadcast for this round; ok is false
// when nothing meets the value ≥ 1 forwarding gate. The entries keep the
// state's order, so m.v1 ≥ m.v2 when m.k is 2.
func (p *phaseRunner) loadSend(v int) (m sendMsg, ok bool) {
	s := &p.snap[v]
	if s.c1 != none && s.v1 >= 1 {
		m.c1, m.v1 = s.c1, s.v1
		m.k = 1
	}
	if s.c2 != none && s.v2 >= 1 {
		if m.k == 1 {
			m.c2, m.v2 = s.c2, s.v2
			m.k = 2
		} else {
			m.c1, m.v1 = s.c2, s.v2
			m.k = 1
		}
	}
	return m, m.k > 0
}

// deliver is the round's delivery loop: it folds sender message m, one
// hop on, into every receiver in row and appends each receiver whose
// state changed to acc.next (the dirty flags keep the next frontier
// duplicate-free). Traffic is counted once per sender: one message of
// 2·k words to each receiver.
//
// A receiver whose filled second slot is above the first entry's
// decremented value is skipped after one compare: the second entry is no
// larger, so neither can change its state (see merge).
func (p *phaseRunner) deliver(acc *roundAcc, m sendMsg, row []int32) {
	if len(row) == 0 {
		return
	}
	words := int(2 * m.k)
	acc.msgs += int64(len(row))
	acc.words += int64(len(row) * words)
	acc.maxw = max(acc.maxw, words)
	c1, d1 := m.c1, m.v1-1
	c2, d2 := m.c2, m.v2-1
	two := m.k == 2
	for _, w := range row {
		s := &p.state[w]
		if d1 < s.v2 && s.c2 != none {
			continue
		}
		changed := s.merge(c1, d1)
		if two && s.merge(c2, d2) {
			changed = true
		}
		if changed && !p.dirty[w] {
			p.dirty[w] = true
			acc.next = append(acc.next, w)
		}
	}
}

// runRound delivers one round's frontier broadcasts in ascending sender
// order, collecting the next frontier in discovery order.
func (p *phaseRunner) runRound(res *phaseResult) {
	acc := roundAcc{next: p.next}
	for _, v32 := range p.frontier {
		v := int(v32)
		if m, ok := p.loadSend(v); ok {
			p.deliver(&acc, m, p.row(v))
		}
	}
	res.messages += acc.msgs
	res.words += acc.words
	res.maxMsgWords = max(res.maxMsgWords, acc.maxw)
	p.next = acc.next
}

// presetState consults an optional preset hook (nil-safe).
func presetState(preset func(v int32) (topTwo, bool), v int32) (topTwo, bool) {
	if preset == nil {
		return topTwo{}, false
	}
	return preset(v)
}

// countTruncationsSparse counts alive vertices whose draw meets or exceeds
// k+1 — the events E_v of Lemma 1.
func countTruncationsSparse(aliveList []int32, radius []float64, k int) int {
	t := 0
	for _, v := range aliveList {
		if radius[v] >= float64(k)+1 {
			t++
		}
	}
	return t
}

// maxFlooredRadiusSparse returns max_v ⌊r_v⌋ over the alive worklist (at
// least 0), the exact per-phase round requirement of RadiusExact mode.
func maxFlooredRadiusSparse(aliveList []int32, radius []float64) int {
	max := 0
	for _, v := range aliveList {
		if fl := int(math.Floor(radius[v])); fl > max {
			max = fl
		}
	}
	return max
}
