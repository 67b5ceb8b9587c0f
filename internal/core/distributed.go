package core

import (
	"context"
	"fmt"
	"slices"

	"netdecomp/internal/dist"
	"netdecomp/internal/graph"
	"netdecomp/internal/randx"
)

// Msg is the CONGEST wire format of the algorithm. A message is either a
// departure notification ("I joined a cluster, remove me from G_t", one
// word) or up to two (center, shifted value) entries — the top-two
// forwarding rule of Section 2 of the paper, two words per entry.
type Msg struct {
	// Depart marks a departure notification sent when the sender joins a
	// cluster at the end of a phase.
	Depart bool
	// NumEntries is 1 or 2 for broadcast messages.
	NumEntries int
	C1, C2     int32
	V1, V2     float64
}

// Words reports the CONGEST size of the message: every entry is a (center,
// value) pair of two words; departures are a single word. This is the
// "each message consists of O(1) words" guarantee of Theorems 1–3, checked
// by experiment T10.
func (m Msg) Words() int {
	if m.Depart {
		return 1
	}
	return 2 * m.NumEntries
}

var _ dist.WordCounter = Msg{}

// program is the per-node state machine of the decomposition algorithm,
// executed by the internal/dist engine. Every slice is indexed by node, or
// (alive) by node's own window; Step(node, ...) touches only node's
// entries, so the parallel scheduler needs no extra synchronization.
type program struct {
	g         graph.Interface
	opts      Options
	sched     schedule
	maxPhases int
	phaseLen  int // k exchange rounds + 1 decision round

	state       []topTwo
	radius      []float64
	joinedPhase []int // -1 while unclustered
	center      []int

	// alive[nbrOff[v] : nbrOff[v]+aliveLen[v]] is v's row of neighbors
	// still in the surviving graph, ascending: an int32 copy of the
	// adjacency rows that departures shrink in place. Step(node, ...)
	// writes only node's own row, so the parallel scheduler stays
	// race-free, and the row is the receiver list of node's Sends.
	nbrOff   []int64
	alive    []int32
	aliveLen []int32

	// send[v] is v's one reusable Send, borrowed by the engine until
	// commit (see dist.Program) and recycled on v's next Step.
	send []dist.Send[Msg]
}

func newProgram(g graph.Interface, o Options, s schedule) *program {
	n := g.N()
	maxPhases := s.budget
	if o.ForceComplete {
		maxPhases = 64*s.budget + 1024
	}
	p := &program{
		g:           g,
		opts:        o,
		sched:       s,
		maxPhases:   maxPhases,
		phaseLen:    s.k + 1,
		state:       make([]topTwo, n),
		radius:      make([]float64, n),
		joinedPhase: make([]int, n),
		center:      make([]int, n),
		nbrOff:      make([]int64, n+1),
		aliveLen:    make([]int32, n),
		send:        make([]dist.Send[Msg], n),
	}
	for v := 0; v < n; v++ {
		p.joinedPhase[v] = -1
		p.center[v] = none
		p.nbrOff[v+1] = p.nbrOff[v] + int64(g.Degree(v))
		p.aliveLen[v] = int32(g.Degree(v))
	}
	p.alive = make([]int32, p.nbrOff[n])
	for v := 0; v < n; v++ {
		copy(p.alive[p.nbrOff[v]:], g.Neighbors(v))
	}
	return p
}

// aliveRow returns node's row of surviving neighbors, ascending.
func (p *program) aliveRow(node int) []int32 {
	lo := p.nbrOff[node]
	return p.alive[lo : lo+int64(p.aliveLen[node])]
}

// markDeparted removes neighbor from from node's row of surviving
// neighbors: a binary search, then a shift of the row's tail.
func (p *program) markDeparted(node, from int) {
	row := p.aliveRow(node)
	if i, ok := slices.BinarySearch(row, int32(from)); ok {
		copy(row[i:], row[i+1:])
		p.aliveLen[node]--
	}
}

// sendTo makes msg node's one Send of the round, to every surviving
// neighbor.
func (p *program) sendTo(node int, msg Msg) []dist.Send[Msg] {
	p.send[node] = dist.Send[Msg]{To: p.aliveRow(node), Payload: msg}
	return p.send[node : node+1]
}

// NumNodes implements dist.Program.
func (p *program) NumNodes() int { return p.g.N() }

// beta returns the exponential rate of the given phase, extending the
// schedule with its final rate under ForceComplete.
func (p *program) beta(phase int) float64 {
	if phase < len(p.sched.betas) {
		return p.sched.betas[phase]
	}
	return p.sched.betas[len(p.sched.betas)-1]
}

// sendEntries broadcasts the node's current top-two entries with value
// ≥ 1 to all surviving neighbors, or sends nothing when there are none.
func (p *program) sendEntries(node int) []dist.Send[Msg] {
	s := &p.state[node]
	var msg Msg
	if s.c1 != none && s.v1 >= 1 {
		msg.C1, msg.V1 = s.c1, s.v1
		msg.NumEntries = 1
	}
	if s.c2 != none && s.v2 >= 1 {
		if msg.NumEntries == 1 {
			msg.C2, msg.V2 = s.c2, s.v2
			msg.NumEntries = 2
		} else {
			msg.C1, msg.V1 = s.c2, s.v2
			msg.NumEntries = 1
		}
	}
	if msg.NumEntries == 0 {
		return nil
	}
	return p.sendTo(node, msg)
}

// mergeInbox folds received broadcast entries into the node's state,
// reporting whether anything changed.
func (p *program) mergeInbox(node int, in []dist.Envelope[Msg]) bool {
	changed := false
	for _, env := range in {
		m := env.Payload
		if m.Depart {
			continue
		}
		if m.NumEntries >= 1 && p.state[node].merge(m.C1, m.V1-1) {
			changed = true
		}
		if m.NumEntries >= 2 && p.state[node].merge(m.C2, m.V2-1) {
			changed = true
		}
	}
	return changed
}

// Step implements dist.Program: the synchronized phase schedule described
// in the package comment. Round r belongs to phase r/(k+1); within a
// phase, sub-round 0 draws the radius and starts the broadcast, sub-rounds
// 1..k-1 forward top-two improvements, and sub-round k applies the join
// rule and emits departures.
func (p *program) Step(node, round int, in []dist.Envelope[Msg]) ([]dist.Send[Msg], bool) {
	phase := round / p.phaseLen
	sub := round % p.phaseLen

	if sub == 0 {
		// Departures from the previous phase's joiners arrive now.
		for _, env := range in {
			if env.Payload.Depart {
				p.markDeparted(node, env.From)
			}
		}
		if phase >= p.maxPhases {
			// Budget exhausted; give up unclustered.
			return nil, true
		}
		rng := randx.Derive(p.opts.Seed, uint64(phase), uint64(node))
		p.radius[node] = randx.Exp(rng, p.beta(phase))
		p.state[node].reset()
		p.state[node].merge(int32(node), p.radius[node])
		return p.sendEntries(node), false
	}

	changed := p.mergeInbox(node, in)

	if sub < p.sched.k {
		if !changed {
			return nil, false
		}
		return p.sendEntries(node), false
	}

	// Decision sub-round.
	if p.state[node].joins() {
		p.joinedPhase[node] = phase
		p.center[node] = int(p.state[node].c1)
		return p.sendTo(node, Msg{Depart: true}), true
	}
	return nil, false
}

// nodeProgramError reports the resolved options RunDistributed refuses
// whatever the graph: RadiusExact, because a node cannot locally know the
// global maximum radius, and CaptureTrace, which only Run records.
func (o Options) nodeProgramError() error {
	switch {
	case o.RadiusMode == RadiusExact:
		return fmt.Errorf("core: RadiusExact requires global knowledge and is not implementable as a node program; use Run")
	case o.CaptureTrace:
		return fmt.Errorf("core: CaptureTrace is only supported by Run")
	}
	return nil
}

// RunDistributed executes the decomposition as a true message-passing
// program on the internal/dist engine (sequential or goroutine-parallel
// per engineOpts) and assembles the resulting Decomposition, whose Metrics
// are the raw engine metrics. Cancellation via ctx stops the engine at the
// next round barrier and returns ctx.Err(); per-round observation is
// available through engineOpts.Observer.
//
// For equal Options (including Seed) it produces exactly the same clusters
// as Run; the integration tests assert this. RadiusExact is not supported
// here because a node cannot locally know the global maximum radius; use
// Run for that mode.
func RunDistributed(ctx context.Context, g graph.Interface, o Options, engineOpts dist.Options) (*Decomposition, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := g.N()
	o2, sched, err := resolve(n, o)
	if err == nil {
		err = o2.nodeProgramError()
	}
	if err != nil {
		return nil, err
	}
	p := newProgram(g, o2, sched)
	if engineOpts.MaxRounds == 0 {
		engineOpts.MaxRounds = (p.maxPhases+1)*p.phaseLen + 4
	}
	metrics, err := dist.Run[Msg](ctx, p, engineOpts)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("core: distributed execution failed: %w", err)
	}

	dec := newDecomposition(n, o2, sched)
	dec.Metrics = metrics

	// Group joiners by phase and rebuild clusters in phase order. A
	// complete run executes phases up to the last join; an incomplete one
	// ran the whole budget with the survivors stepping every phase.
	lastPhase := -1
	unjoined := 0
	for v := 0; v < n; v++ {
		if p.joinedPhase[v] > lastPhase {
			lastPhase = p.joinedPhase[v]
		}
		if p.joinedPhase[v] < 0 {
			unjoined++
		}
	}
	phasesExecuted := lastPhase + 1
	if unjoined > 0 && n > 0 {
		phasesExecuted = p.maxPhases
	}
	// Bucket joiners by phase with one counting pass (ascending ids within
	// each bucket, subslices of one backing array) instead of rescanning
	// all n vertices per phase.
	offsets := make([]int, phasesExecuted+1)
	for v := 0; v < n; v++ {
		if ph := p.joinedPhase[v]; ph >= 0 {
			offsets[ph+1]++
		}
	}
	for ph := 0; ph < phasesExecuted; ph++ {
		offsets[ph+1] += offsets[ph]
	}
	joinedAll := make([]int, n-unjoined)
	cursor := make([]int, phasesExecuted)
	copy(cursor, offsets[:phasesExecuted])
	for v := 0; v < n; v++ {
		if ph := p.joinedPhase[v]; ph >= 0 {
			joinedAll[cursor[ph]] = v
			cursor[ph]++
		}
	}
	alive := n
	for phase := 0; phase < phasesExecuted; phase++ {
		joined := joinedAll[offsets[phase]:offsets[phase+1]]
		dec.AlivePerPhase = append(dec.AlivePerPhase, alive)
		if len(joined) > 0 {
			dec.buildClusters(g, joined, p.center, phase, dec.Colors)
			dec.Colors++
			alive -= len(joined)
		}
	}
	dec.AlivePerPhase = append(dec.AlivePerPhase, alive)
	dec.Complete = unjoined == 0
	dec.PhasesUsed = phasesExecuted
	return dec, nil
}
