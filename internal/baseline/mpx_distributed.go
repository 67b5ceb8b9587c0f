package baseline

import (
	"context"
	"fmt"
	"math"

	"netdecomp/internal/dist"
	"netdecomp/internal/graph"
	"netdecomp/internal/partition"
)

// MPXMsg is the CONGEST wire format of the round-based MPX broadcast: one
// (center, shifted value) pair — top-1 forwarding, which is lossless for a
// partition because only the winner matters (the same argument that makes
// the paper's top-2 rule lossless for the decomposition's two-value
// comparison).
type MPXMsg struct {
	Center int32
	Value  float64
}

// Words reports the CONGEST size: a (center, value) pair of two words.
func (m MPXMsg) Words() int { return 2 }

var _ dist.WordCounter = MPXMsg{}

// mpxProgram is the per-node state machine of the MPX broadcast, executed
// by the internal/dist engine. Every slice is indexed by node; Step(node,
// ...) touches only index node, so the parallel scheduler is safe.
//
// Each node starts with its own shifted value δ_v and repeatedly forwards
// its current best (center, value) pair decremented by one hop, keeping
// only the maximum (ties toward the smaller center id). All waves die out
// after lastRound = max_v ⌊δ_v⌋ rounds — a value must be ≥ 1 to be
// forwarded, so the broadcast from v travels at most ⌊δ_v⌋ hops — and the
// nodes halt there. lastRound is global knowledge distributed to every
// node up front, standing in for the O(log n / β)-round max-aggregation a
// fully local execution would prepend.
type mpxProgram struct {
	g         graph.Interface
	lastRound int

	winner  []int
	value   []float64
	changed []bool
	// send[v] is v's one reusable Send, to its whole adjacency row:
	// borrowed by the engine until commit (see dist.Program) and recycled
	// on v's next Step. The row is the graph's own, which the engine
	// never writes.
	send []dist.Send[MPXMsg]
}

func newMPXProgram(g graph.Interface, delta []float64) *mpxProgram {
	n := g.N()
	p := &mpxProgram{
		g:       g,
		winner:  make([]int, n),
		value:   make([]float64, n),
		changed: make([]bool, n),
		send:    make([]dist.Send[MPXMsg], n),
	}
	for v := 0; v < n; v++ {
		p.winner[v] = v
		p.value[v] = delta[v]
		p.changed[v] = true
		if fl := int(math.Floor(delta[v])); fl > p.lastRound {
			p.lastRound = fl
		}
	}
	return p
}

// NumNodes implements dist.Program.
func (p *mpxProgram) NumNodes() int { return p.g.N() }

// Step implements dist.Program: merge the neighbors' decremented offers,
// then forward the node's best pair if it improved and can still travel.
func (p *mpxProgram) Step(node, round int, in []dist.Envelope[MPXMsg]) ([]dist.Send[MPXMsg], bool) {
	if round > 0 {
		ch := false
		for _, env := range in {
			m := env.Payload
			c := int(m.Center)
			if m.Value > p.value[node] || (m.Value == p.value[node] && c < p.winner[node]) {
				p.value[node] = m.Value
				p.winner[node] = c
				ch = true
			}
		}
		p.changed[node] = ch
	}
	halt := round >= p.lastRound
	if !p.changed[node] || p.value[node] < 1 {
		return nil, halt
	}
	msg := MPXMsg{Center: int32(p.winner[node]), Value: p.value[node] - 1}
	p.send[node] = dist.Send[MPXMsg]{To: p.g.Neighbors(node), Payload: msg}
	return p.send[node : node+1], halt
}

// MPXOnEngine computes the same Miller–Peng–Xu partition as MPX, but as a
// true node program on the internal/dist message-passing engine, so its
// Metrics are real engine accounting. It must agree with MPX exactly on
// every cluster for the same options; the tests assert that. The engine
// options select the scheduler and per-round observation, and ctx cancels
// between rounds.
func MPXOnEngine(ctx context.Context, g graph.Interface, o MPXOptions, engineOpts dist.Options) (*partition.Partition, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	n := g.N()
	res := newMPXPartition("mpx/dist", n)
	if n == 0 {
		return res, nil
	}

	p := newMPXProgram(g, shifts(o, n))
	if engineOpts.MaxRounds == 0 {
		engineOpts.MaxRounds = p.lastRound + 2
	}
	metrics, err := dist.Run[MPXMsg](ctx, p, engineOpts)
	if err != nil {
		if ctx != nil && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("baseline: MPX engine execution failed: %w", err)
	}

	addClustersByWinner(res, p.winner)
	res.Metrics = metrics
	finishMPX(g, res, p.winner)
	return res, nil
}
