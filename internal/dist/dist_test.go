package dist

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
)

// words is a payload whose CONGEST size is its own value.
type words int

func (w words) Words() int { return int(w) }

// relay is a path program: node 0 emits a token to node 1 in round 0 and
// halts; node i halts after forwarding the token to node i+1. Each node
// records the round in which the token reached it.
type relay struct {
	n          int
	receivedAt []int
}

func newRelay(n int) *relay {
	r := &relay{n: n, receivedAt: make([]int, n)}
	for i := range r.receivedAt {
		r.receivedAt[i] = -1
	}
	return r
}

func (r *relay) NumNodes() int { return r.n }

func (r *relay) Step(node, round int, in []Envelope[words]) ([]Send[words], bool) {
	if node == 0 && round == 0 {
		r.receivedAt[0] = 0
		return []Send[words]{{To: []int32{1}, Payload: 1}}, true
	}
	if len(in) == 0 {
		return nil, false
	}
	r.receivedAt[node] = round
	if node == r.n-1 {
		return nil, true
	}
	return []Send[words]{{To: []int32{int32(node + 1)}, Payload: 1}}, true
}

func TestRelayDoubleBuffering(t *testing.T) {
	// A message sent in round r must arrive exactly in round r+1: the token
	// leaves node 0 in round 0 and reaches node i in round i, never earlier.
	const n = 16
	for _, o := range []Options{{}, {Parallel: true, Workers: 4}} {
		p := newRelay(n)
		m, err := Run[words](context.Background(), p, o)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < n; v++ {
			if p.receivedAt[v] != v {
				t.Fatalf("parallel=%v: node %d got the token in round %d, want %d", o.Parallel, v, p.receivedAt[v], v)
			}
		}
		if m.Rounds != n {
			t.Fatalf("parallel=%v: rounds = %d, want %d", o.Parallel, m.Rounds, n)
		}
		if m.Messages != n-1 || m.Words != n-1 || m.MaxMessageWords != 1 {
			t.Fatalf("parallel=%v: metrics %+v, want %d unit messages", o.Parallel, m, n-1)
		}
	}
}

// gossip is a ring program used by the determinism and accounting tests:
// for rounds rounds, every node sends its (node+round)-dependent payload to
// both ring neighbors in one Send, odd nodes also send a second payload to
// their right neighbor in a second Send, and every node logs every payload
// it receives, then halts. Like the real programs, it hands the engine
// per-node buffers that it reuses every round.
type gossip struct {
	n, rounds int
	log       [][]words // log[v] = payloads received by v, in arrival order
	ring      []int32   // ring[2v:2v+2] = v's left and right neighbors
	out       []Send[words]
}

func newGossip(n, rounds int) *gossip {
	g := &gossip{n: n, rounds: rounds, log: make([][]words, n), ring: make([]int32, 2*n), out: make([]Send[words], 2*n)}
	for v := 0; v < n; v++ {
		g.ring[2*v], g.ring[2*v+1] = int32((v+n-1)%n), int32((v+1)%n)
	}
	return g
}

// gossipPayloads returns the payloads node sends in round: the first to
// both neighbors, the second (odd nodes only) to the right neighbor.
func gossipPayloads(node, round int) (words, words) {
	return words(1 + (node+round)%4), words(1 + (node+round+2)%4)
}

func (g *gossip) NumNodes() int { return g.n }

func (g *gossip) Step(node, round int, in []Envelope[words]) ([]Send[words], bool) {
	if g.log != nil { // the benches disable receipt logging
		for _, env := range in {
			g.log[node] = append(g.log[node], env.Payload)
		}
	}
	if round >= g.rounds {
		return nil, true
	}
	both, right := gossipPayloads(node, round)
	out := g.out[2*node : 2*node+1 : 2*node+2]
	out[0] = Send[words]{To: g.ring[2*node : 2*node+2], Payload: both}
	if node%2 == 1 {
		out = append(out, Send[words]{To: g.ring[2*node+1 : 2*node+2], Payload: right})
	}
	return out, false
}

// gossipLog is the receipt log gossip must produce on an n-ring (n >= 3),
// derived from the model rather than the engine: each round's messages
// arrive in ascending sender order, and one sender's messages in the
// order of its Sends.
func gossipLog(n, rounds int) [][]words {
	log := make([][]words, n)
	for v := 0; v < n; v++ {
		left, right := (v+n-1)%n, (v+1)%n
		for r := 0; r < rounds; r++ {
			for _, s := range []int{min(left, right), max(left, right)} {
				both, second := gossipPayloads(s, r)
				log[v] = append(log[v], both)
				if s%2 == 1 && s == left { // v is s's right neighbor
					log[v] = append(log[v], second)
				}
			}
		}
	}
	return log
}

func TestSchedulersBitIdentical(t *testing.T) {
	// The parallel scheduler must deliver the same inboxes in the same
	// order as the sequential one, for every worker count.
	const n, rounds = 97, 9 // deliberately not a multiple of the chunk size
	ref := newGossip(n, rounds)
	var refRounds []RoundStats
	refM, err := Run[words](context.Background(), ref, Options{
		Observer: func(r RoundStats) { refRounds = append(refRounds, r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref.log, gossipLog(n, rounds)) {
		t.Fatal("sequential scheduler delivered payloads other than the model's")
	}
	// math.MaxInt workers is clamped to one per chunk of nodes (here 2).
	for _, workers := range []int{1, 2, 3, 4, 5, 6, 7, 8, math.MaxInt} {
		g := newGossip(n, rounds)
		var rs []RoundStats
		m, err := Run[words](context.Background(), g, Options{
			Parallel: true, Workers: workers,
			Observer: func(r RoundStats) { rs = append(rs, r) },
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(m, refM) || !reflect.DeepEqual(rs, refRounds) {
			t.Fatalf("workers=%d: metrics diverged:\n%+v %+v\nwant\n%+v %+v", workers, m, rs, refM, refRounds)
		}
		if !reflect.DeepEqual(g.log, ref.log) {
			t.Fatalf("workers=%d: delivered message streams diverged", workers)
		}
	}
}

func TestPerRoundStats(t *testing.T) {
	const n, rounds = 10, 5
	g := newGossip(n, rounds)
	var perRound []RoundStats
	m, err := Run[words](context.Background(), g, Options{
		Observer: func(r RoundStats) { perRound = append(perRound, r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(perRound) != m.Rounds {
		t.Fatalf("observer saw %d rounds, want %d", len(perRound), m.Rounds)
	}
	var msgs, wrds int64
	for i, r := range perRound {
		if r.Round != i {
			t.Fatalf("entry %d has round %d", i, r.Round)
		}
		if r.Active != n {
			// Every gossip node steps every round until the common halt.
			t.Fatalf("round %d: active = %d, want %d", i, r.Active, n)
		}
		msgs += r.Messages
		wrds += r.Words
	}
	if msgs != m.Messages || wrds != m.Words {
		t.Fatalf("per-round sums %d/%d don't match totals %d/%d", msgs, wrds, m.Messages, m.Words)
	}
}

// withEmptySend wraps gossip so that node 0 also returns a Send of a
// 99-word payload to no receivers whenever it sends.
type withEmptySend struct{ *gossip }

func (g withEmptySend) Step(node, round int, in []Envelope[words]) ([]Send[words], bool) {
	out, halt := g.gossip.Step(node, round, in)
	if node == 0 && len(out) > 0 {
		out = append([]Send[words]{{Payload: 99}}, out...)
	}
	return out, halt
}

func TestWordAccounting(t *testing.T) {
	// Payload sizes 1..4 on the gossip ring, Sends to one and to two
	// receivers, two Sends from each odd node; MaxMessageWords must be the
	// observed maximum, Messages the number of deliveries and Words the
	// exact sum of delivered payload sizes. A Send with no receivers is no
	// message: it must not move any of the three.
	g := newGossip(8, 3)
	m, err := Run[words](context.Background(), withEmptySend{g}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.MaxMessageWords != 4 {
		t.Fatalf("MaxMessageWords = %d, want 4", m.MaxMessageWords)
	}
	if !reflect.DeepEqual(g.log, gossipLog(8, 3)) {
		t.Fatal("delivered payloads differ from the model's")
	}
	var want, delivered int64
	for _, log := range g.log {
		delivered += int64(len(log))
		for _, w := range log {
			want += int64(w)
		}
	}
	if m.Words != want {
		t.Fatalf("Words = %d, want delivered sum %d", m.Words, want)
	}
	if m.Messages != delivered {
		t.Fatalf("Messages = %d, want %d deliveries", m.Messages, delivered)
	}
}

// misbehaving emits one malformed Send from node 0 in round 0.
type misbehaving struct {
	n    int
	send Send[words]
}

func (m *misbehaving) NumNodes() int { return m.n }

func (m *misbehaving) Step(node, round int, in []Envelope[words]) ([]Send[words], bool) {
	if node == 0 {
		return []Send[words]{m.send}, true
	}
	return nil, true
}

func TestMalformedEnvelopesError(t *testing.T) {
	cases := []struct {
		name string
		send Send[words]
		want string
	}{
		{"to-too-large", Send[words]{To: []int32{5}, Payload: 1}, "out-of-range"},
		{"to-negative", Send[words]{To: []int32{-1}, Payload: 1}, "out-of-range"},
		{"second-to-too-large", Send[words]{To: []int32{1, 4}, Payload: 1}, "out-of-range"},
	}
	for _, tc := range cases {
		for _, parallel := range []bool{false, true} {
			_, err := Run[words](context.Background(), &misbehaving{n: 4, send: tc.send}, Options{Parallel: parallel})
			if err == nil {
				t.Fatalf("%s (parallel=%v): malformed Send accepted", tc.name, parallel)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s (parallel=%v): error %q does not mention %q", tc.name, parallel, err, tc.want)
			}
		}
	}
}

// stubborn never halts and never sends.
type stubborn struct{ n int }

func (s stubborn) NumNodes() int { return s.n }

func (s stubborn) Step(node, round int, in []Envelope[words]) ([]Send[words], bool) {
	return nil, false
}

func TestMaxRoundsAborts(t *testing.T) {
	m, err := Run[words](context.Background(), stubborn{n: 3}, Options{MaxRounds: 20})
	if err == nil {
		t.Fatal("non-terminating program ran forever past MaxRounds")
	}
	if m.Rounds != 20 {
		t.Fatalf("aborted after %d rounds, want 20", m.Rounds)
	}
}

// halter is a 2-node program: node 1 halts immediately; node 0 sends to
// node 1 in round 0 (delivered after the halt) and halts in round 1,
// recording whatever it was stepped with.
type halter struct {
	delivered [][]Envelope[words]
}

func (h *halter) NumNodes() int { return 2 }

func (h *halter) Step(node, round int, in []Envelope[words]) ([]Send[words], bool) {
	cp := make([]Envelope[words], len(in))
	copy(cp, in)
	h.delivered = append(h.delivered, cp)
	if node == 1 {
		return nil, true
	}
	if round == 0 {
		return []Send[words]{{To: []int32{1}, Payload: 2}}, false
	}
	return nil, true
}

func TestMessageToHaltedNodeCountedButDropped(t *testing.T) {
	h := &halter{}
	m, err := Run[words](context.Background(), h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The sender pays for the message even though the receiver is gone.
	if m.Messages != 1 || m.Words != 2 {
		t.Fatalf("metrics %+v, want the dropped message accounted", m)
	}
	// Steps: round 0 node 0, round 0 node 1, round 1 node 0 — and none of
	// them may observe the in-flight message addressed to the halted node.
	if len(h.delivered) != 3 {
		t.Fatalf("%d steps executed, want 3", len(h.delivered))
	}
	for i, in := range h.delivered {
		if len(in) != 0 {
			t.Fatalf("step %d observed %d messages, want none", i, len(in))
		}
	}
	if m.Rounds != 2 {
		t.Fatalf("rounds = %d, want 2", m.Rounds)
	}
}

// blocker runs forever, signalling on started once round reaches minRounds,
// so a test can cancel a run that is provably mid-flight.
type blocker struct {
	n         int
	minRounds int
	started   chan struct{}
	once      bool
}

func (b *blocker) NumNodes() int { return b.n }

func (b *blocker) Step(node, round int, in []Envelope[words]) ([]Send[words], bool) {
	if node == 0 && round == b.minRounds && !b.once {
		b.once = true
		close(b.started)
	}
	return nil, false
}

func TestContextCancelStopsRun(t *testing.T) {
	// Cancel a non-terminating program mid-flight from another goroutine:
	// the run must stop at the next round barrier and surface ctx.Err().
	ctx, cancel := context.WithCancel(context.Background())
	b := &blocker{n: 4, minRounds: 50, started: make(chan struct{})}
	go func() {
		<-b.started
		cancel()
	}()
	m, err := Run[words](ctx, b, Options{})
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if m.Rounds < b.minRounds {
		t.Fatalf("run stopped after %d rounds, before the cancellation point %d", m.Rounds, b.minRounds)
	}
}

func TestContextAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, err := Run[words](ctx, newGossip(8, 3), Options{})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if m.Rounds != 0 {
		t.Fatalf("cancelled-before-start run executed %d rounds", m.Rounds)
	}
}

func TestObserverStreamsRounds(t *testing.T) {
	// The observer must see one entry per executed round, in round order,
	// summing to the run's totals, and the same stream on both schedulers.
	var streams [2][]RoundStats
	for s, parallel := range []bool{false, true} {
		var seen []RoundStats
		m, err := Run[words](context.Background(), newGossip(9, 4), Options{
			Parallel: parallel,
			Observer: func(r RoundStats) { seen = append(seen, r) },
		})
		if err != nil {
			t.Fatal(err)
		}
		var msgs, wrds int64
		for _, r := range seen {
			msgs += r.Messages
			wrds += r.Words
		}
		if len(seen) != m.Rounds || msgs != m.Messages || wrds != m.Words {
			t.Fatalf("parallel=%v: observer saw %d rounds, %d msgs, %d words; run totals %d/%d/%d",
				parallel, len(seen), msgs, wrds, m.Rounds, m.Messages, m.Words)
		}
		streams[s] = seen
		for i, r := range seen {
			if r.Round != i {
				t.Fatalf("parallel=%v: observer call %d carried round %d", parallel, i, r.Round)
			}
		}
	}
	if !reflect.DeepEqual(streams[0], streams[1]) {
		t.Fatalf("observer streams diverge across schedulers:\n%+v\nwant\n%+v", streams[1], streams[0])
	}
}

func TestEmptyProgram(t *testing.T) {
	m, err := Run[words](context.Background(), stubborn{n: 0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rounds != 0 || m.Messages != 0 {
		t.Fatalf("empty program produced metrics %+v", m)
	}
}
