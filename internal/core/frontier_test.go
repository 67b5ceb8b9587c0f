package core

import (
	"fmt"
	"reflect"
	"testing"

	"netdecomp/internal/gen"
	"netdecomp/internal/graph"
	"netdecomp/internal/randx"
)

// run is runSparse with the ascending alive worklist derived from the
// mask, the form the phase tests drive.
func (p *phaseRunner) run(alive []bool, rounds int, emit func(msgs, words int64)) phaseResult {
	list := make([]int32, 0, len(alive))
	for v := range alive {
		if alive[v] {
			list = append(list, int32(v))
		}
	}
	return p.runSparse(alive, list, rounds, emit)
}

// denseRunPhase is the pre-frontier reference loop: the O(n)-per-round
// simulation that scans every vertex each round and filters alive
// neighbors inline. It is kept verbatim as the property-test oracle for
// the frontier-sparse runner — any divergence in joins, centers, traffic
// accounting or the emitted per-round stream is a bug in the worklist
// machinery. It merges through mergeRef, so a wrong fast path in the
// production merge cannot corrupt the oracle too.
func denseRunPhase(g graph.Interface, alive []bool, radius []float64, rounds int, emit func(msgs, words int64)) phaseResult {
	n := g.N()
	state := make([]topTwo, n)
	snap := make([]topTwo, n)
	changed := make([]bool, n)
	dirty := make([]bool, n)
	centers := make([]int, n)
	var res phaseResult
	res.rounds = rounds
	for v := 0; v < n; v++ {
		state[v].reset()
		centers[v] = none
		if alive[v] {
			state[v].mergeRef(int32(v), radius[v])
			changed[v] = true
		}
	}
	type entry struct {
		c int32
		m float64
	}
	var buf [2]entry
	emitted := 0
	for round := 0; round < rounds; round++ {
		copy(snap, state)
		sentAny := false
		roundMsgs, roundWords := res.messages, res.words
		for v := 0; v < n; v++ {
			if !alive[v] || !changed[v] {
				continue
			}
			s := &snap[v]
			k := 0
			if s.c1 != none && s.v1 >= 1 {
				buf[k] = entry{s.c1, s.v1}
				k++
			}
			if s.c2 != none && s.v2 >= 1 {
				buf[k] = entry{s.c2, s.v2}
				k++
			}
			if k == 0 {
				continue
			}
			words := 2 * k
			for _, w := range g.Neighbors(v) {
				if !alive[w] {
					continue
				}
				res.messages++
				res.words += int64(words)
				if words > res.maxMsgWords {
					res.maxMsgWords = words
				}
				for i := 0; i < k; i++ {
					if state[w].mergeRef(buf[i].c, buf[i].m-1) {
						dirty[w] = true
					}
				}
				sentAny = true
			}
		}
		changed, dirty = dirty, changed
		for v := range dirty {
			dirty[v] = false
		}
		if emit != nil {
			emit(res.messages-roundMsgs, res.words-roundWords)
			emitted++
		}
		if !sentAny {
			break
		}
	}
	if emit != nil {
		for ; emitted < rounds; emitted++ {
			emit(0, 0)
		}
	}
	for v := 0; v < n; v++ {
		if !alive[v] {
			continue
		}
		if state[v].joins() {
			res.joined = append(res.joined, v)
			centers[v] = int(state[v].c1)
		}
	}
	res.centers = centers
	departMsgs, departWords := res.messages, res.words
	for _, v := range res.joined {
		for _, w := range g.Neighbors(v) {
			if alive[w] {
				res.messages++
				res.words++
			}
		}
	}
	if res.maxMsgWords == 0 && len(res.joined) > 0 {
		res.maxMsgWords = 1
	}
	if emit != nil {
		emit(res.messages-departMsgs, res.words-departWords)
	}
	return res
}

type emitRow struct{ msgs, words int64 }

// comparePhase asserts that a frontier-sparse result and its emit stream
// match the dense oracle's.
func comparePhase(t *testing.T, label string, got, want phaseResult, gotEmit, wantEmit []emitRow) {
	t.Helper()
	if got.rounds != want.rounds || got.messages != want.messages ||
		got.words != want.words || got.maxMsgWords != want.maxMsgWords {
		t.Fatalf("%s: accounting diverged: got rounds=%d msgs=%d words=%d maxw=%d, want rounds=%d msgs=%d words=%d maxw=%d",
			label, got.rounds, got.messages, got.words, got.maxMsgWords,
			want.rounds, want.messages, want.words, want.maxMsgWords)
	}
	if len(got.joined) != len(want.joined) {
		t.Fatalf("%s: joined %d vertices, want %d", label, len(got.joined), len(want.joined))
	}
	for i, v := range got.joined {
		if v != want.joined[i] {
			t.Fatalf("%s: joined[%d] = %d, want %d", label, i, v, want.joined[i])
		}
		if got.centers[v] != want.centers[v] {
			t.Fatalf("%s: center of %d = %d, want %d", label, v, got.centers[v], want.centers[v])
		}
	}
	if !reflect.DeepEqual(gotEmit, wantEmit) {
		t.Fatalf("%s: emit streams diverged:\n%v\nwant\n%v", label, gotEmit, wantEmit)
	}
}

// TestFrontierSparseMatchesDense is the property test of the worklist
// rebuild: on random graphs, under every kind of alive mask (full, sparse,
// mostly-dead) and across radius caps k, the frontier-sparse phase must
// reproduce the dense loop's joins, centers, traffic totals and per-round
// emit stream exactly.
func TestFrontierSparseMatchesDense(t *testing.T) {
	graphs := []*graph.Graph{
		gen.GnpConnected(randx.New(31), 300, 0.012),
		gen.Grid(17, 17),
		gen.RandomTree(randx.New(32), 220),
		gen.RingOfCliques(12, 6),
		gen.PowerLaw(randx.New(33), 256, 3),
		gen.Star(64),
	}
	aliveFracs := []float64{1.0, 0.7, 0.3, 0.05}
	for gi, g := range graphs {
		runner := newPhaseRunner(g)
		alive := make([]bool, g.N())
		for fi, frac := range aliveFracs {
			rng := randx.New(uint64(gi*97 + fi))
			for v := range alive {
				alive[v] = frac == 1.0 || rng.Float64() < frac
			}
			radius := make([]float64, g.N())
			for _, beta := range []float64{0.5, 1.3} {
				for _, k := range []int{1, 2, 4, 7} {
					drawRadii(uint64(gi*31+k), 0, alive, beta, radius)
					copy(runner.radius, radius)
					var gotEmit, wantEmit []emitRow
					got := runner.run(alive, k, func(m, w int64) { gotEmit = append(gotEmit, emitRow{m, w}) })
					want := denseRunPhase(g, alive, radius, k, func(m, w int64) { wantEmit = append(wantEmit, emitRow{m, w}) })
					comparePhase(t, "sparse", got, want, gotEmit, wantEmit)
				}
			}
		}
	}
}

// TestFrontierGridRadiiMatchesDense draws radii on a half-step grid, so
// distinct centers offer equal shifted values and both rejects of the
// delivery loop — merge's and deliver's one compare against the
// receiver's second slot — meet their strict compare at equality, which
// exponential draws never do. The frontier round must reproduce the dense
// oracle.
func TestFrontierGridRadiiMatchesDense(t *testing.T) {
	graphs := []*graph.Graph{
		gen.GnpConnected(randx.New(71), 300, 0.02),
		gen.Grid(15, 15),
		gen.PowerLaw(randx.New(72), 256, 3),
		gen.RingOfCliques(10, 6),
	}
	for gi, g := range graphs {
		rng := randx.New(uint64(gi) + 73)
		alive := make([]bool, g.N())
		radius := make([]float64, g.N())
		for _, frac := range []float64{1.0, 0.7} {
			for v := range alive {
				alive[v] = frac == 1.0 || rng.Float64() < frac
			}
			for _, k := range []int{2, 4, 6} {
				for v := range radius {
					radius[v] = float64(rng.Intn(2*k+3)) / 2
				}
				var gotEmit, wantEmit []emitRow
				want := denseRunPhase(g, alive, radius, k, func(m, w int64) { wantEmit = append(wantEmit, emitRow{m, w}) })
				runner := newPhaseRunner(g)
				copy(runner.radius, radius)
				got := runner.run(alive, k, func(m, w int64) { gotEmit = append(gotEmit, emitRow{m, w}) })
				comparePhase(t, fmt.Sprintf("graph %d alive %v k %d", gi, frac, k), got, want, gotEmit, wantEmit)
			}
		}
	}
}
