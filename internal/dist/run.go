package dist

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// chunk is the unit of work the parallel scheduler hands to a worker: a
// contiguous block of live-list positions. Chunking amortizes the atomic
// fetch-add across many Step calls while still balancing skewed per-node
// work.
const chunk = 64

// mailbox is one side of the double-buffered mailboxes. Every payload
// sent in a round lives once in pays, in ascending sender order, and each
// receiver's row of the flat idx arena lists the indices of the payloads
// addressed to it. Rows are addressed by (start, cnt) and laid out by a
// two-pass count/fill commit — the same trick as the CSR graph builder — so
// a round of any traffic costs zero per-node allocations once the arenas
// have grown to their high-water mark, and resetting between rounds touches
// only the nodes that actually received something.
type mailbox[M WordCounter] struct {
	pays  []Envelope[M] // one per Send with receivers, From set by the engine
	idx   []int32       // per-receiver rows of indices into pays
	start []int64       // per node: fill cursor; one past the row's end after commit
	cnt   []int32       // per node: row length
	// touched lists the nodes with cnt > 0, in first-touch (ascending
	// sender commit) order — the reset set and the row layout order.
	touched []int32
}

func newMailbox[M WordCounter](n int) mailbox[M] {
	return mailbox[M]{start: make([]int64, n), cnt: make([]int32, n)}
}

// gather copies node v's delivered messages into buf, reusing its backing
// array, and returns them in ascending sender order. The fill pass leaves
// start[v] one past the end of v's row, so the row is the cnt[v] indices
// before it.
func (mb *mailbox[M]) gather(v int, buf []Envelope[M]) []Envelope[M] {
	c := int(mb.cnt[v])
	if c == 0 {
		return buf[:0]
	}
	buf = resize(buf, c)
	end := mb.start[v]
	for j, i := range mb.idx[end-int64(c) : end] {
		buf[j] = mb.pays[i]
	}
	return buf
}

// reset clears last round's rows in O(touched). The arenas are recycled:
// the next commit re-slices them to its own counts.
func (mb *mailbox[M]) reset() {
	for _, v := range mb.touched {
		mb.cnt[v] = 0
	}
	mb.touched = mb.touched[:0]
}

// resize returns a with length n. It reallocates only when n exceeds the
// capacity, and then to at least double it, so an arena reaches its
// high-water mark in a logarithmic number of allocations.
func resize[T any](a []T, n int) []T {
	if n > cap(a) {
		return make([]T, n, max(n, 2*cap(a)))
	}
	return a[:n]
}

// engine is the per-run state shared by both schedulers.
type engine[M WordCounter] struct {
	p Program[M]
	o Options
	n int

	// live holds the ids of the nodes that have not halted, ascending. It
	// is compacted in place as nodes halt, so stepping, commit and the
	// mailbox machinery never scan halted nodes — a run in which 99% of
	// the nodes halt in round 1 pays for the survivors only from round 2 on.
	live []int32

	// cur holds the inboxes for the round being executed; nxt collects the
	// rows to deliver next round. The two swap every round, so a Step only
	// ever sees messages sent in the previous round.
	cur, nxt mailbox[M]

	// outs[v] is the Sends Step returned for v this round. They are
	// borrowed from the program until commit has copied each payload into
	// the arena (see Program), committed in ascending node order so both
	// schedulers route identically.
	outs  [][]Send[M]
	halts []bool
	// bufs[w] is worker w's inbox buffer: each Step's inbox is gathered
	// into it and it is reused for the worker's next Step. The sequential
	// scheduler uses bufs[0].
	bufs [][]Envelope[M]

	metrics Metrics
}

// Run executes the program until every node has halted and returns the
// CONGEST metrics of the execution. It returns a non-nil error (with the
// metrics accumulated so far) if the program addresses a node outside
// 0..NumNodes()-1 or exceeds Options.MaxRounds.
//
// Cancellation is checked at the round barrier: when ctx is done before a
// round starts, the run stops and returns ctx.Err() with the metrics
// accumulated so far. A nil ctx is treated as context.Background().
func Run[M WordCounter](ctx context.Context, p Program[M], o Options) (Metrics, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := p.NumNodes()
	if n < 0 {
		return Metrics{}, fmt.Errorf("dist: program reports %d nodes", n)
	}
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if !o.Parallel {
		workers = 1
	}
	// A worker beyond one per chunk of nodes would find no work, so the
	// pool never exceeds that: a huge Options.Workers costs nothing extra.
	workers = max(1, min(workers, (n+chunk-1)/chunk))
	e := &engine[M]{
		p:     p,
		o:     o,
		n:     n,
		live:  make([]int32, n),
		cur:   newMailbox[M](n),
		nxt:   newMailbox[M](n),
		outs:  make([][]Send[M], n),
		halts: make([]bool, n),
		bufs:  make([][]Envelope[M], workers),
	}
	for v := range e.live {
		e.live[v] = int32(v)
	}

	for round := 0; len(e.live) > 0; round++ {
		if err := ctx.Err(); err != nil {
			return e.metrics, err
		}
		if o.MaxRounds > 0 && round >= o.MaxRounds {
			return e.metrics, fmt.Errorf("dist: %d of %d nodes still live after the %d-round limit", len(e.live), n, o.MaxRounds)
		}
		active := len(e.live)
		if workers > 1 {
			e.stepParallel(round, workers)
		} else {
			e.stepSequential(round)
		}
		if err := e.commit(round, active); err != nil {
			return e.metrics, err
		}
	}
	return e.metrics, nil
}

// stepSequential runs every live node's Step for the round in node order.
func (e *engine[M]) stepSequential(round int) {
	for _, lv := range e.live {
		v := int(lv)
		e.bufs[0] = e.cur.gather(v, e.bufs[0])
		e.outs[v], e.halts[v] = e.p.Step(v, round, e.bufs[0])
	}
}

// stepParallel runs the round's Steps on a goroutine pool. Workers claim
// contiguous chunks of live-list positions off a shared counter and gather
// inboxes into their own buffers; every result lands in the stepping
// node's own slot, so the subsequent ordered commit is independent of
// which worker ran which node — the source of the bit-identical contract
// with the sequential scheduler.
func (e *engine[M]) stepParallel(round, workers int) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := e.bufs[w]
			for {
				lo := int(next.Add(chunk)) - chunk
				if lo >= len(e.live) {
					e.bufs[w] = buf
					return
				}
				hi := lo + chunk
				if hi > len(e.live) {
					hi = len(e.live)
				}
				for _, lv := range e.live[lo:hi] {
					v := int(lv)
					buf = e.cur.gather(v, buf)
					e.outs[v], e.halts[v] = e.p.Step(v, round, buf)
				}
			}
		}()
	}
	wg.Wait()
}

// commit validates and routes the round's Sends in ascending node order,
// applies halts, accounts the metrics, and swaps the mailbox buffers for
// the next round.
//
// Routing is the two-pass count/fill layout: pass one range-checks every
// receiver, accounts each Send once per receiver and counts each
// receiver's row; then the arenas are sized, the rows are laid out back to
// back in one index arena (in first-touch order), and pass two stores each
// payload once and routes its index into the rows of its receivers.
// Because both passes walk senders in ascending node order, every receiver
// sees its messages in ascending sender order on either scheduler.
func (e *engine[M]) commit(round, active int) error {
	var msgs, words int64
	npays := 0
	nxt := &e.nxt
	for _, lv := range e.live {
		v := int(lv)
		for i := range e.outs[v] {
			s := &e.outs[v][i]
			if len(s.To) == 0 {
				continue
			}
			for _, t := range s.To {
				if t < 0 || int(t) >= e.n {
					return fmt.Errorf("dist: node %d sent a message to out-of-range node %d in round %d (n=%d)", v, t, round, e.n)
				}
				// Delivery to an already-halted node is counted (the
				// sender paid for it) but its row is simply never read.
				if nxt.cnt[t] == 0 {
					nxt.touched = append(nxt.touched, t)
				}
				nxt.cnt[t]++
			}
			r := int64(len(s.To))
			w := s.Payload.Words()
			npays++
			msgs += r
			words += r * int64(w)
			if w > e.metrics.MaxMessageWords {
				e.metrics.MaxMessageWords = w
			}
		}
	}
	nxt.pays = resize(nxt.pays, npays)
	nxt.idx = resize(nxt.idx, int(msgs))
	off := int64(0)
	for _, t := range nxt.touched {
		nxt.start[t] = off
		off += int64(nxt.cnt[t])
	}
	pi := int32(0)
	for _, lv := range e.live {
		v := int(lv)
		for i := range e.outs[v] {
			s := &e.outs[v][i]
			if len(s.To) == 0 {
				continue
			}
			nxt.pays[pi] = Envelope[M]{From: v, Payload: s.Payload}
			for _, t := range s.To {
				nxt.idx[nxt.start[t]] = pi
				nxt.start[t]++
			}
			pi++
		}
		// The borrow ends here: the program may reuse the Sends' backing
		// arrays from its next Step on. The stale reference is overwritten
		// by that Step (or dropped below on halt).
	}
	k := 0
	for _, lv := range e.live {
		v := int(lv)
		if e.halts[v] {
			e.halts[v] = false
			e.outs[v] = nil
		} else {
			e.live[k] = lv
			k++
		}
	}
	e.live = e.live[:k]
	e.metrics.Rounds++
	e.metrics.Messages += msgs
	e.metrics.Words += words
	if e.o.Observer != nil {
		e.o.Observer(RoundStats{Round: round, Messages: msgs, Words: words, Active: active})
	}
	e.o.Recorder.Record(round, msgs, words, active)
	// Swap mailboxes; the delivered round's arenas are recycled for the
	// round after next.
	e.cur.reset()
	e.cur, e.nxt = e.nxt, e.cur
	return nil
}
