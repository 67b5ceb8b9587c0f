// Package dist is the synchronous CONGEST message-passing engine of the
// repository: a generic round-based simulator that executes a node program
// on n nodes, delivering each round's messages at the start of the next
// round, until every node halts.
//
// The model is the synchronous message-passing model of Peleg's book (and
// of Elkin–Neiman, PODC 2016): computation proceeds in global rounds; in
// round r every live node receives the messages addressed to it in round
// r−1, updates its local state, and emits a batch of point-to-point
// messages to be delivered in round r+1. Mailboxes are double-buffered, so
// a Step never observes a message sent in its own round.
//
// A node sends by payload, not by receiver: Step returns one Send per
// payload, each naming the receivers that get a copy of it. Delivery is
// arena-backed: the commit stores each Send's sender and payload once,
// routes a 4-byte payload index into every receiver's row of one flat
// index arena (laid out by a two-pass count/fill commit), and gathers a
// node's inbox from those indices when it steps. A compact live-node list
// keeps every per-round cost — stepping, commit, mailbox reset —
// proportional to the nodes still running and the messages actually sent,
// never to the total node count.
//
// The engine is deliberately algorithm-agnostic. A program implements
//
//	NumNodes() int
//	Step(node, round int, in []Envelope[M]) (out []Send[M], halt bool)
//
// for a payload type M that can report its own CONGEST size in words.
// Run drives the program with either a sequential scheduler or a
// deterministic goroutine-pool scheduler (Options.Parallel); because each
// node's Sends are committed in ascending node order regardless of which
// goroutine produced them, both schedulers deliver bit-identical inboxes
// and therefore execute bit-identical runs — the contract internal/randx
// documents and internal/core's equivalence tests assert. Programs must
// keep Step(node, ...) confined to per-node state for the parallel
// scheduler to be safe; the engine takes care of everything shared. The
// returned Sends and their receiver lists are borrowed by the engine
// until the round's commit (see Program).
//
// Run accounts CONGEST cost as it goes, per receiver: total rounds, total
// messages, total words and the largest single message (Metrics), and
// streams each round's traffic to an optional Options.Observer or
// Options.Recorder (examples/congest and experiment T10 use them). A
// program that addresses a receiver outside the id space stops the run
// with an error rather than a panic, so a buggy node program cannot take
// down a harness process.
package dist

import "netdecomp/internal/obs"

// WordCounter constrains engine payloads: every message type reports its
// own size in machine words, which is what the CONGEST O(1)-words-per-
// message guarantees of the paper are measured against.
type WordCounter interface {
	Words() int
}

// Envelope is one delivered message: the payload and the node that sent
// it. The engine sets From, so a program cannot forge a sender.
type Envelope[M WordCounter] struct {
	From    int
	Payload M
}

// Send is one payload sent during some round, delivered as one message to
// every node in To at the start of the next round. Each receiver is
// accounted as a message of Payload.Words() words; a Send with no
// receivers is no message at all. A node listed twice receives two
// copies.
//
// To is borrowed by the engine until the end of the round's commit, like
// the slice of Sends that carries it (see Program): it may alias program
// state such as an adjacency row, which the engine never writes.
type Send[M WordCounter] struct {
	To      []int32
	Payload M
}

// Program is a synchronous node program executed by Run.
//
// Step is called once per round for every node that has not yet halted.
// in holds exactly the messages addressed to node in the previous round,
// in ascending sender order (empty — not necessarily nil — in round 0 and
// whenever nothing arrived, so test len(in), not in == nil); the slice is
// owned by the engine, reused for the next Step, and must not be retained
// across calls. Step returns the node's Sends for this round and whether
// the node halts. A halted node is never stepped again; messages
// addressed to it are still accounted but silently dropped, exactly as a
// real network delivers into a stopped process.
//
// The returned Sends and every Send's To are borrowed by the engine until
// the end of the round's commit, which copies each payload once into the
// delivery arena and routes its index to the receivers. After that the
// program owns them again: Step(node, ...) may reuse the same backing
// arrays on node's next call instead of allocating every round. The
// engine never mutates a borrowed slice and never reads it after commit.
//
// For the parallel scheduler to be safe, Step(node, ...) must touch only
// state owned by node (concurrent Step calls always target distinct
// nodes).
type Program[M WordCounter] interface {
	// NumNodes reports the number of nodes; node ids are 0..NumNodes()-1.
	NumNodes() int
	// Step executes one round of one node.
	Step(node, round int, in []Envelope[M]) ([]Send[M], bool)
}

// Options configures a Run.
type Options struct {
	// Parallel selects the deterministic goroutine-pool scheduler. Results
	// are bit-identical to the sequential scheduler.
	Parallel bool
	// Workers caps the goroutine pool of the parallel scheduler; 0 or
	// negative means GOMAXPROCS. Ignored unless Parallel is set. The pool
	// never exceeds one worker per 64-node chunk of the program, so a
	// larger value costs nothing extra.
	Workers int
	// MaxRounds aborts the run with an error if some node is still live
	// after this many rounds; 0 means no limit. Callers that can bound the
	// round complexity of their program should set it, turning a
	// non-terminating program bug into an error.
	MaxRounds int
	// Observer, when non-nil, is invoked once per executed round — after
	// the round's messages are committed — with that round's statistics.
	// It is the engine's one per-round stream, and the hook the unified
	// Decomposer API exposes as WithObserver. The callback runs on the
	// engine goroutine: a slow observer slows the run, and it must not
	// call back into the engine.
	Observer func(RoundStats)
	// Recorder, when non-nil, accounts every executed round into the
	// telemetry layer: engine.rounds/messages/words counters, per-round
	// message and active-node histograms, and (when the recorder carries a
	// traced span) one instant trace event per round. It reports the same
	// numbers as RoundStats, into the unified registry instead of a
	// callback. The disabled path is a single nil test per round — the
	// engine stays allocation-free with telemetry off, which the
	// hot-path rows of BENCH_gates.json gate.
	Recorder *obs.RoundRecorder
}

// Metrics is the CONGEST account of one Run.
type Metrics struct {
	// Rounds is the number of synchronous rounds executed (a round in
	// which at least one node stepped).
	Rounds int
	// Messages and Words are the total point-to-point messages sent and
	// their total size in words.
	Messages int64
	Words    int64
	// MaxMessageWords is the size of the largest single message, the
	// quantity bounded by the paper's "O(1) words per message" discipline.
	MaxMessageWords int
}

// RoundStats is the traffic of a single round.
type RoundStats struct {
	// Round is the 0-based round index.
	Round int
	// Messages and Words count the traffic sent during the round.
	Messages int64
	Words    int64
	// Active is the number of nodes that stepped in the round (live nodes
	// at the start of the round).
	Active int
}
