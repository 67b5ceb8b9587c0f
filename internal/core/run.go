package core

import (
	"context"
	"fmt"

	"netdecomp/internal/dist"
	"netdecomp/internal/graph"
	"netdecomp/internal/obs"
)

// Exec bundles the execution-context concerns of a run — cancellation and
// round observation — kept separate from Options so Options stays pure,
// comparable algorithm configuration. The zero value means "no
// cancellation, no observer".
type Exec struct {
	// Ctx cancels the run between phases (sequential simulation) or
	// between rounds (engine execution); the run then returns Ctx.Err().
	// nil means context.Background().
	Ctx context.Context
	// Observer, when non-nil, streams per-round traffic statistics as the
	// run executes: one callback per budgeted broadcast round plus one per
	// phase decision round, with Round indices increasing monotonically
	// across phases — the same k+1 sub-round structure the engine path
	// reports through dist.Options.Observer.
	Observer func(dist.RoundStats)
	// phaseFinal, when non-nil, receives each phase's final top-two states
	// (the runner's full state array, valid on aliveList entries, read-only,
	// invalidated by the next phase) right after the phase's rounds run and
	// before the join rule prunes the alive set, together with the phase's
	// radius draws (same validity). The repair bootstrap (RunRepairable)
	// tables these as the reference states incremental delta simulation
	// replays and certifies against, with the per-phase radius statistics
	// it maintains incrementally, and derives each vertex's join phase and
	// center from them; unexported because topTwo is an internal of the
	// phase simulation.
	phaseFinal func(phase int, aliveList []int32, state []topTwo, radius []float64)
	// Recorder, when non-nil, reports the run into the telemetry layer:
	// one span per phase (nested under the recorder's parent span, which
	// decomp.Plan.Run roots at the plan span), the engine.* round counters
	// and histograms mirroring what the dist engine records for the same
	// workload, and the core.* histograms the phase runner fills
	// (per-round frontier sizes, per-phase active/quiet round counts).
	// With a nil Recorder the run performs zero telemetry work beyond one
	// nil test per round — the hot path stays allocation-free.
	Recorder *obs.Recorder
}

// ctx returns the effective context.
func (x Exec) ctx() context.Context {
	if x.Ctx == nil {
		return context.Background()
	}
	return x.Ctx
}

// Run executes the Elkin–Neiman decomposition on g as a faithful
// round-by-round simulation of the distributed algorithm and returns the
// resulting decomposition with its cost metrics.
//
// The simulation is sequential but message-accurate: per phase it performs
// the k synchronous rounds of top-two forwarding prescribed by the paper
// and counts every point-to-point message a real execution would send. Use
// RunDistributed to execute the identical node program on the
// internal/dist engine; both return the same clusters for the same
// Options.Seed.
func Run(g graph.Interface, o Options) (*Decomposition, error) {
	return RunWith(g, o, Exec{})
}

// RunWith is Run with an execution context: it honors x.Ctx between phases
// (returning x.Ctx.Err() when cancelled) and streams per-round statistics
// to x.Observer. For equal Options it produces exactly the same
// decomposition as Run.
func RunWith(g graph.Interface, o Options, x Exec) (*Decomposition, error) {
	n := g.N()
	o2, sched, err := resolve(n, o)
	if err != nil {
		return nil, err
	}
	ctx := x.ctx()
	dec := newDecomposition(n, o2, sched)
	if o2.CaptureTrace {
		dec.Trace = &Trace{}
	}

	alive := make([]bool, n)
	aliveList := make([]int32, n)
	for v := range alive {
		alive[v] = true
		aliveList[v] = int32(v)
	}
	aliveCount := n

	runner := newPhaseRunner(g)
	// ForceComplete may run past the theorem budget; this guard turns a
	// (probability ~0) runaway into an error instead of a hang.
	maxPhases := sched.budget
	if o2.ForceComplete {
		maxPhases = 64*sched.budget + 1024
	}

	rec := x.Recorder
	runner.obsFrontier = rec.Histogram("core.round.frontier")
	runner.obsPhaseActive = rec.Histogram("core.phase.rounds.active")
	runner.obsPhaseQuiet = rec.Histogram("core.phase.rounds.quiet")
	phases := rec.Counter("core.phases")

	// The observer sees a monotone global round index across phases. The
	// round recorder is re-derived per phase so its instant events nest
	// under that phase's span; with telemetry off it stays nil and emit is
	// only built for the observer (or not at all).
	roundIdx := 0
	var roundRec *obs.RoundRecorder
	var emit func(msgs, words int64)
	if x.Observer != nil || rec != nil {
		emit = func(msgs, words int64) {
			if x.Observer != nil {
				x.Observer(dist.RoundStats{
					Round:    roundIdx,
					Messages: msgs,
					Words:    words,
					Active:   aliveCount,
				})
			}
			roundRec.Record(roundIdx, msgs, words, aliveCount)
			roundIdx++
		}
	}

	for phase := 0; aliveCount > 0; phase++ {
		if phase >= sched.budget && !o2.ForceComplete {
			break
		}
		if phase >= maxPhases {
			return nil, fmt.Errorf("core: graph not exhausted after %d phases (n=%d, k=%d); this indicates a bug", phase, n, sched.k)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		beta := sched.betas[len(sched.betas)-1]
		if phase < len(sched.betas) {
			beta = sched.betas[phase]
		}
		dec.AlivePerPhase = append(dec.AlivePerPhase, aliveCount)

		var phaseSpan *obs.Span
		if rec != nil {
			phases.Inc()
			phaseSpan = rec.Span("phase", obs.KV{K: "phase", V: int64(phase)}, obs.KV{K: "alive", V: int64(aliveCount)})
			roundRec = rec.Under(phaseSpan).Rounds()
		}

		drawRadiiSparse(o2.Seed, phase, aliveList, beta, runner.radius)
		dec.TruncationEvents += countTruncationsSparse(aliveList, runner.radius, sched.k)
		rounds := sched.k
		if o2.RadiusMode == RadiusExact {
			rounds = maxFlooredRadiusSparse(aliveList, runner.radius)
		}
		res := runner.runSparse(alive, aliveList, rounds, emit)
		if x.phaseFinal != nil {
			x.phaseFinal(phase, aliveList, runner.state, runner.radius)
		}

		dec.account(res)
		if dec.Trace != nil {
			// The runner only maintains alive entries of radius and
			// centers; rebuild the dense per-phase views the trace pins
			// (dead vertices: radius 0, center none).
			aliveCopy := make([]bool, n)
			copy(aliveCopy, alive)
			radiusCopy := make([]float64, n)
			for _, v := range aliveList {
				radiusCopy[v] = runner.radius[v]
			}
			centerCopy := make([]int, n)
			for v := range centerCopy {
				centerCopy[v] = none
			}
			for _, v := range res.joined {
				centerCopy[v] = res.centers[v]
			}
			dec.Trace.Alive = append(dec.Trace.Alive, aliveCopy)
			dec.Trace.Radius = append(dec.Trace.Radius, radiusCopy)
			dec.Trace.Center = append(dec.Trace.Center, centerCopy)
			dec.Trace.Beta = append(dec.Trace.Beta, beta)
		}

		if len(res.joined) > 0 {
			dec.buildClusters(g, res.joined, res.centers, phase, dec.Colors)
			dec.Colors++
			for _, v := range res.joined {
				alive[v] = false
			}
			aliveCount -= len(res.joined)
			k := 0
			for _, v := range aliveList {
				if alive[v] {
					aliveList[k] = v
					k++
				}
			}
			aliveList = aliveList[:k]
		}
		phaseSpan.End()
		dec.PhasesUsed++
	}
	dec.AlivePerPhase = append(dec.AlivePerPhase, aliveCount)
	dec.Complete = aliveCount == 0
	return dec, nil
}

// account adds one phase simulation's traffic to d's metrics.
func (d *Decomposition) account(res phaseResult) {
	m := &d.Metrics
	m.Rounds += res.rounds
	m.Messages += res.messages
	m.Words += res.words
	m.MaxMessageWords = max(m.MaxMessageWords, res.maxMsgWords)
}
