package decomp

import (
	"context"
	"math"

	"netdecomp/internal/baseline"
	"netdecomp/internal/core"
	"netdecomp/internal/dist"
	"netdecomp/internal/graph"
)

// Built-in registrations. "elkin-neiman" is an alias for the Theorem 1
// regime; "elkin-neiman/dist" is Theorem 1 on the message-passing engine
// (any elkin-neiman/* name runs on the engine under WithEngine too).
// "mpx/dist" is the engine-backed MPX port; "mpx" the sequential shifted
// Dijkstra; "linial-saks" and "ball-carving" the weak-diameter and
// sequential-yardstick baselines.
func init() {
	Register(elkinNeiman("elkin-neiman", core.Theorem1, false))
	Register(elkinNeiman("elkin-neiman/theorem1", core.Theorem1, false))
	Register(elkinNeiman("elkin-neiman/theorem2", core.Theorem2, false))
	Register(elkinNeiman("elkin-neiman/theorem3", core.Theorem3, false))
	Register(elkinNeiman("elkin-neiman/dist", core.Theorem1, true))
	Register(Func{AlgorithmName: "linial-saks", Run: linialSaks, check: checkLinialSaks})
	Register(Func{AlgorithmName: "mpx", Run: mpxSequential, check: checkMPX})
	Register(Func{AlgorithmName: "mpx/dist", Run: mpxEngine, check: checkMPX})
	Register(Func{AlgorithmName: "ball-carving", Run: ballCarving})
}

// engineOptions maps the observer/telemetry part of a Config onto the
// engine, which runs its sequential scheduler. With a nil Recorder the
// round recorder stays nil and the engine's telemetry path is a single
// pointer test per round.
func engineOptions(cfg Config) dist.Options {
	return dist.Options{
		Observer: cfg.Observer,
		Recorder: cfg.Recorder.Rounds(),
	}
}

// coreVariants maps the registry names that execute internal/core to their
// theorem variants. The "/dist" alias is deliberately absent: it pins the
// engine path, which the incremental repair hook below must not claim.
var coreVariants = map[string]core.Variant{
	"elkin-neiman":          core.Theorem1,
	"elkin-neiman/theorem1": core.Theorem1,
	"elkin-neiman/theorem2": core.Theorem2,
	"elkin-neiman/theorem3": core.Theorem3,
}

// coreOptionsFor is the single Config→core.Options mapping, shared by the
// elkinNeiman runner and Plan.CoreOptions so the repair path resolves the
// exact options a from-scratch run would use.
func coreOptionsFor(variant core.Variant, cfg Config) core.Options {
	o := core.Options{
		Variant:       variant,
		K:             cfg.K,
		Lambda:        cfg.Lambda,
		C:             cfg.C,
		Seed:          cfg.Seed,
		PhaseBudget:   cfg.PhaseBudget,
		ForceComplete: cfg.ForceComplete,
	}
	if variant == core.Theorem3 && o.Lambda == 0 {
		o.Lambda = 2
	}
	if cfg.ExactRadius {
		o.RadiusMode = core.RadiusExact
	}
	return o
}

// CoreOptions reports whether the plan executes the sequential
// internal/core simulation and, if so, the exact core.Options a run
// resolves to. Incremental maintenance (internal/dyn) uses it to drive
// core.Repair with the same options a from-scratch Run would use; plans on
// any other path — the engine-pinned "/dist" names, Engine-configured
// specs, the non-Elkin–Neiman algorithms — report false and must be
// recomputed in full on mutation.
func (p *Plan) CoreOptions() (core.Options, bool) {
	variant, ok := coreVariants[p.name]
	if !ok || p.cfg.Engine {
		return core.Options{}, false
	}
	return coreOptionsFor(variant, p.cfg), true
}

// elkinNeiman registers both core execution paths under name.
// forceEngine pins the engine path regardless of cfg.Engine (the "/dist"
// registry name).
func elkinNeiman(name string, variant core.Variant, forceEngine bool) Func {
	onEngine := func(cfg Config) bool { return forceEngine || cfg.Engine }
	return Func{
		AlgorithmName: name,
		Run: func(ctx context.Context, g graph.Interface, cfg Config) (*Partition, error) {
			o := coreOptionsFor(variant, cfg)
			var dec *core.Decomposition
			var err error
			if onEngine(cfg) {
				dec, err = core.RunDistributed(ctx, g, o, engineOptions(cfg))
			} else {
				dec, err = core.RunWith(g, o, core.Exec{
					Ctx:      ctx,
					Observer: cfg.Observer,
					Recorder: cfg.Recorder,
				})
			}
			if err != nil {
				return nil, err
			}
			return &dec.Partition, nil
		},
		check: func(cfg Config) error {
			o := coreOptionsFor(variant, cfg)
			if onEngine(cfg) {
				return o.ValidateDistributed()
			}
			return o.Validate()
		},
	}
}

// lsOptions maps a Config onto Linial–Saks on an n-vertex graph.
func lsOptions(cfg Config, n int) baseline.LSOptions {
	k := cfg.K
	if k == 0 {
		k = defaultLogK(n, 2)
	}
	return baseline.LSOptions{
		K:             k,
		C:             cfg.C,
		Seed:          cfg.Seed,
		PhaseBudget:   cfg.PhaseBudget,
		ForceComplete: cfg.ForceComplete,
	}
}

// checkLinialSaks needs no graph: K = 0 selects the n-dependent default,
// which is at least 2 on any n.
func checkLinialSaks(cfg Config) error { return lsOptions(cfg, 0).Validate() }

func linialSaks(ctx context.Context, g graph.Interface, cfg Config) (*Partition, error) {
	return baseline.LinialSaksContext(ctx, g, lsOptions(cfg, g.N()))
}

// mpxOptions maps a Config onto both MPX paths.
func mpxOptions(cfg Config) baseline.MPXOptions {
	return baseline.MPXOptions{Beta: defaultBeta(cfg.Beta), Seed: cfg.Seed}
}

func checkMPX(cfg Config) error { return mpxOptions(cfg).Validate() }

func mpxSequential(ctx context.Context, g graph.Interface, cfg Config) (*Partition, error) {
	return baseline.MPXContext(ctx, g, mpxOptions(cfg))
}

func mpxEngine(ctx context.Context, g graph.Interface, cfg Config) (*Partition, error) {
	return baseline.MPXOnEngine(ctx, g, mpxOptions(cfg), engineOptions(cfg))
}

func ballCarving(ctx context.Context, g graph.Interface, cfg Config) (*Partition, error) {
	k := cfg.K
	if k == 0 {
		// The classic existence bound sits at K = log₂ n rather than ln n.
		k = 1
		if n := g.N(); n > 1 {
			k = int(math.Ceil(math.Log2(float64(n))))
		}
	}
	return baseline.BallCarvingContext(ctx, g, baseline.BCOptions{K: k})
}

// defaultLogK is ⌈ln n⌉ clamped below by min — the headline radius
// parameter shared by the randomized algorithms.
func defaultLogK(n, min int) int {
	k := min
	if n > 1 {
		if ln := int(math.Ceil(math.Log(float64(n)))); ln > k {
			k = ln
		}
	}
	return k
}

// defaultBeta applies the MPX rate default.
func defaultBeta(beta float64) float64 {
	if beta == 0 {
		return 0.3
	}
	return beta
}
