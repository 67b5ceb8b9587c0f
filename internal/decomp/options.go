package decomp

import (
	"netdecomp/internal/dist"
	"netdecomp/internal/obs"
)

// Config is the resolved option set a Decomposer receives. Every algorithm
// reads the fields it understands and ignores the rest, so one option list
// drives any registry name — the head-to-head loops pass identical options
// to every algorithm.
type Config struct {
	// Seed drives all randomness; equal seeds give identical runs.
	Seed uint64
	// K is the radius parameter (Elkin–Neiman Theorems 1–2, Linial–Saks,
	// ball carving). 0 selects each algorithm's documented default
	// (⌈ln n⌉ for the randomized algorithms, ⌈log₂ n⌉ for ball carving).
	K int
	// Lambda is the color budget of Elkin–Neiman Theorem 3; 0 defaults
	// to 2.
	Lambda int
	// C is the confidence parameter of the randomized algorithms; 0
	// defaults to 8.
	C float64
	// Beta is the MPX exponential rate; 0 defaults to 0.3.
	Beta float64
	// ForceComplete keeps carving past the theorem budget until every
	// vertex is clustered (Elkin–Neiman, Linial–Saks; MPX and ball carving
	// are always complete).
	ForceComplete bool
	// PhaseBudget overrides the theorem's phase budget when positive.
	PhaseBudget int
	// ExactRadius selects the RadiusExact truncation mode of the
	// Elkin–Neiman sequential simulation.
	ExactRadius bool
	// Engine executes Elkin–Neiman on the internal/dist message-passing
	// engine instead of the sequential simulation ("elkin-neiman/dist"
	// forces this).
	Engine bool
	// Observer streams per-round traffic statistics as the run executes.
	// Engine-backed algorithms report real engine rounds; the sequential
	// Elkin–Neiman simulation reports its message-accurate equivalent; the
	// purely sequential yardsticks (Linial–Saks, MPX-sequential, ball
	// carving) do not emit callbacks.
	Observer func(dist.RoundStats)
	// Recorder attaches the unified telemetry layer (internal/obs): Plan.Run
	// wraps the execution in a span keyed by PlanKey, observes its latency
	// into the per-algorithm plan.<name>.ns histogram, and hands the
	// algorithm a recorder rooted at that span — the engine and the phase
	// simulation then record rounds, messages, words and frontier sizes
	// into the same registry. Like Observer, the Recorder is an execution
	// side channel: it is excluded from the PlanKey, and nil disables all
	// telemetry at zero cost.
	Recorder *obs.Recorder
}

// Option is a functional option for Decompose.
type Option func(*Config)

// Apply folds the options into a zero Config.
func Apply(opts []Option) Config {
	var c Config
	for _, o := range opts {
		if o != nil {
			o(&c)
		}
	}
	return c
}

// WithSeed sets the random seed.
func WithSeed(seed uint64) Option { return func(c *Config) { c.Seed = seed } }

// WithK sets the radius parameter.
func WithK(k int) Option { return func(c *Config) { c.K = k } }

// WithLambda sets the Theorem 3 color budget.
func WithLambda(lambda int) Option { return func(c *Config) { c.Lambda = lambda } }

// WithC sets the confidence parameter.
func WithC(cv float64) Option { return func(c *Config) { c.C = cv } }

// WithBeta sets the MPX exponential rate.
func WithBeta(beta float64) Option { return func(c *Config) { c.Beta = beta } }

// WithForceComplete keeps carving until every vertex is clustered.
func WithForceComplete() Option { return func(c *Config) { c.ForceComplete = true } }

// WithPhaseBudget overrides the phase budget.
func WithPhaseBudget(budget int) Option { return func(c *Config) { c.PhaseBudget = budget } }

// WithExactRadius selects the untruncated RadiusExact mode (sequential
// Elkin–Neiman only).
func WithExactRadius() Option { return func(c *Config) { c.ExactRadius = true } }

// WithEngine executes on the message-passing engine (Elkin–Neiman).
func WithEngine() Option { return func(c *Config) { c.Engine = true } }

// WithObserver streams per-round statistics to fn as the run executes.
func WithObserver(fn func(dist.RoundStats)) Option {
	return func(c *Config) { c.Observer = fn }
}

// WithRecorder attaches a telemetry recorder to the run (see
// Config.Recorder). A nil recorder leaves telemetry disabled.
func WithRecorder(rec *obs.Recorder) Option {
	return func(c *Config) { c.Recorder = rec }
}

// WithConfig replaces the whole Config with an already-resolved one. It is
// how a compiled Plan drives Decomposers that do not implement
// ConfigRunner: the plan's validated Config is carried through the option
// list verbatim. Options appearing after WithConfig still apply on top.
func WithConfig(cfg Config) Option {
	return func(c *Config) { *c = cfg }
}
