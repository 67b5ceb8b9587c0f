package netdecomp

import (
	"context"

	"netdecomp/internal/decomp"
	"netdecomp/internal/session"
	"netdecomp/internal/spanner"
)

// The Plan/Session execution API: compile a configuration once, execute it
// many times, and serve repeated work from a deduplicating cache.
//
//	pl, _ := netdecomp.Compile("elkin-neiman", netdecomp.WithForceComplete())
//	s := netdecomp.NewSession()
//	defer s.Close()
//	p, err := s.Run(ctx, pl.WithSeed(7), g)   // cold: executes
//	p2, _ := s.Run(ctx, pl.WithSeed(7), g)    // warm: served from cache
//
// Results are keyed on (GraphFingerprint, PlanKey, seed) and every caller
// gets its own fresh copy; see internal/session for the full semantics.

// Plan is the immutable compiled form of (algorithm, resolved options):
// validated once by Compile, executed any number of times with Run, and
// identified by the stable PlanKey digest the session cache keys on.
type Plan = decomp.Plan

// Compile resolves an algorithm name and folds the options into an
// immutable, validated Plan. Derive seed-sweep copies with Plan.WithSeed.
func Compile(name string, opts ...DecomposeOption) (*Plan, error) {
	return decomp.Compile(name, opts...)
}

// CompileDecomposer compiles a Plan for a Decomposer held directly (one
// not in, or shadowed in, the registry).
func CompileDecomposer(d Decomposer, opts ...DecomposeOption) (*Plan, error) {
	return decomp.CompileDecomposer(d, opts...)
}

// Session is the concurrent plan-execution service: a bounded worker
// pool with singleflight deduplication of identical in-flight jobs and an
// LRU cache of completed Partitions (served as fresh copies).
type Session = session.Session

// SessionOption configures NewSession.
type SessionOption = session.Option

// SessionStats is the hit/miss/dedup counter snapshot from Session.Stats.
type SessionStats = session.Stats

// SessionJob is the handle of one Session.Submit.
type SessionJob = session.Job

// SessionKey is the (graph fingerprint, plan key, seed) cache key triple.
type SessionKey = session.Key

// SessionRequest is one entry of a Session.SubmitAll batch.
type SessionRequest = session.Request

// SessionResult is one streamed Session.SubmitAll outcome.
type SessionResult = session.Result

// NewSession starts a Session (remember to Close it).
func NewSession(opts ...SessionOption) *Session { return session.New(opts...) }

// WithSessionWorkers bounds the session worker pool (default GOMAXPROCS).
func WithSessionWorkers(n int) SessionOption { return session.WithWorkers(n) }

// WithSessionCacheSize bounds the completed-result LRU (default 256
// entries; 0 disables caching).
func WithSessionCacheSize(n int) SessionOption { return session.WithCacheSize(n) }

// RunPlan executes a compiled plan directly, without a session (no cache,
// no dedup): Compile + RunPlan is exactly equivalent to the one-shot
// Decompose entry points.
func RunPlan(ctx context.Context, pl *Plan, g GraphInterface) (*Partition, error) {
	return pl.Run(ctx, g)
}

// BuildSpannerFromPlan decomposes g by the compiled plan (which must
// force completion) and builds the skeleton spanner from the result. A
// non-nil Session serves repeated builds of the same (graph, plan, seed)
// from its decomposition cache; repeated cover builds get the same via
// CoverOptions.Session.
func BuildSpannerFromPlan(ctx context.Context, g GraphInterface, s *Session, pl *Plan) (*Spanner, error) {
	return spanner.BuildFromPlan(ctx, g, s, pl)
}
