package decomp

import (
	"context"
	"fmt"
	"math"
	"time"

	"netdecomp/internal/dist"
	"netdecomp/internal/graph"
	"netdecomp/internal/obs"
)

// Plan is the immutable compiled form of one decomposition configuration:
// an algorithm (resolved from the registry or supplied directly) plus a
// fully resolved Config, validated once at compile time. A Plan is built
// once and executed many times — Run is safe for concurrent use, and the
// derived-copy constructors (WithSeed, WithObserver) make seed sweeps and
// per-run observation cheap without recompiling.
//
// PlanKey is the stable content digest of the plan: two plans that would
// execute the same algorithm under the same semantic configuration share a
// key. Together with graph.Fingerprint and the seed it forms the cache key
// triple (fingerprint × plan key × seed) the session layer dedupes and
// caches on; see internal/session.
type Plan struct {
	name string
	d    Decomposer
	cfg  Config
	key  uint64
}

// ConfigRunner is implemented by Decomposers that can execute directly
// from a resolved Config. Plan.Run uses it to skip re-resolving options on
// every execution; Decomposers that do not implement it are driven through
// Decompose with a WithConfig option carrying the compiled Config.
type ConfigRunner interface {
	DecomposeConfig(ctx context.Context, g graph.Interface, cfg Config) (*Partition, error)
}

// Compile resolves name in the registry, folds the options into a Config,
// validates it, and returns the immutable Plan. Compile is the expensive
// half of the split API: everything that can fail before a graph is seen
// fails here, once, and Run never re-validates.
func Compile(name string, opts ...Option) (*Plan, error) {
	d, err := Get(name)
	if err != nil {
		return nil, err
	}
	return CompileDecomposer(d, opts...)
}

// CompileDecomposer compiles a Plan for a Decomposer held directly (an
// unregistered or shadowed implementation); Compile is the registry-name
// form.
func CompileDecomposer(d Decomposer, opts ...Option) (*Plan, error) {
	if d == nil {
		return nil, fmt.Errorf("decomp: compile of nil Decomposer")
	}
	name := d.Name()
	if name == "" {
		return nil, fmt.Errorf("decomp: compile of Decomposer with empty name")
	}
	cfg := Apply(opts)
	if err := validate(d, name, cfg); err != nil {
		return nil, err
	}
	p := &Plan{name: name, d: d, cfg: cfg}
	p.key = planKey(name, cfg)
	return p, nil
}

// validate rejects at compile time a configuration that would fail on
// every graph: the structurally nonsensical ones, and for the built-ins
// whatever their runs reject before they look at the graph (core's option
// checks, MPX's β range, Linial–Saks's K and C).
func validate(d Decomposer, name string, cfg Config) error {
	switch {
	case cfg.K < 0:
		return fmt.Errorf("decomp: compile %s: K must be non-negative, got %d", name, cfg.K)
	case cfg.Lambda < 0:
		return fmt.Errorf("decomp: compile %s: Lambda must be non-negative, got %d", name, cfg.Lambda)
	case cfg.C < 0:
		return fmt.Errorf("decomp: compile %s: C must be non-negative, got %v", name, cfg.C)
	case cfg.Beta < 0:
		return fmt.Errorf("decomp: compile %s: Beta must be non-negative, got %v", name, cfg.Beta)
	case cfg.PhaseBudget < 0:
		return fmt.Errorf("decomp: compile %s: PhaseBudget must be non-negative, got %d", name, cfg.PhaseBudget)
	}
	if f, ok := d.(Func); ok && f.check != nil {
		if err := f.check(cfg); err != nil {
			return fmt.Errorf("decomp: compile %s: %w", name, err)
		}
	}
	return nil
}

// planKey digests the algorithm name and every semantic Config field.
// Seed is excluded — the cache key triple carries it separately, so one
// compiled Plan covers a whole seed sweep — and Observer and Recorder are
// excluded because they are side channels of the execution, never part of
// the produced Partition.
func planKey(name string, cfg Config) uint64 {
	const fnvOffset64, fnvPrime64 = 14695981039346656037, 1099511628211
	h := uint64(fnvOffset64)
	word := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= fnvPrime64
			x >>= 8
		}
	}
	word(uint64(len(name)))
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= fnvPrime64
	}
	word(uint64(cfg.K))
	word(uint64(cfg.Lambda))
	word(math.Float64bits(cfg.C))
	word(math.Float64bits(cfg.Beta))
	b := func(v bool) {
		if v {
			word(1)
		} else {
			word(0)
		}
	}
	b(cfg.ForceComplete)
	word(uint64(cfg.PhaseBudget))
	b(cfg.ExactRadius)
	b(cfg.Engine)
	return h
}

// Name returns the algorithm name the plan executes.
func (p *Plan) Name() string { return p.name }

// Config returns a copy of the resolved configuration.
func (p *Plan) Config() Config { return p.cfg }

// Seed returns the plan's seed — the third component of the session cache
// key.
func (p *Plan) Seed() uint64 { return p.cfg.Seed }

// PlanKey returns the stable digest of (algorithm name, semantic Config):
// every field except Seed (keyed separately) and the execution side
// channels Observer and Recorder. Plans compiled from equal inputs in
// different processes agree.
func (p *Plan) PlanKey() uint64 { return p.key }

// WithSeed returns a copy of the plan running under a different seed. The
// copy shares the PlanKey — seed is deliberately outside the digest — so a
// seed sweep is one compile plus n cheap derivations.
func (p *Plan) WithSeed(seed uint64) *Plan {
	cp := *p
	cp.cfg.Seed = seed
	return &cp
}

// WithObserver returns a copy of the plan streaming per-round statistics
// to fn. Observation never affects the PlanKey: observed and unobserved
// executions of the same plan are interchangeable cache-wise.
func (p *Plan) WithObserver(fn func(dist.RoundStats)) *Plan {
	cp := *p
	cp.cfg.Observer = fn
	return &cp
}

// WithRecorder returns a copy of the plan reporting into the telemetry
// recorder (see Config.Recorder). Like observation, telemetry never
// affects the PlanKey.
func (p *Plan) WithRecorder(rec *obs.Recorder) *Plan {
	cp := *p
	cp.cfg.Recorder = rec
	return &cp
}

// Recorder returns the plan's attached telemetry recorder (nil when
// telemetry is disabled).
func (p *Plan) Recorder() *obs.Recorder { return p.cfg.Recorder }

// Run executes the compiled plan on g. It is the cheap half of the split
// API: no option resolution, no registry lookup, no validation — just the
// algorithm. Run is safe to call concurrently from multiple goroutines.
//
// With a Recorder attached, the execution is wrapped in a span named
// plan/<algorithm> carrying the PlanKey and seed, its wall-clock latency
// lands in the plan.<algorithm>.ns histogram, and the algorithm receives
// a recorder rooted at that span — so engine rounds and phase spans nest
// beneath the plan in the exported trace.
func (p *Plan) Run(ctx context.Context, g graph.Interface) (*Partition, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	rec := p.cfg.Recorder
	if rec == nil {
		return p.run(ctx, g, p.cfg)
	}
	rec.Counter("plan.runs").Inc()
	span := rec.Span("plan/"+p.name, obs.KV{K: "plankey", V: int64(p.key)}, obs.KV{K: "seed", V: int64(p.cfg.Seed)})
	cfg := p.cfg
	cfg.Recorder = rec.Under(span)
	start := time.Now()
	part, err := p.run(ctx, g, cfg)
	rec.Histogram("plan." + p.name + ".ns").Observe(time.Since(start).Nanoseconds())
	if err != nil {
		rec.Counter("plan.errors").Inc()
	}
	span.End()
	return part, err
}

// run dispatches to the Decomposer with the given effective Config.
func (p *Plan) run(ctx context.Context, g graph.Interface, cfg Config) (*Partition, error) {
	if cr, ok := p.d.(ConfigRunner); ok {
		return cr.DecomposeConfig(ctx, g, cfg)
	}
	return p.d.Decompose(ctx, g, WithConfig(cfg))
}
