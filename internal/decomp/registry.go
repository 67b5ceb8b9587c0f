package decomp

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"netdecomp/internal/graph"
)

// Decomposer is the single entry point every algorithm implements: one
// call takes a graph and functional options and returns the unified
// Partition. Implementations must honor ctx between phases or rounds and
// return ctx.Err() when cancelled.
type Decomposer interface {
	// Name is the registry name of the algorithm.
	Name() string
	// Decompose runs the algorithm on g: any read-only graph backend —
	// *graph.Graph, a zero-copy *graph.View, or a custom Interface
	// implementation — is accepted.
	Decompose(ctx context.Context, g graph.Interface, opts ...Option) (*Partition, error)
}

// Func adapts a plain function into a Decomposer.
type Func struct {
	// AlgorithmName is the registry name reported by Name.
	AlgorithmName string
	// Run executes the algorithm on the resolved Config.
	Run func(ctx context.Context, g graph.Interface, cfg Config) (*Partition, error)
	// check, set on built-ins only, is the part of Run's validation that
	// does not depend on the graph; Compile makes it (see validate).
	check func(Config) error
}

// Name implements Decomposer.
func (f Func) Name() string { return f.AlgorithmName }

// Decompose implements Decomposer as a thin compile-then-run shim: the
// one-shot call is literally CompileDecomposer followed by Plan.Run, so
// both entry points share one validation and execution path and produce
// bit-identical Partitions.
func (f Func) Decompose(ctx context.Context, g graph.Interface, opts ...Option) (*Partition, error) {
	p, err := CompileDecomposer(f, opts...)
	if err != nil {
		return nil, err
	}
	return p.Run(ctx, g)
}

// DecomposeConfig implements ConfigRunner: it executes directly from a
// resolved Config, the fast path Plan.Run takes.
func (f Func) DecomposeConfig(ctx context.Context, g graph.Interface, cfg Config) (*Partition, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return f.Run(ctx, g, cfg)
}

var (
	registryMu sync.RWMutex
	registry   = map[string]Decomposer{}
)

// Register adds d under its Name, replacing any previous registration
// (last registration wins, so applications can shadow built-ins). It
// panics on an empty name.
func Register(d Decomposer) {
	name := d.Name()
	if name == "" {
		panic("decomp: Register with empty name")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	registry[name] = d
}

// Get returns the Decomposer registered under name. The error lists the
// known names, so a typo in an experiment config is self-diagnosing.
func Get(name string) (Decomposer, error) {
	registryMu.RLock()
	d, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("decomp: unknown algorithm %q (known: %v)", name, Names())
	}
	return d, nil
}

// MustGet is Get for static names; it panics on an unknown name.
func MustGet(name string) Decomposer {
	d, err := Get(name)
	if err != nil {
		panic(err)
	}
	return d
}

// Names returns every registered name, sorted.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
