package decomp

import (
	"context"
	"reflect"
	"testing"

	"netdecomp/internal/dist"
	"netdecomp/internal/gen"
	"netdecomp/internal/graph"
	"netdecomp/internal/obs"
)

// TestCompileValidates pins compile-time validation: unknown names and
// structurally nonsensical configurations fail at Compile, not at Run.
func TestCompileValidates(t *testing.T) {
	if _, err := Compile("no-such-algorithm"); err == nil {
		t.Error("unknown name accepted")
	}
	bad := []Option{
		WithK(-1),
		WithLambda(-2),
		WithC(-0.5),
		WithBeta(-0.1),
		WithPhaseBudget(-3),
	}
	for i, opt := range bad {
		if _, err := Compile("elkin-neiman", opt); err == nil {
			t.Errorf("bad option %d accepted", i)
		}
	}
	// A spec compiles iff its run succeeds: the checks a built-in's run
	// makes before it looks at the graph are the ones Compile makes.
	g := gen.Grid(6, 6)
	for _, tc := range []struct {
		spec PlanSpec
		ok   bool
	}{
		{PlanSpec{Algorithm: "elkin-neiman", C: 2}, false},
		{PlanSpec{Algorithm: "elkin-neiman", C: 3.5}, true},
		{PlanSpec{Algorithm: "elkin-neiman/theorem2", C: 4.5}, false},
		{PlanSpec{Algorithm: "elkin-neiman/theorem2", C: 5.5}, true},
		{PlanSpec{Algorithm: "mpx", Beta: 1.5}, false},
		{PlanSpec{Algorithm: "mpx/dist", Beta: 1.5}, false},
		{PlanSpec{Algorithm: "mpx", Beta: 1}, true},
		{PlanSpec{Algorithm: "elkin-neiman/dist", ExactRadius: true}, false},
		{PlanSpec{Algorithm: "elkin-neiman", Engine: true, ExactRadius: true}, false},
		{PlanSpec{Algorithm: "elkin-neiman", ExactRadius: true}, true},
		{PlanSpec{Algorithm: "linial-saks", K: 1}, false},
		{PlanSpec{Algorithm: "linial-saks", K: 2}, true},
		{PlanSpec{Algorithm: "linial-saks", C: 0.5}, false},
		{PlanSpec{Algorithm: "linial-saks", C: 1.5}, true},
	} {
		_, err := tc.spec.Compile()
		if (err == nil) != tc.ok {
			t.Errorf("%+v: compile error %v, want ok=%v", tc.spec, err, tc.ok)
		}
		cfg := Config{K: tc.spec.K, C: tc.spec.C, Beta: tc.spec.Beta, ExactRadius: tc.spec.ExactRadius, Engine: tc.spec.Engine}
		_, runErr := MustGet(tc.spec.Algorithm).(Func).Run(context.Background(), g, cfg)
		if (runErr == nil) != tc.ok {
			t.Errorf("%+v: run error %v, want ok=%v", tc.spec, runErr, tc.ok)
		}
	}
	if _, err := CompileDecomposer(nil); err == nil {
		t.Error("nil decomposer accepted")
	}
	if _, err := Compile("elkin-neiman", WithK(5), WithSeed(9)); err != nil {
		t.Errorf("valid compile failed: %v", err)
	}
}

// TestPlanKeyAnatomy pins the digest contract: every semantic field moves
// the key, while seed and observer — the two components deliberately
// outside it — do not.
func TestPlanKeyAnatomy(t *testing.T) {
	base := func() (*Plan, error) { return Compile("elkin-neiman", WithK(3), WithC(8)) }
	pl, err := base()
	if err != nil {
		t.Fatal(err)
	}
	again, err := base()
	if err != nil {
		t.Fatal(err)
	}
	if pl.PlanKey() != again.PlanKey() {
		t.Fatal("equal inputs compiled to different keys")
	}
	variants := map[string]Option{
		"K":             WithK(4),
		"Lambda":        WithLambda(3),
		"C":             WithC(9),
		"Beta":          WithBeta(0.4),
		"ForceComplete": WithForceComplete(),
		"PhaseBudget":   WithPhaseBudget(7),
		"ExactRadius":   WithExactRadius(),
		"Engine":        WithEngine(),
	}
	for field, opt := range variants {
		v, err := Compile("elkin-neiman", WithK(3), WithC(8), opt)
		if err != nil {
			t.Fatalf("%s: %v", field, err)
		}
		if v.PlanKey() == pl.PlanKey() {
			t.Errorf("changing %s did not change the plan key", field)
		}
	}
	otherName, err := Compile("linial-saks", WithK(3), WithC(8))
	if err != nil {
		t.Fatal(err)
	}
	if otherName.PlanKey() == pl.PlanKey() {
		t.Error("different algorithm, same key")
	}
	if pl.WithSeed(99).PlanKey() != pl.PlanKey() {
		t.Error("seed moved the plan key; it is keyed separately")
	}
	if pl.WithObserver(func(dist.RoundStats) {}).PlanKey() != pl.PlanKey() {
		t.Error("observer moved the plan key")
	}
	if pl.WithRecorder(obs.New(obs.NewRegistry(), nil)).PlanKey() != pl.PlanKey() {
		t.Error("recorder moved the plan key")
	}
	if pl.WithSeed(99).Seed() != 99 || pl.Seed() != 0 {
		t.Error("WithSeed mutated the original plan")
	}

	// Every Config field is keyed, with a variant above that sets it, or
	// is one of the side channels; every keyed field has a PlanSpec twin
	// of its type, and PlanSpec has nothing else but the algorithm name
	// and the seed. A field that only steers execution cannot slip into
	// the key, and the wire form cannot drift from Config.
	sideChannels := map[string]bool{"Seed": true, "Observer": true, "Recorder": true}
	cfgType, specType := reflect.TypeOf(Config{}), reflect.TypeOf(PlanSpec{})
	for i := 0; i < cfgType.NumField(); i++ {
		f := cfgType.Field(i)
		opt, keyed := variants[f.Name]
		if keyed == sideChannels[f.Name] {
			t.Errorf("Config.%s: keyed=%v, side channel=%v; want exactly one", f.Name, keyed, sideChannels[f.Name])
			continue
		}
		if !keyed {
			continue
		}
		if reflect.ValueOf(Apply([]Option{opt})).FieldByName(f.Name).IsZero() {
			t.Errorf("the %s variant leaves Config.%s zero", f.Name, f.Name)
		}
		if twin, ok := specType.FieldByName(f.Name); !ok || twin.Type != f.Type {
			t.Errorf("Config.%s (%v) has no PlanSpec twin of its type", f.Name, f.Type)
		}
	}
	for field := range variants {
		if _, ok := cfgType.FieldByName(field); !ok {
			t.Errorf("variant %s names no Config field", field)
		}
	}
	for i := 0; i < specType.NumField(); i++ {
		name := specType.Field(i).Name
		if _, keyed := variants[name]; !keyed && name != "Algorithm" && name != "Seed" {
			t.Errorf("PlanSpec.%s has no keyed Config twin", name)
		}
	}
}

// TestPlanRunEqualsDecompose pins the compile/execute split against the
// one-shot entry point for every registered algorithm: identical
// Partitions, field for field.
func TestPlanRunEqualsDecompose(t *testing.T) {
	g, err := gen.Build(gen.FamilyGnp, 200, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, name := range Names() {
		opts := []Option{WithSeed(5), WithForceComplete()}
		direct, err := MustGet(name).Decompose(ctx, g, opts...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pl, err := Compile(name, opts...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		viaPlan, err := pl.Run(ctx, g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(direct, viaPlan) {
			t.Errorf("%s: Plan.Run differs from Decompose", name)
		}
	}
}

// planOnly wraps a Decomposer while hiding any DecomposeConfig method, so
// compiled plans over it must take Plan.Run's WithConfig fallback path.
type planOnly struct{ inner Decomposer }

func (p planOnly) Name() string { return p.inner.Name() }
func (p planOnly) Decompose(ctx context.Context, g graph.Interface, opts ...Option) (*Partition, error) {
	return p.inner.Decompose(ctx, g, opts...)
}

// TestPlanRunConfigFallback pins the WithConfig path: a Decomposer that
// does not implement ConfigRunner still executes the compiled Config
// verbatim, producing the same Partition as a direct call.
func TestPlanRunConfigFallback(t *testing.T) {
	g, err := gen.Build(gen.FamilyGnp, 120, 2)
	if err != nil {
		t.Fatal(err)
	}
	opaque := planOnly{inner: MustGet("ball-carving")}
	if _, ok := Decomposer(opaque).(ConfigRunner); ok {
		t.Fatal("test wrapper unexpectedly implements ConfigRunner")
	}
	pl, err := CompileDecomposer(opaque, WithK(4), WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Apply([]Option{WithConfig(pl.Config())})
	if cfg.K != 4 || cfg.Seed != 6 {
		t.Fatalf("WithConfig did not carry the compiled Config: %+v", cfg)
	}
	direct, err := MustGet("ball-carving").Decompose(context.Background(), g, WithK(4), WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	viaPlan, err := pl.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, viaPlan) {
		t.Error("fallback plan run differs from direct")
	}
}

// TestPartitionClone pins the deep copy: mutating a clone's slices leaves
// the original untouched.
func TestPartitionClone(t *testing.T) {
	g, err := gen.Build(gen.FamilyGnp, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := MustGet("elkin-neiman").Decompose(context.Background(), g,
		WithSeed(2), WithForceComplete())
	if err != nil {
		t.Fatal(err)
	}
	c := p.Clone()
	if !reflect.DeepEqual(p, c) {
		t.Fatal("clone not equal to original")
	}
	c.Clusters[0].Members[0] = -999
	c.ClusterOf[0] = -999
	c.Clusters[0].Color = -999
	if p.Clusters[0].Members[0] == -999 || p.ClusterOf[0] == -999 || p.Clusters[0].Color == -999 {
		t.Fatal("mutating the clone corrupted the original")
	}
}
