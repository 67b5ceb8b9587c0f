package decomp_test

import (
	"context"
	"reflect"
	"testing"

	"netdecomp/internal/decomp"
	"netdecomp/internal/dist"
	"netdecomp/internal/gen"
	"netdecomp/internal/randx"
)

// TestRegistryRoundTrip: every registered algorithm decomposes a small
// graph into a Partition that passes verification under its own mode.
func TestRegistryRoundTrip(t *testing.T) {
	for _, name := range decomp.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			g := gen.GnpConnected(randx.New(11), 160, 0.03)
			d, err := decomp.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			if d.Name() != name {
				t.Fatalf("Get(%q).Name() = %q", name, d.Name())
			}
			p, err := d.Decompose(context.Background(), g,
				decomp.WithSeed(3), decomp.WithForceComplete())
			if err != nil {
				t.Fatal(err)
			}
			if p.Algorithm == "" {
				t.Fatal("partition carries no algorithm name")
			}
			if !p.Complete {
				t.Fatal("ForceComplete partition incomplete")
			}
			if rep := p.Verify(g); !rep.Valid() {
				t.Fatalf("verification failed: %v", rep.Err())
			}
			if p.Mode == decomp.StrongDiameter {
				if _, disc := p.StrongDiameter(g); disc != 0 {
					t.Fatalf("strong-mode partition has %d disconnected clusters", disc)
				}
			}
		})
	}
}

func TestGetUnknownName(t *testing.T) {
	if _, err := decomp.Get("no-such-algorithm"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

// TestEngineAndSimulationAgree: "elkin-neiman" and "elkin-neiman/dist"
// carve the same clusters for equal options.
func TestEngineAndSimulationAgree(t *testing.T) {
	g := gen.Grid(13, 13)
	ctx := context.Background()
	opts := []decomp.Option{decomp.WithK(3), decomp.WithSeed(2)}
	a, err := decomp.MustGet("elkin-neiman").Decompose(ctx, g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	b, err := decomp.MustGet("elkin-neiman/dist").Decompose(ctx, g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.MemberLists(), b.MemberLists()) {
		t.Fatal("engine and simulation clusters differ")
	}
}

// TestObserverOrdering: callbacks arrive with strictly increasing round
// indices and sum to the partition's message totals, on both the
// simulation and the engine path.
func TestObserverOrdering(t *testing.T) {
	g := gen.GnpConnected(randx.New(7), 150, 0.04)
	for _, name := range []string{"elkin-neiman", "elkin-neiman/dist", "mpx/dist"} {
		name := name
		t.Run(name, func(t *testing.T) {
			var rounds []dist.RoundStats
			p, err := decomp.MustGet(name).Decompose(context.Background(), g,
				decomp.WithSeed(4), decomp.WithObserver(func(r dist.RoundStats) {
					rounds = append(rounds, r)
				}))
			if err != nil {
				t.Fatal(err)
			}
			if len(rounds) == 0 {
				t.Fatal("observer never called")
			}
			var msgs int64
			for i, r := range rounds {
				if r.Round != i {
					t.Fatalf("callback %d carried round %d", i, r.Round)
				}
				msgs += r.Messages
			}
			if msgs != p.Metrics.Messages {
				t.Fatalf("observer sum %d != metrics total %d", msgs, p.Metrics.Messages)
			}
		})
	}
}

// TestDecomposeCancelled: a cancelled context surfaces as ctx.Err() from
// every registered algorithm.
func TestDecomposeCancelled(t *testing.T) {
	g := gen.Grid(12, 12)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range decomp.Names() {
		if _, err := decomp.MustGet(name).Decompose(ctx, g, decomp.WithSeed(1)); err != context.Canceled {
			t.Fatalf("%s: err = %v, want context.Canceled", name, err)
		}
	}
}
