package core

import (
	"context"
	"testing"

	"netdecomp/internal/dist"
	"netdecomp/internal/gen"
	"netdecomp/internal/randx"
)

func TestRunWithObserverMatchesTotals(t *testing.T) {
	// The streamed per-round stats must sum to the decomposition's message
	// and word totals, with monotone round indices.
	g := gen.GnpConnected(randx.New(4), 300, 0.02)
	var rounds []dist.RoundStats
	dec, err := RunWith(g, Options{K: 4, C: 8, Seed: 9, ForceComplete: true}, Exec{
		Observer: func(r dist.RoundStats) { rounds = append(rounds, r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	var msgs, words int64
	for i, r := range rounds {
		if r.Round != i {
			t.Fatalf("callback %d carried round index %d", i, r.Round)
		}
		msgs += r.Messages
		words += r.Words
	}
	if msgs != dec.Metrics.Messages || words != dec.Metrics.Words {
		t.Fatalf("observer sums %d/%d != totals %d/%d", msgs, words, dec.Metrics.Messages, dec.Metrics.Words)
	}
	// k broadcast rounds plus one decision round per executed phase.
	if want := dec.PhasesUsed * (dec.K + 1); len(rounds) != want {
		t.Fatalf("observer saw %d rounds, want %d (phases=%d, k=%d)", len(rounds), want, dec.PhasesUsed, dec.K)
	}
}

func TestRunWithIdenticalToRun(t *testing.T) {
	// Exec plumbing must not perturb the decomposition.
	g := gen.Grid(15, 15)
	o := Options{K: 3, C: 8, Seed: 2, ForceComplete: true}
	a, err := Run(g, o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunWith(g, o, Exec{Observer: func(dist.RoundStats) {}})
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() || a.Metrics.Messages != b.Metrics.Messages {
		t.Fatalf("RunWith diverged: %v vs %v", a, b)
	}
}

func TestRunWithCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := gen.Grid(10, 10)
	if _, err := RunWith(g, Options{K: 3, C: 8, Seed: 1}, Exec{Ctx: ctx}); err != context.Canceled {
		t.Fatalf("sequential run: err = %v, want context.Canceled", err)
	}
	if _, err := RunDistributed(ctx, g, Options{K: 3, C: 8, Seed: 1}, dist.Options{}); err != context.Canceled {
		t.Fatalf("engine run: err = %v, want context.Canceled", err)
	}
}

func TestRunDistributedObserver(t *testing.T) {
	g := gen.Grid(8, 8)
	var seen int
	var msgs int64
	dec, err := RunDistributed(context.Background(), g, Options{K: 3, C: 8, Seed: 5}, dist.Options{
		Observer: func(r dist.RoundStats) { seen++; msgs += r.Messages },
	})
	if err != nil {
		t.Fatal(err)
	}
	metrics := dec.Metrics
	if seen != metrics.Rounds {
		t.Fatalf("observer saw %d rounds, engine reports %d", seen, metrics.Rounds)
	}
	if msgs != metrics.Messages {
		t.Fatalf("observer message sum %d != engine total %d", msgs, metrics.Messages)
	}
}
