package decomp_test

import (
	"context"
	"testing"

	"netdecomp/internal/core"
	"netdecomp/internal/decomp"
	"netdecomp/internal/dist"
	"netdecomp/internal/gen"
	"netdecomp/internal/graph"
	"netdecomp/internal/obs"
)

// TestPlanRunRecorder pins the plan-level telemetry contract on the
// engine path: Run wraps the execution in a plan span, the engine's
// per-round events nest beneath it, and the registry collects the
// engine.* counters and the per-algorithm latency histogram. It also
// pins that attaching a recorder never perturbs the PlanKey.
func TestPlanRunRecorder(t *testing.T) {
	g := gen.Grid(8, 8)
	reg := obs.NewRegistry()
	trc := obs.NewTracer()
	rec := obs.New(reg, trc)
	pl, err := decomp.Compile("elkin-neiman/dist",
		decomp.WithSeed(3), decomp.WithForceComplete())
	if err != nil {
		t.Fatal(err)
	}
	instrumented := pl.WithRecorder(rec)
	if instrumented.PlanKey() != pl.PlanKey() {
		t.Fatal("WithRecorder changed the PlanKey")
	}
	if _, err := instrumented.Run(context.Background(), g); err != nil {
		t.Fatal(err)
	}

	if got := reg.Counter("plan.runs").Value(); got != 1 {
		t.Fatalf("plan.runs = %d, want 1", got)
	}
	rounds := reg.Counter("engine.rounds").Value()
	if rounds <= 0 {
		t.Fatalf("engine.rounds = %d, want > 0", rounds)
	}
	if got := reg.Histogram("plan.elkin-neiman/dist.ns").Snapshot().Count; got != 1 {
		t.Fatalf("plan latency histogram count = %d, want 1", got)
	}
	if got := reg.Histogram("engine.round.messages").Snapshot().Count; got != rounds {
		t.Fatalf("engine.round.messages count = %d, want %d", got, rounds)
	}

	evs := trc.Events()
	if len(evs) < 3 || evs[0].Name != "plan/elkin-neiman/dist" || evs[0].Ph != 'B' {
		t.Fatalf("trace must open with the plan span, got %+v", evs[:min(3, len(evs))])
	}
	var roundEvents int64
	for _, e := range evs {
		if e.Name == "round" && e.Ph == 'i' {
			if e.TID != evs[0].TID {
				t.Fatalf("round event off the plan span's thread: %+v", e)
			}
			roundEvents++
		}
	}
	if roundEvents != rounds {
		t.Fatalf("trace carries %d round events, want %d", roundEvents, rounds)
	}
	if last := evs[len(evs)-1]; last.Ph != 'E' || last.Name != "plan/elkin-neiman/dist" {
		t.Fatalf("trace must close with the plan span, got %+v", last)
	}
}

// engineTrace runs the Elkin–Neiman node program on g under the engine
// options eo, its rounds recorded under one span of a fresh tracer, and
// returns the event stream with timestamps normalized to zero —
// everything about the stream except wall-clock time.
func engineTrace(t *testing.T, g graph.Interface, eo dist.Options) []obs.Event {
	t.Helper()
	trc := obs.NewTracer()
	rec := obs.New(obs.NewRegistry(), trc)
	span := rec.Span("run")
	eo.Recorder = rec.Under(span).Rounds()
	if _, err := core.RunDistributed(context.Background(), g, core.Options{Seed: 9, ForceComplete: true}, eo); err != nil {
		t.Fatal(err)
	}
	span.End()
	evs := trc.Events()
	for i := range evs {
		evs[i].TS = 0
	}
	return evs
}

// TestTelemetryDeterminism is the telemetry half of the bit-identical
// scheduler contract: a fixed-seed engine run emits exactly the same
// event stream — names, nesting, per-round argument values — under the
// sequential and the parallel scheduler, for any worker count. Only
// timestamps may differ.
func TestTelemetryDeterminism(t *testing.T) {
	g := gen.Grid(64, 64)
	want := engineTrace(t, g, dist.Options{})
	if len(want) <= 2 {
		t.Fatalf("sequential run emitted %d events, want its rounds inside the span", len(want))
	}
	for workers := 1; workers <= 4; workers++ {
		got := engineTrace(t, g, dist.Options{Parallel: true, Workers: workers})
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d events, sequential emitted %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: event %d differs:\n  par: %+v\n  seq: %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestUnobservedRunHasNoTelemetry is the disabled-path contract at the
// plan level: without a recorder nothing is recorded anywhere.
func TestUnobservedRunHasNoTelemetry(t *testing.T) {
	g := gen.Grid(4, 4)
	pl, err := decomp.Compile("elkin-neiman", decomp.WithSeed(1), decomp.WithForceComplete())
	if err != nil {
		t.Fatal(err)
	}
	if pl.Recorder() != nil {
		t.Fatal("fresh plan must carry no recorder")
	}
	if _, err := pl.Run(context.Background(), g); err != nil {
		t.Fatal(err)
	}
}
