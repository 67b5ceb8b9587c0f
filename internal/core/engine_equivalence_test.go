package core

import (
	"context"
	"reflect"
	"testing"

	"netdecomp/internal/dist"
	"netdecomp/internal/gen"
	"netdecomp/internal/graph"
	"netdecomp/internal/randx"
)

// TestEngineSchedulerDeterminism pins the engine contract internal/randx
// documents: for a fixed seed, the sequential scheduler, the default
// parallel scheduler and every explicit worker count 1..8 produce the
// identical Decomposition — clusters, colors and CONGEST metrics alike.
func TestEngineSchedulerDeterminism(t *testing.T) {
	graphs := []*graph.Graph{
		gen.GnpConnected(randx.New(21), 250, 0.012),
		gen.RingOfCliques(12, 5),
	}
	for gi, g := range graphs {
		o := Options{K: 4, C: 8, Seed: 42}
		ref, err := RunDistributed(context.Background(), g, o, dist.Options{})
		if err != nil {
			t.Fatal(err)
		}
		engines := []dist.Options{{Parallel: true}}
		for w := 1; w <= 8; w++ {
			engines = append(engines, dist.Options{Parallel: true, Workers: w})
		}
		for _, e := range engines {
			got, err := RunDistributed(context.Background(), g, o, e)
			if err != nil {
				t.Fatalf("graph %d engine %+v: %v", gi, e, err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("graph %d engine %+v: decomposition diverged from sequential scheduler", gi, e)
			}
		}
	}
}

// badProgram violates the engine contract by addressing a node outside the
// graph; the engine must surface an error, not a panic.
type badProgram struct{ n int }

func (p badProgram) NumNodes() int { return p.n }

func (p badProgram) Step(node, round int, in []dist.Envelope[Msg]) ([]dist.Send[Msg], bool) {
	return []dist.Send[Msg]{{To: []int32{int32(p.n + 7)}, Payload: Msg{Depart: true}}}, true
}

func TestEngineRejectsOutOfRangeMessages(t *testing.T) {
	if _, err := dist.Run[Msg](context.Background(), badProgram{n: 5}, dist.Options{}); err == nil {
		t.Fatal("engine accepted a message to an out-of-range node")
	}
}
