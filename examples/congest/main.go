// CONGEST trace: run the decomposition as a true message-passing program
// on the synchronous engine (one goroutine pool, barrier per round) and
// inspect the per-round traffic. The point of the paper's Section 2
// CONGEST argument is that forwarding only the top two shifted values per
// round suffices, so every message stays within O(1) words — the trace
// prints the observed maximum (4 words: two (center, value) entries) and
// the busiest rounds.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"reflect"

	"netdecomp/internal/core"
	"netdecomp/internal/dist"
	"netdecomp/internal/gen"
	"netdecomp/internal/randx"
)

func main() {
	g := gen.GnpConnected(randx.New(8), 800, 0.008)
	fmt.Printf("graph: n=%d m=%d\n", g.N(), g.M())

	k := int(math.Ceil(math.Log(float64(g.N()))))
	opts := core.Options{K: k, C: 8, Seed: 21}

	// Run the node program on the parallel scheduler, collecting per-round
	// stats through the engine's observer.
	var perRound []dist.RoundStats
	p, err := core.RunDistributed(context.Background(), g, opts, dist.Options{
		Parallel: true,
		Observer: func(r dist.RoundStats) { perRound = append(perRound, r) },
	})
	if err != nil {
		log.Fatal(err)
	}
	metrics := p.Metrics
	fmt.Printf("decomposition: %d clusters, %d colors, complete=%v\n",
		len(p.Clusters), p.Colors, p.Complete)
	fmt.Printf("engine: %d rounds, %d messages, %d words total, max message %d words\n",
		metrics.Rounds, metrics.Messages, metrics.Words, metrics.MaxMessageWords)

	// The same run through the sequential reference must agree exactly:
	// the same clusters and the same message and word totals.
	ref, err := core.Run(g, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cross-check vs sequential simulation: clusters %d==%d, messages %d==%d, words %d==%d\n",
		len(ref.Clusters), len(p.Clusters), ref.Metrics.Messages, metrics.Messages, ref.Metrics.Words, metrics.Words)
	if !reflect.DeepEqual(ref.MemberLists(), p.MemberLists()) ||
		ref.Metrics.Messages != metrics.Messages || ref.Metrics.Words != metrics.Words {
		log.Fatal("cross-check failed: the engine and the simulation disagree")
	}

	// Busiest rounds of the execution.
	fmt.Println("\nbusiest rounds (phase boundaries carry the initial broadcasts):")
	top := topRounds(perRound, 5)
	for _, r := range top {
		bar := ""
		for i := int64(0); i < r.Messages/500; i++ {
			bar += "#"
		}
		fmt.Printf("  round %4d: %6d msgs %7d words active=%4d %s\n",
			r.Round, r.Messages, r.Words, r.Active, bar)
	}
}

// topRounds returns the numMax rounds with the most messages, in round order.
func topRounds(rounds []dist.RoundStats, numMax int) []dist.RoundStats {
	out := make([]dist.RoundStats, 0, numMax)
	for _, r := range rounds {
		if len(out) < numMax {
			out = append(out, r)
			continue
		}
		minIdx := 0
		for i := range out {
			if out[i].Messages < out[minIdx].Messages {
				minIdx = i
			}
		}
		if r.Messages > out[minIdx].Messages {
			out[minIdx] = r
		}
	}
	// Restore round order.
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if out[j].Round < out[i].Round {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}
