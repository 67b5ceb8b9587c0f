// Registry tour: the unified Decomposer API in one program. Every
// algorithm the repository implements is registered under a string key
// and reached through the same Decompose call; the single Partition
// result type feeds the verifier, the symmetry-breaking applications and
// the spanner builder regardless of which algorithm produced it. The
// example also demonstrates the two execution-context hooks: a per-round
// Observer streaming CONGEST traffic, and context cancellation.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"netdecomp"
)

func main() {
	g := netdecomp.GnpConnected(netdecomp.NewRNG(17), 1200, 0.005)
	fmt.Printf("graph: n=%d m=%d\n\n", g.N(), g.M())

	// --- Head-to-head: every registered algorithm, one loop ---
	fmt.Printf("%-22s %-6s %-9s %-7s %-7s %-7s %-9s %-6s\n",
		"algorithm", "mode", "clusters", "colors", "sdiam", "rounds", "messages", "valid")
	for _, name := range netdecomp.Algorithms() {
		d, err := netdecomp.Get(name)
		if err != nil {
			log.Fatal(err)
		}
		p, err := d.Decompose(context.Background(), g,
			netdecomp.WithSeed(7), netdecomp.WithForceComplete())
		if err != nil {
			log.Fatal(err)
		}
		sd, disc := p.StrongDiameter(g)
		sdCell := fmt.Sprintf("%d", sd)
		if disc > 0 {
			sdCell = "inf"
		}
		fmt.Printf("%-22s %-6s %-9d %-7d %-7s %-7d %-9d %-6v\n",
			name, p.Mode, len(p.Clusters), p.Colors, sdCell,
			p.Metrics.Rounds, p.Metrics.Messages, netdecomp.VerifyPartition(g, p).Valid())
	}

	// --- One partition, every consumer ---
	p, err := netdecomp.MustGet("mpx").Decompose(context.Background(), g,
		netdecomp.WithBeta(0.3), netdecomp.WithSeed(7))
	if err != nil {
		log.Fatal(err)
	}
	in, err := netdecomp.AppInputFromPartition(g, p) // recolors the single-class MPX partition
	if err != nil {
		log.Fatal(err)
	}
	mis, err := netdecomp.MIS(g, in)
	if err != nil {
		log.Fatal(err)
	}
	sp, err := netdecomp.BuildSpannerFrom(g, p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nMPX partition reused downstream: MIS of %d vertices, spanner of %d edges (input %d)\n",
		mis.Size, sp.Edges, g.M())

	// --- Observer: streaming per-round traffic from the engine ---
	busiest := netdecomp.RoundStats{}
	calls := 0
	_, err = netdecomp.MustGet("elkin-neiman/dist").Decompose(context.Background(), g,
		netdecomp.WithSeed(7), netdecomp.WithEngine(),
		netdecomp.WithObserver(func(r netdecomp.RoundStats) {
			calls++
			if r.Messages > busiest.Messages {
				busiest = r
			}
		}))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("observer saw %d engine rounds; busiest: round %d with %d messages (%d words)\n",
		calls, busiest.Round, busiest.Messages, busiest.Words)

	// --- Cancellation: a deadline stops the run at the next barrier ---
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	if _, err := netdecomp.MustGet("elkin-neiman").Decompose(ctx, g); err != nil {
		fmt.Printf("cancelled run returned: %v\n", err)
	}
}
