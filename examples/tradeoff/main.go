// Tradeoff: sweep the paper's parameter space on one graph. Theorem 1
// trades a small strong diameter (2k−2) for many colors; Theorem 3 inverts
// the tradeoff (λ colors, diameter ~(cn)^{1/λ}); Theorem 2 keeps Theorem
// 1's diameter while lowering the color bound to 4k(cn)^{1/k}. The example
// prints the measured frontier; experiments T1–T3 of `go run
// ./cmd/experiments` (DESIGN.md section 6) sweep the same regimes and check
// their bounds.
package main

import (
	"context"
	"fmt"
	"log"

	"netdecomp"
)

func main() {
	g := netdecomp.GnpConnected(netdecomp.NewRNG(5), 1024, 0.006)
	fmt.Printf("graph: n=%d m=%d\n\n", g.N(), g.M())
	fmt.Printf("%-10s %-8s %-10s %-8s %-8s %-8s\n", "regime", "param", "diam", "bound", "colors", "rounds")

	for _, k := range []int{2, 3, 4, 6, 8} {
		o := netdecomp.Options{Variant: netdecomp.Theorem1, K: k, C: 8, Seed: 9, ForceComplete: true}
		report(g, o, fmt.Sprintf("T1 k=%d", k))
	}
	for _, k := range []int{2, 4} {
		o := netdecomp.Options{Variant: netdecomp.Theorem2, K: k, C: 8, Seed: 9, ForceComplete: true}
		report(g, o, fmt.Sprintf("T2 k=%d", k))
	}
	for _, lambda := range []int{1, 2, 3} {
		o := netdecomp.Options{Variant: netdecomp.Theorem3, Lambda: lambda, C: 8, Seed: 9}
		report(g, o, fmt.Sprintf("T3 λ=%d", lambda))
	}

	fmt.Println("\nreading down: diameter grows as colors shrink — the inverse tradeoff of Theorems 1 and 3.")
}

func report(g *netdecomp.Graph, o netdecomp.Options, label string) {
	opts := []netdecomp.DecomposeOption{
		netdecomp.WithK(o.K), netdecomp.WithLambda(o.Lambda), netdecomp.WithC(o.C), netdecomp.WithSeed(o.Seed),
	}
	if o.ForceComplete {
		opts = append(opts, netdecomp.WithForceComplete())
	}
	p, err := netdecomp.MustGet("elkin-neiman/"+o.Variant.String()).Decompose(context.Background(), g, opts...)
	if err != nil {
		log.Fatal(err)
	}
	rep := netdecomp.VerifyPartition(g, p)
	if !rep.Valid() {
		log.Fatalf("%s: %v", label, rep.Err())
	}
	dBound, err := netdecomp.TheoremDiameterBound(g.N(), o)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-10s %-8s %-10d %-8d %-8d %-8d\n",
		label, "", rep.MaxStrongDiameter, dBound, p.Colors, p.Metrics.Rounds)
}
