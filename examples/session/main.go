// Command session walks through the Plan/Session execution API: compile a
// decomposition configuration once, then serve it many times — repeats
// from the result cache, concurrent duplicates deduplicated in flight,
// seed sweeps as one streamed batch, and derived structures (covers,
// spanners) riding the same cache.
//
// Run with: go run ./examples/session
package main

import (
	"context"
	"fmt"
	"log"

	"netdecomp"
)

func main() {
	ctx := context.Background()
	g := netdecomp.GnpConnected(netdecomp.NewRNG(42), 2048, 8.0/2047)
	fmt.Printf("graph: %v (fingerprint %016x)\n\n", g, netdecomp.GraphFingerprint(g))

	// 1. Compile once. The Plan is immutable and validated; its PlanKey is
	// a stable digest of (algorithm, semantic options) — seed excluded, so
	// one compile covers a whole sweep.
	pl, err := netdecomp.Compile("elkin-neiman",
		netdecomp.WithK(8), netdecomp.WithForceComplete())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled %s (plankey %016x)\n\n", pl.Name(), pl.PlanKey())

	// 2. A session serves compiled plans: bounded worker pool, in-flight
	// dedup, LRU result cache keyed on (fingerprint, plankey, seed).
	s := netdecomp.NewSession(netdecomp.WithSessionCacheSize(128))
	defer s.Close()

	cold, err := s.Run(ctx, pl.WithSeed(7), g)
	if err != nil {
		log.Fatal(err)
	}
	warm, err := s.Run(ctx, pl.WithSeed(7), g) // identical triple: cache hit
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cold: %v\n", cold)
	fmt.Printf("warm: %v (served from cache; results are fresh copies)\n", warm)
	fmt.Printf("stats: %+v\n\n", s.Stats())

	// 3. Concurrent identical requests are run once and shared
	// (singleflight): a thundering herd costs one decomposition. Submit
	// returns immediately, so all eight jobs are in flight before the
	// first Wait — seven attach to the one execution.
	herd := netdecomp.NewSession(netdecomp.WithSessionCacheSize(0)) // cache off: pure dedup
	jobs := make([]*netdecomp.SessionJob, 8)
	for i := range jobs {
		jobs[i] = herd.Submit(ctx, pl.WithSeed(99), g)
	}
	for _, j := range jobs {
		if _, err := j.Wait(); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("herd of 8 identical jobs: %+v\n\n", herd.Stats())
	herd.Close()

	// 4. Seed sweeps stream through SubmitAll: one plan, n derived seeds,
	// results arriving in completion order with their request index.
	reqs := make([]netdecomp.SessionRequest, 8)
	for i := range reqs {
		reqs[i] = netdecomp.SessionRequest{Plan: pl.WithSeed(uint64(i)), Graph: g}
	}
	colors := make([]int, len(reqs))
	for res := range s.SubmitAll(ctx, reqs) {
		if res.Err != nil {
			log.Fatal(res.Err)
		}
		colors[res.Index] = res.Partition.Colors
	}
	fmt.Printf("sweep colors by seed: %v\n", colors)
	fmt.Printf("stats: %+v\n\n", s.Stats())

	// 5. Derived structures share the session's cache: the spanner's
	// decomposition below is the seed-7 run already cached in step 2, and
	// repeated cover builds reuse their power-graph decomposition.
	sp, err := netdecomp.BuildSpannerFromPlan(ctx, g, s, pl.WithSeed(7))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("spanner from cached decomposition: %d edges (%d tree + %d bridges)\n",
		sp.Edges, sp.TreeEdges, sp.BridgeEdges)
	for i := 0; i < 2; i++ {
		cov, err := netdecomp.BuildCover(g, netdecomp.CoverOptions{W: 1, Seed: 7, Session: s})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("cover build %d: %d sets, degree %d\n", i+1, len(cov.Clusters), cov.Degree)
	}
	fmt.Printf("final stats: %+v\n", s.Stats())
}
