package dist

import (
	"context"
	"fmt"
	"testing"
)

// benchGossip is the gossip ring sized for engine micro-benchmarks. The
// per-Step work is tiny, so these benches measure pure engine overhead:
// mailbox routing, accounting, and (for the parallel variants) the
// per-round barrier.
func benchGossip(b *testing.B, n, rounds int, o Options) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := newGossip(n, rounds)
		g.log = nil // receipt logging is test instrumentation, not engine cost
		if _, err := Run[words](context.Background(), g, o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineSequential(b *testing.B) {
	for _, n := range []int{256, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchGossip(b, n, 32, Options{})
		})
	}
}

func BenchmarkEngineParallel(b *testing.B) {
	for _, n := range []int{256, 4096} {
		for _, workers := range []int{2, 4, 8} {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(b *testing.B) {
				benchGossip(b, n, 32, Options{Parallel: true, Workers: workers})
			})
		}
	}
}
