package pipeline_test

import (
	"context"
	"testing"

	"netdecomp/internal/pipeline"
	"netdecomp/internal/session"
)

// BenchmarkPipelineWarmRerun measures a full pipeline re-run against a
// warm session: every decompose stage is a cache hit, so the cost is the
// derived stages (recolor, apps, spanner, cover assembly) plus the
// executor's scheduling — the interactive re-run path, a gated row of
// BENCH_gates.json.
func BenchmarkPipelineWarmRerun(b *testing.B) {
	g := testGraph(b, 1024, 1)
	p := fanoutPipeline(b, 7)
	sess := session.New()
	b.Cleanup(func() { sess.Close() })
	ctx := context.Background()
	if _, err := pipeline.Run(ctx, p, g, pipeline.WithSession(sess)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := pipeline.Run(ctx, p, g, pipeline.WithSession(sess))
		if err != nil {
			b.Fatal(err)
		}
		if res.CacheHits != 1 {
			b.Fatalf("warm re-run: CacheHits=%d, want 1", res.CacheHits)
		}
	}
}

// BenchmarkPipelineCold measures the same pipeline with no session —
// every stage recomputes — recorded (not gated) for the warm/cold ratio.
func BenchmarkPipelineCold(b *testing.B) {
	g := testGraph(b, 1024, 1)
	p := fanoutPipeline(b, 7)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.Run(ctx, p, g); err != nil {
			b.Fatal(err)
		}
	}
}
