package dyn

// The incremental maintenance engine: a Maintainer owns one (plan, graph)
// pair and keeps its Partition current across mutation batches, repairing
// through core.Repair when the plan runs on the sequential core path and
// recomputing in full otherwise. Every Update yields exactly the partition
// a from-scratch plan.Run on the mutated graph would — repair is a
// performance path, never a semantic one.

import (
	"context"
	"time"

	"netdecomp/internal/core"
	"netdecomp/internal/decomp"
	"netdecomp/internal/graph"
	"netdecomp/internal/obs"
)

// Config tunes a Maintainer. Repair falls back to a full recompute when a
// phase's certified region passes a quarter of the vertices; that cap is
// fixed in core.Repair.
type Config struct {
	// ForceRecompute disables the repair path entirely: every Update runs
	// the plan from scratch. The benchmark and churn-experiment baseline.
	ForceRecompute bool
	// Recorder receives the dyn.repair.* telemetry (nil = none).
	Recorder *obs.Recorder
}

// UpdateReport describes what one Update did.
type UpdateReport struct {
	// Repaired reports the incremental path ran to completion; FellBack
	// that it started and bailed (region cap, missing state), with
	// Reason naming why. Both false means the plan is not repairable (or
	// ForceRecompute is set) and a plain recompute ran.
	Repaired bool
	FellBack bool
	Reason   string
	// Damaged and Region total the per-phase damage sets and re-simulated
	// regions (repair path only).
	Damaged int
	Region  int
	// RepairedClusters counts result clusters that contain a re-simulated
	// vertex; TotalClusters is the cluster count of the result.
	RepairedClusters int
	TotalClusters    int
	// Duration is the wall-clock cost of the update.
	Duration time.Duration
}

// Maintainer keeps one plan's decomposition current under mutation.
// Not safe for concurrent use; callers serialize Updates (the serving
// layer's mutation path already does).
type Maintainer struct {
	pl         *decomp.Plan
	g          graph.Interface
	opts       core.Options
	repairable bool
	st         *core.RepairState
	part       *decomp.Partition
	cfg        Config

	hDamage    *obs.Histogram
	hRegion    *obs.Histogram
	hRepaired  *obs.Histogram
	hTotal     *obs.Histogram
	hRepairNs  *obs.Histogram
	hRecompNs  *obs.Histogram
	cRepairs   *obs.Counter
	cFallbacks *obs.Counter
	cRecomps   *obs.Counter
	cAbandon   map[core.FallbackCause]*obs.Counter
}

// NewMaintainer runs the initial decomposition of pl on g and returns the
// maintainer tracking it.
func NewMaintainer(ctx context.Context, pl *decomp.Plan, g graph.Interface, cfg Config) (*Maintainer, error) {
	rec := cfg.Recorder
	m := &Maintainer{
		pl:  pl,
		cfg: cfg,

		hDamage:    rec.Histogram("dyn.repair.damage"),
		hRegion:    rec.Histogram("dyn.repair.region"),
		hRepaired:  rec.Histogram("dyn.repair.clusters.repaired"),
		hTotal:     rec.Histogram("dyn.repair.clusters.total"),
		hRepairNs:  rec.Histogram("dyn.repair.ns"),
		hRecompNs:  rec.Histogram("dyn.repair.recompute.ns"),
		cRepairs:   rec.Counter("dyn.repair.repairs"),
		cFallbacks: rec.Counter("dyn.repair.fallbacks"),
		cRecomps:   rec.Counter("dyn.repair.recomputes"),
		cAbandon:   map[core.FallbackCause]*obs.Counter{},
	}
	for _, c := range core.FallbackCauses {
		m.cAbandon[c] = rec.Counter("dyn.repair.abandon." + string(c))
	}
	m.opts, m.repairable = pl.CoreOptions()
	if err := m.bootstrap(ctx, g); err != nil {
		return nil, err
	}
	return m, nil
}

// bootstrap establishes the partition (and repair state, when repairable)
// for a graph the maintainer has no prior state for.
func (m *Maintainer) bootstrap(ctx context.Context, g graph.Interface) error {
	if m.repairable && !m.cfg.ForceRecompute {
		dec, st, err := core.RunRepairable(g, m.opts)
		if err != nil {
			return err
		}
		m.st = st
		m.part = &dec.Partition
	} else {
		part, err := m.pl.Run(ctx, g)
		if err != nil {
			return err
		}
		m.part = part
	}
	m.g = g
	return nil
}

// Partition returns the current decomposition. The caller must not modify
// it; Clone first if needed.
func (m *Maintainer) Partition() *decomp.Partition { return m.part }

// Graph returns the graph version the current partition describes.
func (m *Maintainer) Graph() graph.Interface { return m.g }

// Plan returns the maintained plan.
func (m *Maintainer) Plan() *decomp.Plan { return m.pl }

// Repairable reports whether the plan rides the incremental repair path.
func (m *Maintainer) Repairable() bool { return m.repairable && !m.cfg.ForceRecompute }

// Update moves the maintainer to the mutated graph g, with effective the
// edge mutations separating it from the previous graph (ApplyResult.
// Effective — no-ops excluded). It returns the new partition, identical in
// content to a from-scratch run of the plan on g.
func (m *Maintainer) Update(ctx context.Context, g graph.Interface, effective []Mutation) (*decomp.Partition, UpdateReport, error) {
	start := time.Now()
	var rep UpdateReport
	if !m.repairable || m.cfg.ForceRecompute {
		m.cRecomps.Inc()
		part, err := m.pl.Run(ctx, g)
		if err != nil {
			return nil, rep, err
		}
		m.g, m.part = g, part
		rep.Reason = "plan not repairable"
		if m.cfg.ForceRecompute {
			rep.Reason = "recompute forced"
		}
		rep.TotalClusters = len(part.Clusters)
		rep.Duration = time.Since(start)
		m.hRecompNs.Observe(rep.Duration.Nanoseconds())
		return part, rep, nil
	}

	changes := make([]core.EdgeChange, len(effective))
	for i, mut := range effective {
		changes[i] = core.EdgeChange{U: mut.U, V: mut.V, Insert: mut.Op == OpInsert}
	}
	dec, st, stats, err := core.Repair(g, m.opts, m.st, changes)
	if err != nil {
		return nil, rep, err
	}
	m.g, m.st, m.part = g, st, &dec.Partition

	rep.Repaired = !stats.FellBack
	rep.FellBack = stats.FellBack
	rep.Reason = stats.FallbackReason
	rep.Damaged = stats.DamagedVertices
	rep.Region = stats.RegionVertices
	rep.RepairedClusters = stats.RepairedClusters
	rep.TotalClusters = stats.TotalClusters
	rep.Duration = time.Since(start)

	m.hDamage.Observe(int64(rep.Damaged))
	m.hRegion.Observe(int64(rep.Region))
	m.hRepaired.Observe(int64(rep.RepairedClusters))
	m.hTotal.Observe(int64(rep.TotalClusters))
	if stats.FellBack {
		m.cFallbacks.Inc()
		m.cAbandon[stats.FallbackCause].Inc()
		m.cRecomps.Inc()
		m.hRecompNs.Observe(rep.Duration.Nanoseconds())
	} else {
		m.cRepairs.Inc()
		m.hRepairNs.Observe(rep.Duration.Nanoseconds())
	}
	return m.part, rep, nil
}
