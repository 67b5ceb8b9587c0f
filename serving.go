package netdecomp

import (
	"io"
	"net/http"

	"netdecomp/internal/obs"
	"netdecomp/internal/resilience"
	"netdecomp/internal/serve"
	"netdecomp/internal/session"
)

// The serving daemon API: the HTTP/JSON front door over the session layer
// (package internal/serve, command netdecompd). Register graphs and
// compiled plans, decompose through the cache and singleflight, stream
// per-round statistics over SSE, and — with a store path — persist the
// completed-partition cache across restarts behind an integrity-hashed
// snapshot.
//
//	s := netdecomp.NewServer(netdecomp.ServerOptions{
//		StorePath: "netdecomp.snap",
//	})
//	defer s.Close()
//	http.ListenAndServe(":8080", s.Handler())
//
// See DESIGN.md §12 for the API surface and the persistence format.

// Server is the HTTP serving daemon: session + graph/plan registries +
// persistent result store.
type Server = serve.Server

// ServerOptions configures NewServer.
type ServerOptions = serve.Options

// NewServer builds a serving daemon: it starts the session, recovers the
// persistent store when configured (a corrupt snapshot boots cold, never
// fails), and wires the API routes. Close it to flush and shut down.
func NewServer(opts ServerOptions) *Server { return serve.New(opts) }

// MountDebug adds the shared observability routes — /metrics (Prometheus
// text), /debug/vars (expvar) and /debug/pprof/ — to mux, serving reg.
func MountDebug(mux *http.ServeMux, reg *obs.Registry) { serve.MountDebug(mux, reg) }

// SessionSnapshot is a portable image of a session's completed-partition
// cache plus an opaque metadata blob.
type SessionSnapshot = session.Snapshot

// SessionCacheEntry is one (key, partition) pair of a SessionSnapshot.
type SessionCacheEntry = session.CacheEntry

// ErrCorruptSnapshot is wrapped by snapshot reads that fail the integrity
// hash or structural checks; recovery treats it as "boot cold".
var ErrCorruptSnapshot = session.ErrCorruptSnapshot

// WriteSnapshot writes snap with the netdecomp snapshot framing: magic,
// SHA-256 integrity hash, gzip-compressed gob payload.
func WriteSnapshot(w io.Writer, snap SessionSnapshot) error {
	return session.WriteSnapshot(w, snap)
}

// ReadSnapshot reads and verifies a snapshot; corruption of any byte
// yields an error wrapping ErrCorruptSnapshot, never partial data.
func ReadSnapshot(r io.Reader) (SessionSnapshot, error) {
	return session.ReadSnapshot(r)
}

// The resilience layer: admission control, load shedding, per-request
// deadlines, bounded retry, graceful drain, and deterministic fault
// injection (package internal/resilience, wired through ServerOptions).
// The zero ResilienceOptions disables every limit, so embedding it is
// always safe. See DESIGN.md §14 for the full ladder and the HTTP status
// mapping (429 saturated/shed, 503 draining, 504 budget expired).

// ResilienceOptions bounds a server: per-class admission gates, the shed
// watermark past which cold-miss work is rejected while cache hits keep
// serving, and the per-request deadline policy.
type ResilienceOptions = resilience.Options

// GateConfig shapes one admission gate: concurrent slots, bounded FIFO
// wait queue, and the Retry-After hint returned on saturation.
type GateConfig = resilience.GateConfig

// DeadlinePolicy resolves per-request budgets: a client ask (JSON field
// or X-Deadline-Ms header), defaulted when absent, clamped by Max.
type DeadlinePolicy = resilience.DeadlinePolicy

// RetryBackoff bounds a retry loop: attempts, exponential base delay,
// and deterministic jitter. The snapshot-flush path rides it.
type RetryBackoff = resilience.Backoff

// ResilienceStats is a point-in-time snapshot of the admission governor,
// reported under "resilience" on /v1/stats.
type ResilienceStats = resilience.Stats

// ErrSaturated reports an admission gate whose slots and wait queue are
// both full; the serve layer maps it to HTTP 429 with Retry-After.
var ErrSaturated = resilience.ErrSaturated

// ErrDraining reports an admission attempt after drain began; the serve
// layer maps it to HTTP 503 with Retry-After.
var ErrDraining = resilience.ErrDraining

// FaultInjector delivers deterministic faults — latency spikes, errors,
// panics, snapshot-write failures, each by rate from one seeded PRNG —
// into the session runner and the snapshot writer. Wire one through
// ServerOptions.Injector to reproduce a chaos episode exactly;
// `netdecompd -chaos` drives a full prime/episode/recovery cycle on it.
type FaultInjector = resilience.Injector

// FaultInjectorConfig seeds a FaultInjector with per-fault rates.
type FaultInjectorConfig = resilience.InjectorConfig

// NewFaultInjector builds a deterministic fault injector; it starts
// enabled and can be toggled at runtime with SetEnabled.
func NewFaultInjector(cfg FaultInjectorConfig) *FaultInjector {
	return resilience.NewInjector(cfg)
}
