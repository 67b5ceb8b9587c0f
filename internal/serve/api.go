package serve

// The JSON API surface of netdecompd. Every identifier a client handles is
// a 16-hex-digit string: graph fingerprints (graph.Fingerprint), plan keys
// (decomp.Plan.PlanKey). The request/response DTOs here are the wire
// contract documented in DESIGN.md §12; decomp.Partition and session.Stats
// marshal through their stable hand-rolled encoders, so responses are
// byte-diffable. Decompose responses are written by respond.go straight
// from the session's frozen entries, byte-identical to encoding/json's
// rendering of DecomposeResponse.

import (
	"fmt"
	"sort"
	"strconv"

	"netdecomp/internal/decomp"
	"netdecomp/internal/gen"
	"netdecomp/internal/graph"
	"netdecomp/internal/resilience"
	"netdecomp/internal/session"
)

// familyNames lists the generator families a GraphSpec may name.
func familyNames() []string { return gen.FamilyNames() }

// sortByString orders a slice by a string key — listing endpoints return
// deterministic order so responses are diffable.
func sortByString[T any](xs []T, key func(T) string) {
	sort.Slice(xs, func(i, j int) bool { return key(xs[i]) < key(xs[j]) })
}

// keyString renders a 64-bit identifier the way the API exposes it: 16
// lower-case hex digits.
func keyString(k uint64) string { return string(appendKey(nil, k)) }

// appendKey appends the keyString form of k without allocating.
func appendKey(b []byte, k uint64) []byte {
	const hex = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, hex[k>>uint(shift)&0xF])
	}
	return b
}

// parseKey parses a 16-hex-digit identifier (leading zeroes optional).
func parseKey(s string) (uint64, error) {
	k, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("bad key %q: want 64-bit hex", s)
	}
	return k, nil
}

// GraphSpec is a generator-backed graph registration: a gen family plus
// its size and seed. Specs are tiny, deterministic, and persisted verbatim
// in the snapshot, so generator graphs re-register themselves on boot.
type GraphSpec struct {
	Family string `json:"family"`
	N      int    `json:"n"`
	Seed   uint64 `json:"seed"`
}

// Build constructs the spec's graph.
func (sp GraphSpec) Build() (*graph.Graph, error) {
	fam, err := gen.ParseFamily(sp.Family)
	if err != nil {
		return nil, err
	}
	if sp.N < 1 || sp.N > graph.MaxVertices {
		return nil, fmt.Errorf("graph spec: n must be in [1, %d], got %d", graph.MaxVertices, sp.N)
	}
	return gen.Build(fam, sp.N, sp.Seed)
}

// String renders the spec as the graph's human-readable source label.
func (sp GraphSpec) String() string {
	return fmt.Sprintf("%s(n=%d,seed=%d)", sp.Family, sp.N, sp.Seed)
}

// GraphInfo is the API view of one registered graph.
type GraphInfo struct {
	// Fingerprint is the graph's content digest — the identifier decompose
	// requests address it by.
	Fingerprint string `json:"fingerprint"`
	// N and M are the vertex and edge counts.
	N int `json:"n"`
	M int `json:"m"`
	// Source describes where the graph came from: a generator spec label
	// ("gnp(n=1024,seed=1)") or "upload".
	Source string `json:"source"`
	// Spec is the generator spec when the graph was registered by one.
	// Mutated versions drop it — a spec no longer describes their content.
	Spec *GraphSpec `json:"spec,omitempty"`
	// Version counts the mutation batches between the originally registered
	// graph and this content (0 = as registered); Parent is the fingerprint
	// this version was mutated from.
	Version uint64 `json:"version,omitempty"`
	Parent  string `json:"parent,omitempty"`
}

// MutateResponse is the POST /v1/graphs/{fp}/mutate result: the batch's
// effect and the new versioned key the graph now serves under.
type MutateResponse struct {
	// Previous is the fingerprint the batch addressed (now retired unless
	// the batch was a content no-op); Fingerprint is the mutated content's
	// key — the one subsequent decompose requests must use.
	Previous    string `json:"previous"`
	Fingerprint string `json:"fingerprint"`
	// Version is the new entry's mutation-batch count since registration.
	Version uint64 `json:"version"`
	// N and M are the mutated graph's vertex and edge counts.
	N int `json:"n"`
	M int `json:"m"`
	// Inserted/Deleted/Noops split the batch: effective insertions,
	// effective deletions, and mutations the edge set already satisfied.
	Inserted int `json:"inserted"`
	Deleted  int `json:"deleted"`
	Noops    int `json:"noops"`
	// DeltaSize is the overlay's effective-mutation count over its base CSR
	// (0 when Compacted — the history was just folded in).
	DeltaSize int `json:"deltaSize,omitempty"`
	// Compacted reports the overlay was re-materialized into a flat CSR.
	Compacted bool `json:"compacted,omitempty"`
	// InvalidatedEntries counts session-cache results dropped with the
	// retired fingerprint.
	InvalidatedEntries int `json:"invalidatedEntries"`
}

// PlanSpec is the JSON form of a decomposition configuration — the
// compile-time half of a decompose request, owned by internal/decomp so
// the pipeline spec codec shares the same wire form. Zero-valued fields
// select each algorithm's documented default, exactly like the CLI flags;
// Compile resolves the spec into an immutable decomp.Plan.
type PlanSpec = decomp.PlanSpec

// PlanInfo is the API view of one compiled plan.
type PlanInfo struct {
	// Plan is the PlanKey digest — the identifier decompose requests
	// address the configuration by.
	Plan string `json:"plan"`
	// Algorithm is the registry name the plan executes.
	Algorithm string `json:"algorithm"`
	// Seed is the plan's default seed (a decompose request may override).
	Seed uint64 `json:"seed"`
	// Spec echoes the registered configuration.
	Spec PlanSpec `json:"spec"`
}

// DecomposeRequest addresses one decomposition: a registered graph, a
// compiled plan, and an optional seed overriding the plan's default (the
// third cache-key dimension — sweeps reuse one plan across seeds).
type DecomposeRequest struct {
	Graph string  `json:"graph"`
	Plan  string  `json:"plan"`
	Seed  *uint64 `json:"seed,omitempty"`
	// DeadlineMs requests a server-side execution budget in milliseconds
	// (clamped by the server maximum; 0 = server default). The
	// X-Deadline-Ms header is the equivalent for header-only clients.
	DeadlineMs int64 `json:"deadlineMs,omitempty"`
}

// DecomposeResponse is the served result.
type DecomposeResponse struct {
	// Graph, Plan, Seed echo the fully resolved cache key triple.
	Graph string `json:"graph"`
	Plan  string `json:"plan"`
	Seed  uint64 `json:"seed"`
	// Algorithm is the executing algorithm's registry name.
	Algorithm string `json:"algorithm"`
	// CacheHit reports the request was served from the completed-result
	// cache without any execution.
	CacheHit bool `json:"cacheHit"`
	// LatencyNs is the request's server-side service time.
	LatencyNs int64 `json:"latencyNs"`
	// DroppedRounds is the number of round events this stream dropped on a
	// slow client (streaming endpoint only; always 0 synchronously).
	DroppedRounds int64 `json:"droppedRounds,omitempty"`
	// Partition is the decomposition (stable field order; see
	// internal/decomp/json.go).
	Partition *decomp.Partition `json:"partition"`
}

// StatsResponse is the /v1/stats document.
type StatsResponse struct {
	// Session is the cache/dedup counter snapshot (stable field order).
	Session session.Stats `json:"session"`
	// Graphs and Plans count the registered entries.
	Graphs int `json:"graphs"`
	Plans  int `json:"plans"`
	// SSE reports the streaming subsystem's lifetime counters.
	SSE SSEInfo `json:"sse"`
	// Store describes the persistent result store (nil when disabled).
	Store *StoreInfo `json:"store,omitempty"`
	// Resilience reports admission, shedding, deadline, and fault-injection
	// state.
	Resilience *ResilienceInfo `json:"resilience,omitempty"`
	// Mutations reports the graph-mutation subsystem (nil until the first
	// batch).
	Mutations *MutationInfo `json:"mutations,omitempty"`
}

// MutationInfo is the /v1/stats mutation block.
type MutationInfo struct {
	// Batches counts accepted mutation batches; Applied the effective edge
	// changes; Noops the already-satisfied mutations; Compactions the
	// overlay re-materializations; Invalidated the session-cache entries
	// dropped with retired fingerprints.
	Batches     int64 `json:"batches"`
	Applied     int64 `json:"applied"`
	Noops       int64 `json:"noops"`
	Compactions int64 `json:"compactions"`
	Invalidated int64 `json:"invalidated"`
	// LastPrevious/LastFingerprint echo the most recent key swap.
	LastPrevious    string `json:"lastPrevious,omitempty"`
	LastFingerprint string `json:"lastFingerprint,omitempty"`
}

// ResilienceInfo is the /v1/stats resilience block: the governor's
// admission snapshot (including the degraded flag) plus the serve-layer
// outcome counters, and — when chaos is configured — the injector's
// delivered-fault tallies.
type ResilienceInfo struct {
	Governor resilience.Stats `json:"governor"`
	// Shed counts cold-miss requests rejected while degraded; Timeouts and
	// ClientCancels split the two ways a bounded request dies (504 vs 499);
	// HandlerPanics counts requests answered 500 by the recovery middleware.
	Shed          int64 `json:"shed"`
	Timeouts      int64 `json:"timeouts"`
	ClientCancels int64 `json:"clientCancels"`
	HandlerPanics int64 `json:"handlerPanics"`
	// Injector reports delivered faults when chaos is configured.
	Injector        *resilience.InjectorStats `json:"injector,omitempty"`
	InjectorEnabled bool                      `json:"injectorEnabled,omitempty"`
}

// SSEInfo reports the server-sent-events subsystem: total streams served
// and events dropped on slow clients (rounds on decompose streams, stage
// events on pipeline streams). Per-stream drop counts additionally ride
// each stream's terminal result event.
type SSEInfo struct {
	Clients       int64 `json:"clients"`
	DroppedRounds int64 `json:"droppedRounds"`
	DroppedEvents int64 `json:"droppedEvents"`
}

// StoreInfo reports the persistence state.
type StoreInfo struct {
	// Path is the snapshot file.
	Path string `json:"path"`
	// Restored is the number of cache entries recovered at boot.
	Restored int `json:"restored"`
	// Flushes counts completed snapshot writes; LastFlushEntries is the
	// entry count of the most recent one.
	Flushes          int64  `json:"flushes"`
	LastFlushEntries int    `json:"lastFlushEntries"`
	RecoveryError    string `json:"recoveryError,omitempty"`
}

// errorResponse is the uniform error document.
type errorResponse struct {
	Error string `json:"error"`
}

// rebuildUpload reconstructs an uploaded graph from its persisted flat
// edge list (u,v pairs).
func rebuildUpload(n int, edges []int32) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i+1 < len(edges); i += 2 {
		b.AddEdge(int(edges[i]), int(edges[i+1]))
	}
	return b.Build()
}

// flattenEdges extracts a graph's edges as the flat pair list
// rebuildUpload consumes.
func flattenEdges(g graph.Interface) []int32 {
	out := make([]int32, 0, 2*graph.EdgeCount(g))
	for u, v := range graph.EdgeSeq(g) {
		out = append(out, int32(u), int32(v))
	}
	return out
}
