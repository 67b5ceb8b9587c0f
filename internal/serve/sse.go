package serve

// Server-sent events: the streaming half of the decompose API. A
// /v1/decompose/stream request rides the same session path as the
// synchronous endpoint, but attaches a per-job round observer through the
// session's fan-out, so the client watches the execution round-by-round:
//
//	event: round
//	data: {"round":3,"messages":128,"words":256,"active":811}
//
//	event: result
//	data: {...the DecomposeResponse document...}
//
// Cache hits emit no rounds (nothing executed) — just the result event.
// Deduplicated submissions see only the rounds emitted after they
// attached, exactly the session's observer contract.
//
// The observer fires on the execution goroutine inside the engine loop, so
// it must never block on a slow client: rounds pass through a bounded
// channel and are counted-and-dropped when the client cannot keep up
// (serve.sse.dropped_rounds). The result event is always delivered.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"netdecomp/internal/dist"
	"netdecomp/internal/graph"
	"netdecomp/internal/resilience"
)

// sseEventBuffer is the per-client event backlog shared by the decompose
// (one event per round) and pipeline (two events per stage) streams. A
// few thousand slots cover every workload in the repo; past that the
// client is too slow and events drop. A variable so overflow tests can
// shrink it.
var sseEventBuffer = 4096

// roundEvent is the SSE round payload (stable lower-case field order).
type roundEvent struct {
	Round    int   `json:"round"`
	Messages int64 `json:"messages"`
	Words    int64 `json:"words"`
	Active   int   `json:"active"`
}

// startSSE commits the SSE response: headers, 200, first flush. After
// this point errors travel as error events, not status codes.
func startSSE(w http.ResponseWriter, flusher http.Flusher) {
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
}

// handleDecomposeStream streams one decomposition over SSE. A warm hit
// answers with just the result event and holds no admission slot; cold
// work rides admission, shedding, and the request deadline like the
// synchronous endpoint. A client that disconnects mid-stream releases
// its slot (and its session waiter) immediately — the execution itself
// keeps running for the cache and any deduplicated co-waiters.
func (s *Server) handleDecomposeStream(w http.ResponseWriter, r *http.Request) {
	var req DecomposeRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxUploadBytes)).Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	g, pl, err := s.resolve(req)
	if err != nil {
		s.fail(w, http.StatusNotFound, "%v", err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.fail(w, http.StatusInternalServerError, "streaming unsupported by connection")
		return
	}
	start := time.Now()
	if f, hit := s.sess.PeekFrozen(pl, g); hit {
		s.cSSEClients.Inc()
		startSSE(w, flusher)
		writeSSEResult(w, &decomposeDoc{
			graph:     graph.Fingerprint(g),
			plan:      pl.PlanKey(),
			seed:      pl.Seed(),
			algorithm: pl.Name(),
			cacheHit:  true,
			latencyNs: time.Since(start).Nanoseconds(),
			partition: f,
		})
		flusher.Flush()
		return
	}
	if s.shedColdWork(w, resilience.ClassDecompose) {
		return
	}
	release, ok := s.admit(w, r, resilience.ClassDecompose)
	if !ok {
		return
	}
	defer release()
	s.cSSEClients.Inc()
	s.gSSEActive.Add(1)
	defer s.gSSEActive.Add(-1)
	startSSE(w, flusher)

	// The observer runs on the execution goroutine: non-blocking hand-off
	// into a bounded channel, drop-and-count on overflow. The channel is
	// never closed — a deduplicated execution may keep emitting after this
	// waiter resolved, and a send on a closed channel would panic into the
	// (panic-isolated, but still counted) observer quarantine.
	rounds := make(chan dist.RoundStats, sseEventBuffer)
	var dropped atomic.Int64
	observer := func(rs dist.RoundStats) {
		select {
		case rounds <- rs:
		default:
			dropped.Add(1)
			s.cSSEDropped.Inc()
		}
	}

	ctx, cancel := s.gov.Deadline().Context(r.Context(), requestDeadline(r, req.DeadlineMs))
	defer cancel()
	j := s.sess.SubmitObserved(ctx, pl, g, observer)
	done := j.Done()
	for {
		select {
		case rs := <-rounds:
			s.writeSSERound(w, flusher, rs)
			continue
		case <-done:
		case <-ctx.Done():
		}
		break
	}
	// Drain what the execution emitted before completion.
	for {
		select {
		case rs := <-rounds:
			s.writeSSERound(w, flusher, rs)
			continue
		default:
		}
		break
	}
	f, err := j.WaitFrozen()
	if err != nil {
		s.countExecErr(r, err)
		writeSSE(w, "error", errorResponse{Error: err.Error()})
		flusher.Flush()
		return
	}
	lat := time.Since(start)
	s.hDecompose.Observe(lat.Nanoseconds())
	writeSSEResult(w, &decomposeDoc{
		graph:         j.Key().Graph,
		plan:          j.Key().Plan,
		seed:          j.Key().Seed,
		algorithm:     pl.Name(),
		cacheHit:      j.CacheHit(),
		latencyNs:     lat.Nanoseconds(),
		droppedRounds: dropped.Load(),
		partition:     f,
	})
	flusher.Flush()
}

// writeSSERound emits one round event.
func (s *Server) writeSSERound(w http.ResponseWriter, flusher http.Flusher, rs dist.RoundStats) {
	writeSSE(w, "round", roundEvent{Round: rs.Round, Messages: rs.Messages, Words: rs.Words, Active: rs.Active})
	flusher.Flush()
}

// writeSSE frames one event: name line, single data line, blank separator.
func writeSSE(w http.ResponseWriter, event string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		data, _ = json.Marshal(errorResponse{Error: err.Error()})
		event = "error"
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
}
