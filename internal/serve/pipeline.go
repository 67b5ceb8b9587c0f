package serve

// The pipeline serving endpoints: POST /v1/pipeline executes a typed DAG
// of stages (internal/pipeline) against a registered graph in one request,
// and POST /v1/pipeline/stream streams per-stage start/done events over
// SSE while the DAG executes, ending with the same result document. Every
// decompose stage rides the server's session, so re-posting a pipeline
// after one upstream edit recomputes only the affected subgraph — the
// stage-level CacheHit flags and the session counters on /v1/stats show
// the flip.

import (
	"encoding/json"
	"net/http"
	"sync/atomic"
	"time"

	"netdecomp/internal/decomp"
	"netdecomp/internal/graph"
	"netdecomp/internal/pipeline"
	"netdecomp/internal/resilience"
)

// PipelineRequest is the POST /v1/pipeline body: a registered graph
// fingerprint plus an inline pipeline spec. Decompose stages carry their
// PlanSpec inline — the pipeline is self-contained, no prior /v1/plans
// registration needed.
type PipelineRequest struct {
	Graph    string        `json:"graph"`
	Pipeline pipeline.Spec `json:"pipeline"`
	// DeadlineMs requests a server-side execution budget in milliseconds
	// (clamped by the server maximum; 0 = server default). The executor
	// re-checks the budget at every level boundary, so an expired pipeline
	// stops between levels instead of burning workers on a doomed DAG.
	DeadlineMs int64 `json:"deadlineMs,omitempty"`
}

// StageResultInfo is the API view of one completed stage: identity,
// schedule position, cache/latency, and a kind-shaped summary. Decompose
// stages include their full partition (the same stable document
// /v1/decompose serves); derived stages report compact summaries.
type StageResultInfo struct {
	ID        string `json:"id"`
	Kind      string `json:"kind"`
	Level     int    `json:"level"`
	CacheHit  bool   `json:"cacheHit"`
	LatencyNs int64  `json:"latencyNs"`

	// Partition is the decomposition (decompose stages).
	Partition *decomp.Partition `json:"partition,omitempty"`
	// Clusters/Colors summarize a recolor stage's application input.
	Clusters int `json:"clusters,omitempty"`
	Colors   int `json:"colors,omitempty"`
	// Size summarizes MIS (set size) and matching (matched edges).
	Size int `json:"size,omitempty"`
	// NumColors summarizes a coloring stage.
	NumColors int `json:"numColors,omitempty"`
	// Rounds is the distributed round estimate of the app stages.
	Rounds int `json:"rounds,omitempty"`
	// Edges/Pieces/Fingerprint summarize a spanner stage's skeleton.
	Edges       int    `json:"edges,omitempty"`
	Pieces      int    `json:"pieces,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	// Sets/Degree/W summarize a cover stage.
	Sets   int `json:"sets,omitempty"`
	Degree int `json:"degree,omitempty"`
	W      int `json:"w,omitempty"`
}

// PipelineResponse is the executed pipeline's result document — the body
// of POST /v1/pipeline and the terminal SSE event of the stream variant.
type PipelineResponse struct {
	Graph string `json:"graph"`
	// Order is the deterministic execution order; Levels the parallel
	// schedule it flattens.
	Order  []string   `json:"order"`
	Levels [][]string `json:"levels"`
	// CacheHits counts stages served from the session cache; LatencyNs is
	// the whole run.
	CacheHits int   `json:"cacheHits"`
	LatencyNs int64 `json:"latencyNs"`
	// Stages holds the per-stage results in execution order.
	Stages []StageResultInfo `json:"stages"`
	// DroppedEvents is the number of stage events this stream dropped on a
	// slow client (stream variant only; the synchronous endpoint always
	// reports 0).
	DroppedEvents int64 `json:"droppedEvents,omitempty"`
}

// stageEvent is the SSE stage payload.
type stageEvent struct {
	Stage     string `json:"stage"`
	Kind      string `json:"kind"`
	Level     int    `json:"level"`
	Status    string `json:"status"`
	CacheHit  bool   `json:"cacheHit,omitempty"`
	LatencyNs int64  `json:"latencyNs,omitempty"`
	Error     string `json:"error,omitempty"`
}

// resolvePipeline decodes, validates and resolves a pipeline request.
func (s *Server) resolvePipeline(w http.ResponseWriter, r *http.Request) (graph.Interface, *pipeline.Pipeline, string, int64, bool) {
	var req PipelineRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxUploadBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, "decoding pipeline request: %v", err)
		return nil, nil, "", 0, false
	}
	fp, err := parseKey(req.Graph)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "graph: %v", err)
		return nil, nil, "", 0, false
	}
	s.mu.RLock()
	ge, ok := s.graphs[fp]
	s.mu.RUnlock()
	if !ok {
		s.fail(w, http.StatusNotFound, "graph %s not registered (POST /v1/graphs first)", keyString(fp))
		return nil, nil, "", 0, false
	}
	p, err := req.Pipeline.Build()
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return nil, nil, "", 0, false
	}
	return ge.g, p, keyString(fp), req.DeadlineMs, true
}

// pipelineResponse renders an executed pipeline.
func pipelineResponse(gk string, p *pipeline.Pipeline, res *pipeline.Result, lat time.Duration) PipelineResponse {
	resp := PipelineResponse{
		Graph:     gk,
		Order:     res.Order,
		Levels:    p.Levels(),
		CacheHits: res.CacheHits,
		LatencyNs: lat.Nanoseconds(),
	}
	for _, sr := range res.SortedStages() {
		info := StageResultInfo{
			ID:        sr.ID,
			Kind:      sr.Kind.String(),
			Level:     sr.Level,
			CacheHit:  sr.CacheHit,
			LatencyNs: sr.LatencyNs,
		}
		switch sr.Kind {
		case pipeline.KindPartition:
			info.Partition = sr.Partition
		case pipeline.KindAppInput:
			info.Clusters = len(sr.AppInput.Clusters)
			for _, c := range sr.AppInput.Colors {
				if c+1 > info.Colors {
					info.Colors = c + 1
				}
			}
		case pipeline.KindMIS:
			info.Size = sr.MIS.Size
			info.Rounds = sr.MIS.Rounds
		case pipeline.KindColoring:
			info.NumColors = sr.Coloring.NumColors
			info.Rounds = sr.Coloring.Rounds
		case pipeline.KindMatching:
			info.Size = sr.Matching.Size
			info.Rounds = sr.Matching.Rounds
		case pipeline.KindSpanner:
			info.Edges = sr.Spanner.Edges
			info.Pieces = sr.Spanner.Pieces
			info.Fingerprint = keyString(graph.Fingerprint(sr.Spanner.G))
		case pipeline.KindCover:
			info.Sets = len(sr.Cover.Clusters)
			info.Degree = sr.Cover.Degree
			info.Colors = sr.Cover.Colors
			info.W = sr.Cover.W
		}
		resp.Stages = append(resp.Stages, info)
	}
	return resp
}

// handlePipeline is the synchronous pipeline path: decode, validate,
// execute level-parallel through the session, respond with the full
// per-stage result document.
func (s *Server) handlePipeline(w http.ResponseWriter, r *http.Request) {
	g, p, gk, deadlineMs, ok := s.resolvePipeline(w, r)
	if !ok {
		return
	}
	if s.shedColdWork(w, resilience.ClassPipeline) {
		return
	}
	release, ok := s.admit(w, r, resilience.ClassPipeline)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := s.gov.Deadline().Context(r.Context(), requestDeadline(r, deadlineMs))
	defer cancel()
	start := time.Now()
	res, err := pipeline.Run(ctx, p, g,
		pipeline.WithSession(s.sess), pipeline.WithRecorder(s.rec))
	if err != nil {
		s.failExec(w, r, err, "pipeline")
		return
	}
	lat := time.Since(start)
	s.hPipeline.Observe(lat.Nanoseconds())
	s.writeJSON(w, http.StatusOK, pipelineResponse(gk, p, res, lat))
}

// handlePipelineStream executes a pipeline while streaming stage
// lifecycle events over SSE:
//
//	event: stage
//	data: {"stage":"dec","kind":"decompose","level":0,"status":"start"}
//
//	event: stage
//	data: {"stage":"dec",...,"status":"done","cacheHit":true,"latencyNs":52000}
//
//	event: result
//	data: {...the PipelineResponse document, droppedEvents included...}
//
// Like the decompose stream, the stage observer must never block the
// executor on a slow client: events pass through a bounded channel and
// are counted-and-dropped on overflow. The per-stream drop count rides
// the terminal result event (droppedEvents) and the aggregate lands in
// serve.sse.dropped_events on /v1/stats.
func (s *Server) handlePipelineStream(w http.ResponseWriter, r *http.Request) {
	g, p, gk, deadlineMs, ok := s.resolvePipeline(w, r)
	if !ok {
		return
	}
	flusher, fok := w.(http.Flusher)
	if !fok {
		s.fail(w, http.StatusInternalServerError, "streaming unsupported by connection")
		return
	}
	if s.shedColdWork(w, resilience.ClassPipeline) {
		return
	}
	release, aok := s.admit(w, r, resilience.ClassPipeline)
	if !aok {
		return
	}
	defer release()
	s.cSSEClients.Inc()
	s.gSSEActive.Add(1)
	defer s.gSSEActive.Add(-1)
	startSSE(w, flusher)

	// Bounded hand-off: the executor's serialized observer never blocks on
	// the client; overflow is counted per stream and in the aggregate.
	events := make(chan stageEvent, sseEventBuffer)
	var dropped atomic.Int64
	observer := func(ev pipeline.StageEvent) {
		se := stageEvent{
			Stage:     ev.Stage,
			Kind:      ev.Kind.String(),
			Level:     ev.Level,
			Status:    ev.Status.String(),
			CacheHit:  ev.CacheHit,
			LatencyNs: ev.LatencyNs,
		}
		if ev.Err != nil {
			se.Error = ev.Err.Error()
		}
		select {
		case events <- se:
		default:
			dropped.Add(1)
			s.cSSEDroppedEvents.Inc()
		}
	}

	start := time.Now()
	type outcome struct {
		res *pipeline.Result
		err error
	}
	ctx, cancel := s.gov.Deadline().Context(r.Context(), requestDeadline(r, deadlineMs))
	defer cancel()
	done := make(chan outcome, 1)
	go func() {
		res, err := pipeline.Run(ctx, p, g,
			pipeline.WithSession(s.sess), pipeline.WithRecorder(s.rec),
			pipeline.WithObserver(observer))
		done <- outcome{res, err}
	}()

	var out outcome
	for waiting := true; waiting; {
		select {
		case ev := <-events:
			writeSSE(w, "stage", ev)
			flusher.Flush()
		case out = <-done:
			waiting = false
		}
	}
	// Drain what the execution emitted before completing.
	for {
		select {
		case ev := <-events:
			writeSSE(w, "stage", ev)
			flusher.Flush()
			continue
		default:
		}
		break
	}
	if out.err != nil {
		s.countExecErr(r, out.err)
		writeSSE(w, "error", errorResponse{Error: out.err.Error()})
		flusher.Flush()
		return
	}
	lat := time.Since(start)
	s.hPipeline.Observe(lat.Nanoseconds())
	resp := pipelineResponse(gk, p, out.res, lat)
	resp.DroppedEvents = dropped.Load()
	writeSSE(w, "result", resp)
	flusher.Flush()
}
