package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// testPipelineSpec is the canonical two-level wire pipeline the endpoint
// tests execute: decompose → recolor → mis plus decompose → spanner.
const testPipelineSpec = `{
  "stages": [
    {"id": "dec", "decompose": {"algorithm": "elkin-neiman", "seed": 9, "forceComplete": true}},
    {"id": "re", "recolor": {}},
    {"id": "mis", "mis": {}},
    {"id": "sp", "spanner": {}}
  ],
  "edges": [
    {"from": "dec", "to": "re"},
    {"from": "re", "to": "mis"},
    {"from": "dec", "to": "sp"}
  ]
}`

// pipelineBody builds a /v1/pipeline request body around the canonical
// spec.
func pipelineBody(t *testing.T, gk string) []byte {
	t.Helper()
	var req PipelineRequest
	if err := json.Unmarshal([]byte(`{"pipeline": `+testPipelineSpec+`}`), &req); err != nil {
		t.Fatal(err)
	}
	req.Graph = gk
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestPipelineEndpoint is the synchronous wire contract: a posted DAG
// executes with the documented order/levels, the re-post serves its
// decompose stage from the session cache, and /v1/stats shows the hits.
func TestPipelineEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	gk := registerGraph(t, ts.URL, GraphSpec{Family: "gnp", N: 256, Seed: 5})
	body := pipelineBody(t, gk)

	post := func() PipelineResponse {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/pipeline", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var pr PipelineResponse
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
		return pr
	}

	cold := post()
	if cold.Graph != gk {
		t.Errorf("graph echo %q, want %q", cold.Graph, gk)
	}
	wantOrder := []string{"dec", "re", "sp", "mis"}
	if len(cold.Order) != 4 || cold.Order[0] != "dec" || cold.Order[3] != "mis" {
		t.Errorf("order %v, want %v", cold.Order, wantOrder)
	}
	if len(cold.Levels) != 3 {
		t.Errorf("levels %v, want 3 levels", cold.Levels)
	}
	if cold.CacheHits != 0 {
		t.Errorf("cold run: cacheHits %d, want 0", cold.CacheHits)
	}
	stages := map[string]StageResultInfo{}
	for _, si := range cold.Stages {
		stages[si.ID] = si
	}
	if dec := stages["dec"]; dec.Partition == nil || dec.Kind != "decompose" {
		t.Errorf("dec stage missing partition: %+v", dec)
	}
	if mis := stages["mis"]; mis.Size <= 0 {
		t.Errorf("mis stage has no size: %+v", mis)
	}
	if sp := stages["sp"]; sp.Edges <= 0 || sp.Fingerprint == "" {
		t.Errorf("sp stage missing skeleton summary: %+v", sp)
	}

	warm := post()
	if warm.CacheHits != 1 {
		t.Errorf("warm re-post: cacheHits %d, want 1 (the decompose stage)", warm.CacheHits)
	}
	for _, si := range warm.Stages {
		if wantHit := si.ID == "dec"; si.CacheHit != wantHit {
			t.Errorf("warm stage %s: cacheHit %v, want %v", si.ID, si.CacheHit, wantHit)
		}
	}
	if p1, p2 := stages["dec"].Partition, warm.Stages[0].Partition; p1 != nil && p2 != nil {
		d1, _ := json.Marshal(p1)
		d2, _ := json.Marshal(p2)
		if !bytes.Equal(d1, d2) {
			t.Error("warm partition differs from cold partition")
		}
	}

	var st StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Session.Hits == 0 {
		t.Errorf("stats after warm pipeline: session hits %d, want > 0", st.Session.Hits)
	}
}

// TestPipelineEndpointErrors pins the failure modes: bad JSON, an unknown
// field, unknown graph, invalid DAGs — all JSON error documents, correct
// status codes.
func TestPipelineEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	gk := registerGraph(t, ts.URL, GraphSpec{Family: "gnp", N: 64, Seed: 1})
	cases := []struct {
		name string
		body string
		code int
		want string
	}{
		{"bad json", `{`, 400, "decoding"},
		{"bad graph key", `{"graph": "zzz", "pipeline": {"stages": []}}`, 400, "bad key"},
		{"unknown graph", `{"graph": "00000000000000ff", "pipeline": {"stages": [{"id": "a", "spanner": {}}]}}`, 404, "not registered"},
		{"no stages", `{"graph": "` + gk + `", "pipeline": {"stages": []}}`, 400, "no stages"},
		{"no kind", `{"graph": "` + gk + `", "pipeline": {"stages": [{"id": "a"}]}}`, 400, "no kind set"},
		{"unknown field", `{"graph": "` + gk + `", "pipeline": {"stages": [
			{"id": "a", "decompose": {"algorithm": "elkin-neiman", "parallel": true}}]}}`, 400, `unknown field "parallel"`},
		{"typed edge", `{"graph": "` + gk + `", "pipeline": {"stages": [
			{"id": "a", "decompose": {"algorithm": "elkin-neiman"}},
			{"id": "b", "mis": {}}], "edges": [{"from": "a", "to": "b"}]}}`, 400, "cannot consume"},
		{"cycle", `{"graph": "` + gk + `", "pipeline": {"stages": [
			{"id": "a", "decompose": {"algorithm": "elkin-neiman", "forceComplete": true}},
			{"id": "s", "spanner": {}},
			{"id": "b", "decompose": {"algorithm": "elkin-neiman"}},
			{"id": "s2", "spanner": {}}],
			"edges": [{"from": "a", "to": "s"}, {"from": "s", "to": "b"},
			          {"from": "b", "to": "s2"}, {"from": "s2", "to": "b"}]}}`, 400, "cycle"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/pipeline", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.code {
				t.Errorf("status %d, want %d", resp.StatusCode, tc.code)
			}
			var er errorResponse
			if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
				t.Fatalf("non-JSON error body: %v", err)
			}
			if !strings.Contains(er.Error, tc.want) {
				t.Errorf("error %q does not mention %q", er.Error, tc.want)
			}
		})
	}
}

// readPipelineSSE parses a pipeline SSE stream.
func readPipelineSSE(t *testing.T, r interface{ Read([]byte) (int, error) }) ([]stageEvent, *PipelineResponse) {
	t.Helper()
	var (
		events []stageEvent
		result *PipelineResponse
		event  string
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "stage":
				var se stageEvent
				if err := json.Unmarshal([]byte(data), &se); err != nil {
					t.Fatalf("bad stage event %q: %v", data, err)
				}
				events = append(events, se)
			case "result":
				result = &PipelineResponse{}
				if err := json.Unmarshal([]byte(data), result); err != nil {
					t.Fatalf("bad result event: %v", err)
				}
			case "error":
				var er errorResponse
				_ = json.Unmarshal([]byte(data), &er)
				t.Fatalf("error event: %s", er.Error)
			}
		}
	}
	return events, result
}

// TestPipelineStreamSSE is the streaming contract plus the satellite drop
// accounting: delivered stage events + the terminal droppedEvents counter
// conserve the total (2 per stage), and the aggregate lands on /v1/stats.
// The buffer is shrunk to zero slots so the conservation law is exercised
// under real drops whenever the client loop falls behind.
func TestPipelineStreamSSE(t *testing.T) {
	old := sseEventBuffer
	sseEventBuffer = 0
	defer func() { sseEventBuffer = old }()

	_, ts := newTestServer(t, Options{Workers: 2})
	gk := registerGraph(t, ts.URL, GraphSpec{Family: "gnp", N: 256, Seed: 5})
	body := pipelineBody(t, gk)

	resp, err := http.Post(ts.URL+"/v1/pipeline/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	events, result := readPipelineSSE(t, resp.Body)
	if result == nil {
		t.Fatal("stream ended without a result event")
	}
	if got, want := int64(len(events))+result.DroppedEvents, int64(2*4); got != want {
		t.Errorf("delivered %d + dropped %d = %d events, want %d (2 per stage)",
			len(events), result.DroppedEvents, got, want)
	}
	for _, ev := range events {
		if ev.Status != "start" && ev.Status != "done" {
			t.Errorf("unexpected stage status %q", ev.Status)
		}
		if ev.Error != "" {
			t.Errorf("stage %s reported error %q", ev.Stage, ev.Error)
		}
	}
	if len(result.Stages) != 4 || result.Stages[0].ID != "dec" {
		t.Errorf("result stages %+v, want 4 starting with dec", result.Stages)
	}

	// The aggregate counter on /v1/stats equals this stream's drops (the
	// only stream so far), and the clients counter moved.
	var st StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.SSE.DroppedEvents != result.DroppedEvents {
		t.Errorf("stats droppedEvents %d != stream's %d", st.SSE.DroppedEvents, result.DroppedEvents)
	}
	if st.SSE.Clients != 1 {
		t.Errorf("stats sse clients %d, want 1", st.SSE.Clients)
	}
}
