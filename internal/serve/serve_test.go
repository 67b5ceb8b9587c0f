package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"netdecomp/internal/decomp"
	"netdecomp/internal/gen"
	"netdecomp/internal/graph"
	"netdecomp/internal/graphio"
	"netdecomp/internal/randx"
)

// newTestServer boots a Server (no store unless path given) on httptest.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := s.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return s, ts
}

// postJSON round-trips one JSON request, failing the test on transport
// errors and decoding the response into out when non-nil.
func postJSON(t *testing.T, url string, body any, out any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp
}

// mustBuild builds a generator graph or fails the test.
func mustBuild(t *testing.T, family string, n int, seed uint64) *graph.Graph {
	t.Helper()
	fam, err := gen.ParseFamily(family)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.Build(fam, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// register registers the standard test workload: a generator graph and a
// forced-complete elkin-neiman plan.
func register(t *testing.T, base string) (graphKey, planKey string) {
	t.Helper()
	var gi GraphInfo
	if resp := postJSON(t, base+"/v1/graphs", GraphSpec{Family: "gnp", N: 256, Seed: 5}, &gi); resp.StatusCode != 200 {
		t.Fatalf("register graph: status %d", resp.StatusCode)
	}
	var pi PlanInfo
	if resp := postJSON(t, base+"/v1/plans", PlanSpec{Algorithm: "elkin-neiman", ForceComplete: true}, &pi); resp.StatusCode != 200 {
		t.Fatalf("register plan: status %d", resp.StatusCode)
	}
	return gi.Fingerprint, pi.Plan
}

func TestHealthAndAlgorithms(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	var h map[string]string
	getJSON(t, ts.URL+"/healthz", &h)
	if h["status"] != "ok" {
		t.Fatalf("healthz: %v", h)
	}
	var algos struct {
		Algorithms []string `json:"algorithms"`
		Families   []string `json:"families"`
	}
	getJSON(t, ts.URL+"/v1/algorithms", &algos)
	if len(algos.Algorithms) == 0 || len(algos.Families) == 0 {
		t.Fatalf("empty discovery document: %+v", algos)
	}
}

func TestRegisterGraphBySpecAndUpload(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})

	// Spec registration is idempotent and keyed by fingerprint.
	var gi1, gi2 GraphInfo
	postJSON(t, ts.URL+"/v1/graphs", GraphSpec{Family: "grid", N: 64, Seed: 1}, &gi1)
	postJSON(t, ts.URL+"/v1/graphs", GraphSpec{Family: "grid", N: 64, Seed: 1}, &gi2)
	if gi1.Fingerprint != gi2.Fingerprint {
		t.Fatalf("re-registration changed fingerprint: %s vs %s", gi1.Fingerprint, gi2.Fingerprint)
	}
	want := mustBuild(t, "grid", 64, 1)
	if gi1.Fingerprint != fmt.Sprintf("%016x", want.Fingerprint()) {
		t.Fatalf("fingerprint mismatch: %s", gi1.Fingerprint)
	}

	// Upload registration: write an edge list, post it as a plain body.
	g := gen.Gnp(randx.New(2), 64, 0.1)
	var buf bytes.Buffer
	if err := graphio.Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/graphs", "text/plain", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var up GraphInfo
	if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if up.Source != "upload" || up.Fingerprint != fmt.Sprintf("%016x", g.Fingerprint()) {
		t.Fatalf("upload registered wrong: %+v", up)
	}
	if up.N != g.N() || up.M != graph.EdgeCount(g) {
		t.Fatalf("upload size wrong: %+v", up)
	}

	// Malformed upload is a 400, not a panic.
	resp, err = http.Post(ts.URL+"/v1/graphs", "text/plain", strings.NewReader("3 1\n0 99\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed upload: status %d", resp.StatusCode)
	}

	// Listing returns both graphs in deterministic order.
	var list []GraphInfo
	getJSON(t, ts.URL+"/v1/graphs", &list)
	if len(list) != 2 {
		t.Fatalf("want 2 graphs listed, got %d", len(list))
	}
	if list[0].Fingerprint > list[1].Fingerprint {
		t.Fatalf("listing not sorted")
	}
}

func TestRegisterPlanValidatesAndIsIdempotent(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	var pi1, pi2 PlanInfo
	postJSON(t, ts.URL+"/v1/plans", PlanSpec{Algorithm: "mpx", Beta: 0.4}, &pi1)
	postJSON(t, ts.URL+"/v1/plans", PlanSpec{Algorithm: "mpx", Beta: 0.4}, &pi2)
	if pi1.Plan != pi2.Plan {
		t.Fatalf("equivalent specs got different plan keys: %s vs %s", pi1.Plan, pi2.Plan)
	}
	// The key is the content digest decomp computes.
	pl, err := PlanSpec{Algorithm: "mpx", Beta: 0.4}.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if pi1.Plan != fmt.Sprintf("%016x", pl.PlanKey()) {
		t.Fatalf("plan key mismatch: %s", pi1.Plan)
	}
	// Unknown algorithm and invalid config are 400s.
	if resp := postJSON(t, ts.URL+"/v1/plans", PlanSpec{Algorithm: "nope"}, nil); resp.StatusCode != 400 {
		t.Fatalf("unknown algorithm: status %d", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/v1/plans", PlanSpec{Algorithm: "mpx", K: -1}, nil); resp.StatusCode != 400 {
		t.Fatalf("invalid config: status %d", resp.StatusCode)
	}
}

func TestDecomposeColdWarmAndEquivalence(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	gk, pk := register(t, ts.URL)

	var cold DecomposeResponse
	postJSON(t, ts.URL+"/v1/decompose", DecomposeRequest{Graph: gk, Plan: pk}, &cold)
	if cold.CacheHit {
		t.Fatal("first request must be a miss")
	}
	if cold.Partition == nil || !cold.Partition.Complete {
		t.Fatalf("bad partition: %+v", cold.Partition)
	}
	var warm DecomposeResponse
	postJSON(t, ts.URL+"/v1/decompose", DecomposeRequest{Graph: gk, Plan: pk}, &warm)
	if !warm.CacheHit {
		t.Fatal("second request must be a hit")
	}

	// The served partition is bit-identical to a direct library run: the
	// stable JSON documents compare equal.
	g := mustBuild(t, "gnp", 256, 5)
	pl, err := decomp.Compile("elkin-neiman", decomp.WithForceComplete())
	if err != nil {
		t.Fatal(err)
	}
	direct, err := pl.Run(t.Context(), g)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(direct)
	coldJSON, _ := json.Marshal(cold.Partition)
	warmJSON, _ := json.Marshal(warm.Partition)
	if !bytes.Equal(wantJSON, coldJSON) || !bytes.Equal(wantJSON, warmJSON) {
		t.Fatal("served partitions differ from direct execution")
	}

	// Seed override routes to a different cache slot.
	seed := uint64(9)
	var other DecomposeResponse
	postJSON(t, ts.URL+"/v1/decompose", DecomposeRequest{Graph: gk, Plan: pk, Seed: &seed}, &other)
	if other.CacheHit || other.Seed != 9 {
		t.Fatalf("seed override: %+v", other)
	}

	// Unregistered keys are 404s.
	if resp := postJSON(t, ts.URL+"/v1/decompose", DecomposeRequest{Graph: "00000000000000ff", Plan: pk}, nil); resp.StatusCode != 404 {
		t.Fatalf("unknown graph: status %d", resp.StatusCode)
	}

	// Stats reflect the traffic (2 misses, 1 hit) and /metrics exposes it.
	var st StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Session.Hits != 1 || st.Session.Misses != 2 || st.Graphs != 1 || st.Plans != 1 {
		t.Fatalf("stats: %+v", st)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var prom bytes.Buffer
	prom.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"session_hits 1", "session_misses 2", "serve_requests"} {
		if !strings.Contains(prom.String(), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, prom.String())
		}
	}
}

func TestDecomposeStreamSSE(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	gk := registerGraph(t, ts.URL, GraphSpec{Family: "gnp", N: 256, Seed: 5})
	var pi PlanInfo
	postJSON(t, ts.URL+"/v1/plans", PlanSpec{Algorithm: "elkin-neiman/dist", ForceComplete: true}, &pi)

	body, _ := json.Marshal(DecomposeRequest{Graph: gk, Plan: pi.Plan})
	resp, err := http.Post(ts.URL+"/v1/decompose/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	rounds, result := readSSE(t, resp.Body)
	if len(rounds) == 0 {
		t.Fatal("cold engine-backed stream emitted no round events")
	}
	if result == nil || result.CacheHit || result.Partition == nil {
		t.Fatalf("bad result event: %+v", result)
	}
	// Round indices ascend and the count matches the partition's metrics.
	for i := 1; i < len(rounds); i++ {
		if rounds[i].Round <= rounds[i-1].Round {
			t.Fatalf("rounds out of order at %d", i)
		}
	}
	if len(rounds) != result.Partition.Metrics.Rounds {
		t.Fatalf("streamed %d rounds, metrics say %d", len(rounds), result.Partition.Metrics.Rounds)
	}

	// Warm request: no rounds, just the result marked as a hit.
	resp2, err := http.Post(ts.URL+"/v1/decompose/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	rounds2, result2 := readSSE(t, resp2.Body)
	if len(rounds2) != 0 || result2 == nil || !result2.CacheHit {
		t.Fatalf("warm stream: %d rounds, result %+v", len(rounds2), result2)
	}
}

// registerGraph registers one spec and returns its fingerprint key.
func registerGraph(t *testing.T, base string, spec GraphSpec) string {
	t.Helper()
	var gi GraphInfo
	if resp := postJSON(t, base+"/v1/graphs", spec, &gi); resp.StatusCode != 200 {
		t.Fatalf("register graph: status %d", resp.StatusCode)
	}
	return gi.Fingerprint
}

// readSSE parses an SSE stream into round events and the final result.
func readSSE(t *testing.T, r interface{ Read([]byte) (int, error) }) ([]roundEvent, *DecomposeResponse) {
	t.Helper()
	var (
		rounds []roundEvent
		result *DecomposeResponse
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
			case "round":
				var re roundEvent
				if err := json.Unmarshal([]byte(data), &re); err != nil {
					t.Fatalf("bad round event %q: %v", data, err)
				}
				rounds = append(rounds, re)
			case "result":
				result = &DecomposeResponse{}
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
	return rounds, result
}

// TestServerSharedSessionDedup: the server serves concurrent identical
// requests through one execution (the session's singleflight), visible in
// the dedup counter.
func TestServerSharedSessionDedup(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 1})
	gk, pk := register(t, ts.URL)
	// No t.Fatal inside the goroutines (it would leave done starved and
	// hang the receive loop): errors travel through the channel.
	type outcome struct {
		dr  DecomposeResponse
		err error
	}
	done := make(chan outcome, 8)
	body, _ := json.Marshal(DecomposeRequest{Graph: gk, Plan: pk})
	for i := 0; i < 8; i++ {
		go func() {
			var o outcome
			resp, err := http.Post(ts.URL+"/v1/decompose", "application/json", bytes.NewReader(body))
			if err != nil {
				o.err = err
			} else {
				o.err = json.NewDecoder(resp.Body).Decode(&o.dr)
				resp.Body.Close()
			}
			done <- o
		}()
	}
	var first []byte
	for i := 0; i < 8; i++ {
		o := <-done
		if o.err != nil {
			t.Fatal(o.err)
		}
		b, _ := json.Marshal(o.dr.Partition)
		if first == nil {
			first = b
		} else if !bytes.Equal(first, b) {
			t.Fatal("concurrent identical requests served different partitions")
		}
	}
	st := srv.Session().Stats()
	if st.Misses != 1 {
		t.Fatalf("want exactly one execution, got misses=%d (hits=%d dedups=%d)", st.Misses, st.Hits, st.Dedups)
	}
}
