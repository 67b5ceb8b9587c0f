package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"netdecomp/internal/decomp"
	"netdecomp/internal/graph"
)

// oddNames are algorithm names that strconv.AppendQuote renders as Go
// syntax or leaves raw: a control byte, HTML metacharacters, U+2028 and a
// lone invalid UTF-8 byte.
var oddNames = []string{"test/odd\x01", "test/odd<&>", "test/odd\u2028", "test/odd\xff"}

// registerOddNames registers one trivial decomposer per odd name (once per
// process: registration is global).
var registerOddNames = sync.OnceFunc(func() {
	for _, name := range oddNames {
		decomp.Register(decomp.Func{AlgorithmName: name,
			Run: func(_ context.Context, g graph.Interface, _ decomp.Config) (*decomp.Partition, error) {
				return onePartition(name, g), nil
			}})
	}
})

// oracleDoc is the encoding/json rendering of a decompose response — what
// json.NewEncoder(w).Encode wrote before the envelope writer existed.
func oracleDoc(t *testing.T, r DecomposeResponse) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("json.Marshal(%s response): %v", r.Algorithm, err)
	}
	return b
}

// TestDecomposeWriterOracle pins the envelope writer to encoding/json: for
// every registered algorithm — weak-mode linial-saks, MPX with its float
// cutFraction, the odd names — complete and incomplete (clusterOf holding
// -1), with and without dropped rounds and a seed override, the JSON body
// equals json.Marshal of the equivalent DecomposeResponse plus the newline
// json.Encoder adds, and the stream's result event carries the same
// document in its frame.
func TestDecomposeWriterOracle(t *testing.T) {
	registerOddNames()
	g := mustBuild(t, "gnp", 160, 3)
	s := &Server{logf: t.Logf}
	var sawIncomplete, sawWeak, sawFraction bool
	for _, name := range decomp.Names() {
		for _, opts := range [][]decomp.Option{{decomp.WithForceComplete()}, {decomp.WithPhaseBudget(1), decomp.WithSeed(77)}} {
			pl, err := decomp.Compile(name, opts...)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			p, err := pl.Run(t.Context(), g)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			f, err := p.Freeze()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sawIncomplete = sawIncomplete || len(p.Unassigned()) > 0
			sawWeak = sawWeak || p.Mode == decomp.WeakDiameter
			sawFraction = sawFraction || p.CutFraction != math.Trunc(p.CutFraction)
			for _, dropped := range []int64{0, 7} {
				doc := decomposeDoc{graph: g.Fingerprint(), plan: pl.PlanKey(), seed: pl.Seed(), algorithm: pl.Name(),
					cacheHit: dropped == 0, latencyNs: 123456789, droppedRounds: dropped, partition: f}
				want := oracleDoc(t, DecomposeResponse{
					Graph: keyString(doc.graph), Plan: keyString(doc.plan), Seed: doc.seed, Algorithm: doc.algorithm,
					CacheHit: doc.cacheHit, LatencyNs: doc.latencyNs, DroppedRounds: doc.droppedRounds, Partition: p,
				})
				rec := httptest.NewRecorder()
				s.writeDecompose(rec, &doc)
				if got := rec.Body.Bytes(); !bytes.Equal(got, append(want, '\n')) {
					t.Fatalf("%s (dropped %d): body differs from encoding/json:\n got %.300s\nwant %.300s", name, dropped, got, want)
				}
				if cl := rec.Header().Get("Content-Length"); cl != fmt.Sprint(rec.Body.Len()) {
					t.Fatalf("%s: Content-Length %q for a %d-byte body", name, cl, rec.Body.Len())
				}
				rec = httptest.NewRecorder()
				writeSSEResult(rec, &doc)
				if got, frame := rec.Body.String(), "event: result\ndata: "+string(want)+"\n\n"; got != frame {
					t.Fatalf("%s (dropped %d): SSE result frame differs:\n got %.300s\nwant %.300s", name, dropped, got, frame)
				}
			}
		}
	}
	if !sawIncomplete || !sawWeak || !sawFraction {
		t.Fatalf("oracle coverage: incomplete %v, weak mode %v, fractional cutFraction %v", sawIncomplete, sawWeak, sawFraction)
	}
}

// TestDecomposeServedBytesMatchOracle drives the handlers end to end: the
// cold miss, the warm hit, a seed override and both stream result events
// answer exactly the encoding/json document of their own envelope around
// the direct Plan.Run partition, and the synchronous answers carry a
// Content-Length instead of chunked encoding.
func TestDecomposeServedBytesMatchOracle(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	g := mustBuild(t, "gnp", 128, 9)
	gk := registerGraph(t, ts.URL, GraphSpec{Family: "gnp", N: 128, Seed: 9})
	for _, spec := range []PlanSpec{
		{Algorithm: "elkin-neiman", ForceComplete: true},
		{Algorithm: "linial-saks"},
		{Algorithm: "mpx"},
	} {
		var pi PlanInfo
		postJSON(t, ts.URL+"/v1/plans", spec, &pi)
		pl, err := spec.Compile()
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []*uint64{nil, seedOf(41)} {
			kp := pl
			if seed != nil {
				kp = pl.WithSeed(*seed)
			}
			direct, err := kp.Run(t.Context(), g)
			if err != nil {
				t.Fatal(err)
			}
			req, _ := json.Marshal(DecomposeRequest{Graph: gk, Plan: pi.Plan, Seed: seed})
			for round, wantHit := range []bool{false, true} {
				body, resp := postRaw(t, ts.URL+"/v1/decompose", req)
				var dr DecomposeResponse
				if err := json.Unmarshal(body, &dr); err != nil {
					t.Fatalf("%s: %v", spec.Algorithm, err)
				}
				if dr.CacheHit != wantHit || dr.Seed != kp.Seed() {
					t.Fatalf("%s round %d: hit %v seed %d, want hit %v seed %d", spec.Algorithm, round, dr.CacheHit, dr.Seed, wantHit, kp.Seed())
				}
				dr.Partition = direct
				if want := append(oracleDoc(t, dr), '\n'); !bytes.Equal(body, want) {
					t.Fatalf("%s round %d: served bytes differ from encoding/json", spec.Algorithm, round)
				}
				if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
					t.Fatalf("%s: Content-Length %d, Transfer-Encoding %v for a %d-byte body",
						spec.Algorithm, resp.ContentLength, resp.TransferEncoding, len(body))
				}
			}
			// The stream's warm result event.
			body, _ := postRaw(t, ts.URL+"/v1/decompose/stream", req)
			data, ok := strings.CutPrefix(string(body), "event: result\ndata: ")
			if !ok || !strings.HasSuffix(data, "\n\n") {
				t.Fatalf("%s: warm stream is not one result event: %.200q", spec.Algorithm, body)
			}
			data = strings.TrimSuffix(data, "\n\n")
			var dr DecomposeResponse
			if err := json.Unmarshal([]byte(data), &dr); err != nil || !dr.CacheHit {
				t.Fatalf("%s: warm stream result %v (hit %v)", spec.Algorithm, err, dr.CacheHit)
			}
			dr.Partition = direct
			if want := oracleDoc(t, dr); data != string(want) {
				t.Fatalf("%s: warm stream result differs from encoding/json", spec.Algorithm)
			}
		}
	}
	// The stream's cold result event (a fresh seed, so it executes).
	var pi PlanInfo
	postJSON(t, ts.URL+"/v1/plans", PlanSpec{Algorithm: "elkin-neiman/dist", ForceComplete: true}, &pi)
	req, _ := json.Marshal(DecomposeRequest{Graph: gk, Plan: pi.Plan, Seed: seedOf(5)})
	body, _ := postRaw(t, ts.URL+"/v1/decompose/stream", req)
	i := strings.Index(string(body), "event: result\ndata: ")
	if i < 0 {
		t.Fatalf("cold stream has no result event: %.300q", body)
	}
	data := strings.TrimSuffix(string(body[i+len("event: result\ndata: "):]), "\n\n")
	var dr DecomposeResponse
	if err := json.Unmarshal([]byte(data), &dr); err != nil || dr.CacheHit {
		t.Fatalf("cold stream result: %v (hit %v)", err, dr.CacheHit)
	}
	pl, err := decomp.Compile("elkin-neiman/dist", decomp.WithForceComplete(), decomp.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if dr.Partition, err = pl.Run(t.Context(), g); err != nil {
		t.Fatal(err)
	}
	if want := oracleDoc(t, dr); data != string(want) {
		t.Fatal("cold stream result differs from encoding/json")
	}
}

// postRaw posts body and returns the 200 response's bytes.
func postRaw(t *testing.T, url string, body []byte) ([]byte, *http.Response) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", url, resp.StatusCode, b)
	}
	return b, resp
}

// TestOddAlgorithmNamesServeValidJSON: a decomposer whose name needs JSON
// escaping answers a decodable 200 on the miss and on the hit, and the
// name decodes back (invalid UTF-8 as U+FFFD, as encoding/json does).
func TestOddAlgorithmNamesServeValidJSON(t *testing.T) {
	registerOddNames()
	s, ts := newTestServer(t, Options{Workers: 2})
	gk := registerGraph(t, ts.URL, GraphSpec{Family: "grid", N: 16, Seed: 1})
	for _, name := range oddNames {
		// Registered directly: a raw 0xff cannot travel inside a JSON request.
		pl, err := decomp.Compile(name)
		if err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		s.plans[pl.PlanKey()] = &planEntry{pl: pl, info: PlanInfo{Plan: keyString(pl.PlanKey()), Algorithm: name}}
		s.mu.Unlock()
		req, _ := json.Marshal(DecomposeRequest{Graph: gk, Plan: keyString(pl.PlanKey())})
		want := strings.ToValidUTF8(name, "\uFFFD")
		for _, wantHit := range []bool{false, true} {
			body, _ := postRaw(t, ts.URL+"/v1/decompose", req)
			var dr DecomposeResponse
			if err := json.Unmarshal(body, &dr); err != nil {
				t.Fatalf("%q (hit %v): undecodable body: %v", name, wantHit, err)
			}
			if dr.CacheHit != wantHit || dr.Algorithm != want || dr.Partition == nil || dr.Partition.Algorithm != want {
				t.Fatalf("%q: hit %v algorithm %q partition %+v; want hit %v and name %q", name, dr.CacheHit, dr.Algorithm, dr.Partition, wantHit, want)
			}
		}
	}
}

// TestWriteJSONEncodeErrorAnswers500: a document encoding/json rejects is
// answered with a 500 error document, not a 200 with an empty body.
func TestWriteJSONEncodeErrorAnswers500(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	rec := httptest.NewRecorder()
	s.writeJSON(rec, http.StatusOK, map[string]float64{"x": math.NaN()})
	var er errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); rec.Code != http.StatusInternalServerError || err != nil || er.Error == "" {
		t.Fatalf("status %d body %q (%v); want a 500 error document", rec.Code, rec.Body.Bytes(), err)
	}
}

// TestConcurrentWarmHitsOverHTTP is the serving half of the shared-entry
// race test: warm hits over HTTP encode cached frozen entries while cold
// misses evict through a two-entry LRU and the hot graph's entries are
// invalidated. Every answer is the exact partition of its key. Run it
// under -race.
func TestConcurrentWarmHitsOverHTTP(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2, CacheSize: 2})
	g := mustBuild(t, "gnp", 64, 4)
	gk := registerGraph(t, ts.URL, GraphSpec{Family: "gnp", N: 64, Seed: 4})
	var pi PlanInfo
	postJSON(t, ts.URL+"/v1/plans", PlanSpec{Algorithm: "elkin-neiman", ForceComplete: true}, &pi)
	pl, err := decomp.Compile("elkin-neiman", decomp.WithForceComplete())
	if err != nil {
		t.Fatal(err)
	}
	const keys = 3
	want := make([][]byte, keys)
	for k := range want {
		p, err := pl.WithSeed(uint64(k)).Run(t.Context(), g)
		if err != nil {
			t.Fatal(err)
		}
		want[k], _ = p.MarshalJSON()
	}
	var wg sync.WaitGroup
	const clients = 3
	errs := make(chan error, clients) // each client sends at most once
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{}
			// Keep going until hits and evictions both happened (bounded).
			for i := 0; i < 40 || !exercised(s) && i < 4000; i++ {
				k := i % keys // clients request the same key at once: hits and dedups
				req, _ := json.Marshal(DecomposeRequest{Graph: gk, Plan: pi.Plan, Seed: seedOf(uint64(k))})
				resp, err := client.Post(ts.URL+"/v1/decompose", "application/json", bytes.NewReader(req))
				if err != nil {
					errs <- err
					return
				}
				var dr struct {
					Partition json.RawMessage `json:"partition"`
				}
				err = json.NewDecoder(resp.Body).Decode(&dr)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(dr.Partition, want[k]) {
					errs <- fmt.Errorf("client %d request %d (key %d): status %d, %v, partition differs %v",
						c, i, k, resp.StatusCode, err, !bytes.Equal(dr.Partition, want[k]))
					return
				}
			}
		}()
	}
	stop := make(chan struct{})
	invalidated := make(chan struct{})
	go func() {
		defer close(invalidated)
		for {
			select {
			case <-stop:
				return
			default:
				s.Session().InvalidateGraph(g.Fingerprint())
				time.Sleep(time.Millisecond)
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-invalidated
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := s.Session().Stats(); !exercised(s) || st.Cached > 2 {
		t.Errorf("want warm hits, evictions and at most 2 cached entries: %+v", st)
	}
}

// exercised reports whether the session has served hits and evicted.
func exercised(s *Server) bool {
	st := s.Session().Stats()
	return st.Hits > 0 && st.Evictions > 0
}
