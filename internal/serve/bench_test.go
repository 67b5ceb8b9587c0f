package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netdecomp/internal/resilience"
)

// benchServer boots a server with a pre-registered gnp graph and
// forced-complete elkin-neiman plan, returning the base URL and keys.
func benchServer(b *testing.B, opts Options) (base, gk, pk string) {
	b.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(func() {
		ts.Close()
		_ = s.Close()
	})
	post := func(path string, body any, out any) {
		data, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			b.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			b.Fatal(err)
		}
	}
	var gi GraphInfo
	post("/v1/graphs", GraphSpec{Family: "gnp", N: 1024, Seed: 1}, &gi)
	var pi PlanInfo
	post("/v1/plans", PlanSpec{Algorithm: "elkin-neiman", ForceComplete: true}, &pi)
	benchServers.Store(ts.URL, s)
	return ts.URL, gi.Fingerprint, pi.Plan
}

// BenchmarkServeWarmHit measures the full warm serving path as a client
// sees it — HTTP round trip, cache lookup, the frozen entry encoded into a
// pooled buffer, and the client-side decode of the DecomposeResponse, which
// is most of its allocations. Its bounds are the serve rows of
// BENCH_gates.json.
func BenchmarkServeWarmHit(b *testing.B) {
	base, gk, pk := benchServer(b, Options{Workers: 2})
	body, _ := json.Marshal(DecomposeRequest{Graph: gk, Plan: pk})
	client := &http.Client{}
	// Prime the cache with the one execution.
	warmupOnce(b, client, base, body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var dr DecomposeResponse
		doBenchRequest(b, client, base, body, &dr)
		if !dr.CacheHit {
			b.Fatal("warm path missed the cache")
		}
	}
}

// BenchmarkServeWarmHitRaw is BenchmarkServeWarmHit without the client's
// JSON decode, so its allocations are the server's warm path plus the HTTP
// round trip. Every answer is read raw and must say "cacheHit":true and
// match the primed answer byte for byte from its partition onward (the
// fields before it carry the varying latencyNs).
func BenchmarkServeWarmHitRaw(b *testing.B) {
	base, gk, pk := benchServer(b, Options{Workers: 2})
	body, _ := json.Marshal(DecomposeRequest{Graph: gk, Plan: pk})
	client := &http.Client{}
	var buf bytes.Buffer
	want := bytes.Clone(partitionTail(b, doRawRequest(b, client, base, body, &buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got := doRawRequest(b, client, base, body, &buf)
		if !bytes.Contains(got, cacheHitTrue) {
			b.Fatal("warm path missed the cache")
		}
		if !bytes.Equal(partitionTail(b, got), want) {
			b.Fatal("warm hit answered a different partition")
		}
	}
}

var (
	cacheHitTrue = []byte(`"cacheHit":true`)
	partitionKey = []byte(`,"partition":`)
)

// doRawRequest posts one decompose request and returns the response body, read
// into buf.
func doRawRequest(b *testing.B, client *http.Client, base string, body []byte, buf *bytes.Buffer) []byte {
	b.Helper()
	resp, err := client.Post(base+"/v1/decompose", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		b.Fatalf("status %d", resp.StatusCode)
	}
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// partitionTail returns doc from its partition field onward.
func partitionTail(b *testing.B, doc []byte) []byte {
	b.Helper()
	i := bytes.Index(doc, partitionKey)
	if i < 0 {
		b.Fatalf("no partition in %.200s", doc)
	}
	return doc[i:]
}

// BenchmarkServeColdMiss measures the full cold path: every request uses a
// fresh seed, so the engine executes each time (dominated by the
// decomposition itself, reported for scale against the warm path).
func BenchmarkServeColdMiss(b *testing.B) {
	base, gk, pk := benchServer(b, Options{Workers: 2, CacheSize: 4})
	client := &http.Client{}
	var seedAt atomic.Uint64
	seedAt.Store(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed := seedAt.Add(1)
		body, _ := json.Marshal(DecomposeRequest{Graph: gk, Plan: pk, Seed: &seed})
		var dr DecomposeResponse
		doBenchRequest(b, client, base, body, &dr)
		if dr.CacheHit {
			b.Fatal("cold path hit the cache")
		}
	}
}

// BenchmarkResilienceWarmHitUnderSaturation measures the warm-hit path
// while the decompose admission gate is fully saturated at 4× capacity —
// the ISSUE's guarantee that cache hits bypass admission entirely, so a
// saturated gate costs them nothing. Saturation is synthetic: the slots
// and queue are held directly through the governor, with overflow
// acquirers parked exactly like queued cold requests.
func BenchmarkResilienceWarmHitUnderSaturation(b *testing.B) {
	const slots = 2
	base, gk, pk := benchServer(b, Options{Workers: 2, Resilience: resilience.Options{
		Decompose: resilience.GateConfig{Slots: slots, Queue: slots},
	}})
	body, _ := json.Marshal(DecomposeRequest{Graph: gk, Plan: pk})
	client := &http.Client{}
	warmupOnce(b, client, base, body)

	// 4× saturation: fill every slot, every queue position, and park
	// twice capacity more in overflow-rejected retry loops.
	s := serverOf(b, base)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 4*slots; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				release, err := s.gov.Acquire(ctx, resilience.ClassDecompose)
				if err != nil {
					// A real rejected client backs off before retrying;
					// spinning would just starve the process.
					time.Sleep(200 * time.Microsecond)
					continue
				}
				<-ctx.Done()
				release()
			}
		}()
	}
	defer wg.Wait()
	for s.gov.InFlight() < slots {
		time.Sleep(time.Millisecond)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var dr DecomposeResponse
		doBenchRequest(b, client, base, body, &dr)
		if !dr.CacheHit {
			b.Fatal("warm path missed the cache under saturation")
		}
	}
	b.StopTimer()
	cancel()
}

// benchServers tracks the *Server behind each benchServer base URL so
// saturation benchmarks can reach the governor directly.
var benchServers sync.Map

func serverOf(b *testing.B, base string) *Server {
	b.Helper()
	v, ok := benchServers.Load(base)
	if !ok {
		b.Fatal("unknown bench server")
	}
	return v.(*Server)
}

func warmupOnce(b *testing.B, client *http.Client, base string, body []byte) {
	b.Helper()
	var dr DecomposeResponse
	doBenchRequest(b, client, base, body, &dr)
	if dr.Partition == nil {
		b.Fatal("warmup produced no partition")
	}
}

func doBenchRequest(b *testing.B, client *http.Client, base string, body []byte, out *DecomposeResponse) {
	b.Helper()
	resp, err := client.Post(base+"/v1/decompose", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		b.Fatalf("status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		b.Fatal(err)
	}
}
