package main

// serve-warm: an in-process serve.Server behind a real loopback TCP
// listener, answering warm hits to two closed-loop clients. Serve and the
// session's read path do all the work; core and dist do none.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"netdecomp/internal/decomp"
	"netdecomp/internal/graph"
	"netdecomp/internal/obs"
	"netdecomp/internal/randx"
	"netdecomp/internal/serve"
)

const (
	warmGraphs     = 4    // gnp graphs registered
	warmN          = 2048 // vertices per graph
	warmSeedsPer   = 16   // decomposition seeds primed per graph: 64 keys
	warmHot        = 4    // class a: the most popular ranks
	warmZipfS      = 1.2  // key popularity exponent
	warmCallers    = 2    // load-generator goroutines, one per core
	warmConnsPer   = 2    // keep-alive connections per caller, one request in flight on each
	warmConns      = warmCallers * warmConnsPer
	warmStreamLen  = 1 << 16 // requests generated per connection (reused cyclically)
	warmProbeCalls = 512     // direct Peek + encode calls in the traced probe
	warmBlocks     = 5       // measured blocks; percentiles are medians over blocks
)

// warmPlan is the one plan the workload serves.
var warmPlan = serve.PlanSpec{Algorithm: "elkin-neiman", ForceComplete: true}

// connHeader carries the client connection's index to the traced run's
// wrapping handler.
const connHeader = "X-Perfbench-Conn"

// warmInputs is everything serve-warm derives from the workload seed.
type warmInputs struct {
	specs   []serve.GraphSpec
	seeds   [][]uint64       // decomposition seeds per graph; key = graph*warmSeedsPer + j
	streams [warmConns][]int // per connection, the popularity rank of each request
	order   []int            // popularity rank → key, set once the keys are primed
}

func newWarmInputs(seed uint64) warmInputs {
	var in warmInputs
	rng := randx.Derive(seed, 1)
	for range warmGraphs {
		in.specs = append(in.specs, serve.GraphSpec{Family: "gnp", N: warmN, Seed: rng.Uint64()})
		s := make([]uint64, warmSeedsPer)
		for j := range s {
			s[j] = rng.Uint64()
		}
		in.seeds = append(in.seeds, s)
	}
	z := newZipf(warmGraphs*warmSeedsPer, warmZipfS)
	for c := range in.streams {
		crng := randx.Derive(seed, 2, uint64(c))
		in.streams[c] = make([]int, warmStreamLen)
		for i := range in.streams[c] {
			in.streams[c][i] = z.rank(crng.Float64())
		}
	}
	return in
}

// popularityOrder maps popularity ranks to keys so that the hot set is a
// representative sample of the keys: rank r takes the key at the r-th
// point of the quantile sequence 1/2, 1/4, 3/4, 1/8, 3/8, … of the keys
// sorted by response size. Partition sizes vary 3x between keys, and under
// Zipf(1.2) the hottest 2–3 keys carry half the traffic, so a shuffled
// order would make every percentile depend on a few keys' sizes.
func popularityOrder(primed [][]byte) []int {
	n := len(primed)
	bySize := make([]int, n)
	for k := range bySize {
		bySize[k] = k
	}
	slices.SortStableFunc(bySize, func(a, b int) int { return len(primed[a]) - len(primed[b]) })
	order := make([]int, 0, n)
	seen := make([]bool, n)
	for depth := 1; len(order) < n; depth++ {
		for j := 1; j < 1<<depth; j += 2 {
			if i := j * n >> depth; !seen[i] {
				seen[i] = true
				order = append(order, bySize[i])
			}
		}
	}
	return order
}

// zipf samples popularity ranks 0..n-1 with P(rank r) ∝ (r+1)^-s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for r := range cdf {
		sum += math.Pow(float64(r+1), -s)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return zipf{cdf: cdf}
}

// rank maps a uniform draw u in [0,1) to a rank.
func (z zipf) rank(u float64) int {
	r, _ := slices.BinarySearch(z.cdf, u)
	return min(r, len(z.cdf)-1)
}

// warmServer is one booted, registered and primed serving stack.
type warmServer struct {
	srv    *serve.Server
	http   *http.Server
	served chan struct{} // closed when the accept loop has returned
	addr   string        // listener address
	timer  *handlerTimer // the traced run's wrapping handler; nil untraced
	plan   string        // plan key
	heads  [][]byte      // per key: the decompose request line and headers
	bodies [][]byte      // per key: the decompose request body
	primed [][]byte      // per key: partition bytes captured at priming

	registerMs, primeMs float64
}

// bootWarm starts the server on a loopback listener, registers the graphs
// and the plan, and primes every key, returning the set-up time.
func bootWarm(in warmInputs, traced bool) (*warmServer, time.Duration, error) {
	start := time.Now()
	ws := &warmServer{srv: serve.New(serve.Options{}), served: make(chan struct{})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ws.srv.Close()
		return nil, 0, err
	}
	var h http.Handler = ws.srv.Handler()
	if traced {
		ws.timer = &handlerTimer{next: h}
		h = ws.timer
	}
	ws.http = &http.Server{Handler: h}
	go func() {
		defer close(ws.served)
		_ = ws.http.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	ws.addr = ln.Addr().String()
	if err := ws.registerAndPrime(in); err != nil {
		ws.close()
		return nil, 0, err
	}
	return ws, time.Since(start), nil
}

func (ws *warmServer) registerAndPrime(in warmInputs) error {
	tr := &http.Transport{DisableCompression: true}
	defer tr.CloseIdleConnections()
	c := &http.Client{Transport: tr}
	url := "http://" + ws.addr
	t := time.Now()
	fps := make([]string, len(in.specs))
	for g, sp := range in.specs {
		var info serve.GraphInfo
		if err := postJSON(c, url+"/v1/graphs", sp, &info); err != nil {
			return fmt.Errorf("registering graph %d: %w", g, err)
		}
		fps[g] = info.Fingerprint
	}
	var pinfo serve.PlanInfo
	if err := postJSON(c, url+"/v1/plans", warmPlan, &pinfo); err != nil {
		return fmt.Errorf("registering plan: %w", err)
	}
	ws.plan = pinfo.Plan
	ws.registerMs = ms(time.Since(t))

	t = time.Now()
	for g, seeds := range in.seeds {
		for _, seed := range seeds {
			body, err := json.Marshal(serve.DecomposeRequest{Graph: fps[g], Plan: ws.plan, Seed: &seed})
			if err != nil {
				return err
			}
			resp, err := post(c, url+"/v1/decompose", body)
			if err != nil {
				return fmt.Errorf("priming graph %d seed %d: %w", g, seed, err)
			}
			part, _, err := partitionBytes(resp)
			if err != nil {
				return fmt.Errorf("priming graph %d seed %d: %w", g, seed, err)
			}
			ws.heads = append(ws.heads, fmt.Appendf(nil,
				"POST /v1/decompose HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n", ws.addr, len(body)))
			ws.bodies = append(ws.bodies, body)
			ws.primed = append(ws.primed, part)
		}
	}
	ws.primeMs = ms(time.Since(t))
	return nil
}

func (ws *warmServer) close() {
	ws.http.Close()
	<-ws.served
	ws.srv.Close()
}

// post sends one JSON body and returns the 200 response body.
func post(c *http.Client, url string, body []byte) ([]byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	return buf.Bytes(), nil
}

func postJSON(c *http.Client, url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := post(c, url, body)
	if err != nil {
		return err
	}
	return json.Unmarshal(resp, out)
}

// handlerTimer is the traced run's wrapping handler: it times
// Server.Handler().ServeHTTP for requests that name their connection and
// hangs a serve.handler span under that connection's current request span.
type handlerTimer struct {
	next http.Handler
	conn [warmConns]struct {
		span atomic.Pointer[obs.Span]
		took atomic.Int64 // nanoseconds inside the handler, last request
	}
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c, err := strconv.Atoi(r.Header.Get(connHeader))
	if err != nil || c < 0 || c >= warmConns {
		h.next.ServeHTTP(w, r)
		return
	}
	slot := &h.conn[c]
	span := slot.span.Load().Child("serve.handler")
	start := time.Now()
	h.next.ServeHTTP(w, r)
	slot.took.Store(int64(time.Since(start)))
	span.End()
}

// warmLoad is what the closed-loop clients measured in one phase.
type warmLoad struct {
	lat       [2]samples // round trip by class (a, b)
	failed    int
	bytes     int64
	handler   samples // traced only
	transport samples // traced only
	wall      time.Duration
}

func (l *warmLoad) completed() int { return len(l.lat[0]) + len(l.lat[1]) }

func (l *warmLoad) merge(o *warmLoad) {
	for c := range l.lat {
		l.lat[c] = append(l.lat[c], o.lat[c]...)
	}
	l.failed += o.failed
	l.bytes += o.bytes
	l.wall += o.wall
	l.handler = append(l.handler, o.handler...)
	l.transport = append(l.transport, o.transport...)
}

// load runs the callers until d has passed, continuing each connection's
// request stream from pos.
func (ws *warmServer) load(in warmInputs, pos *[warmConns]int, d time.Duration, tracer *obs.Tracer) (*warmLoad, error) {
	total := &warmLoad{}
	parts := make([]*warmLoad, warmCallers)
	errs := make([]error, warmCallers)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for g := range warmCallers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[g], errs[g] = ws.caller(in, g, pos, deadline, tracer)
		}()
	}
	wg.Wait()
	total.wall = time.Since(start)
	for _, p := range parts {
		total.merge(p)
	}
	return total, errors.Join(errs...)
}

// warmConn is one keep-alive connection speaking HTTP/1.1 on a raw TCP
// socket, with at most one request in flight.
type warmConn struct {
	id      int
	c       net.Conn
	br      *bufio.Reader
	pending bool
	werr    error // the in-flight request's write error
	op      int
	rank    int
	key     int
	start   time.Time
	span    *obs.Span
}

// caller is one load-generator goroutine driving warmConnsPer closed-loop
// connections: it sends on each, then in turn reads each reply and sends
// that connection's next request. It runs no transport goroutines: replies
// are parsed with http.ReadResponse on the caller, their bodies read into
// a reused buffer and their partition bytes compared with the primed
// bytes, never decoded. A reply that arrives while the caller reads the
// other connection's waits in the socket, and its round trip includes
// that wait.
func (ws *warmServer) caller(in warmInputs, g int, pos *[warmConns]int, deadline time.Time, tracer *obs.Tracer) (*warmLoad, error) {
	st := &warmLoad{}
	conns := make([]*warmConn, warmConnsPer)
	defer func() {
		for _, wc := range conns {
			if wc.c != nil {
				wc.c.Close()
			}
		}
	}()
	var req []byte
	var buf bytes.Buffer
	for i := range conns {
		conns[i] = &warmConn{id: g*warmConnsPer + i}
		if err := ws.send(conns[i], in, &pos[conns[i].id], &req, tracer); err != nil {
			return st, err
		}
	}
	for busy := true; busy; {
		busy = false
		for _, wc := range conns {
			if !wc.pending {
				continue
			}
			busy = true
			if err := ws.receive(wc, st, &buf, tracer != nil); err != nil {
				return st, err
			}
			if time.Now().Before(deadline) {
				if err := ws.send(wc, in, &pos[wc.id], &req, tracer); err != nil {
					return st, err
				}
			}
		}
	}
	return st, nil
}

// send writes the connection's next request, dialing first if needed.
func (ws *warmServer) send(wc *warmConn, in warmInputs, pos *int, req *[]byte, tracer *obs.Tracer) error {
	if wc.c == nil {
		c, err := net.Dial("tcp", ws.addr)
		if err != nil {
			return err
		}
		wc.c, wc.br = c, bufio.NewReaderSize(c, 64<<10)
	}
	wc.op = *pos
	*pos++
	wc.rank = in.streams[wc.id][wc.op%warmStreamLen]
	wc.key = in.order[wc.rank]
	r := append((*req)[:0], ws.heads[wc.key]...)
	if tracer != nil {
		r = fmt.Appendf(r, "%s: %d\r\n", connHeader, wc.id)
	}
	r = append(append(r, "\r\n"...), ws.bodies[wc.key]...)
	*req = r
	wc.span = tracer.Start("serve-warm.request",
		obs.KV{K: "op", V: int64(wc.op)}, obs.KV{K: "conn", V: int64(wc.id)}, obs.KV{K: "key", V: int64(wc.key)})
	if tracer != nil {
		ws.timer.conn[wc.id].span.Store(wc.span)
	}
	wc.pending = true
	wc.start = time.Now()
	_, wc.werr = wc.c.Write(r)
	return nil
}

// receive reads and checks the reply to the connection's request. A
// transport error or a non-200 status counts as a failed op (the
// connection is redialed on the next send); a wrong body is an error.
func (ws *warmServer) receive(wc *warmConn, st *warmLoad, buf *bytes.Buffer, traced bool) error {
	wc.pending = false
	err := wc.werr
	var resp *http.Response
	if err == nil {
		resp, err = http.ReadResponse(wc.br, nil)
	}
	if err == nil {
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	rtt := time.Since(wc.start)
	wc.span.End()
	if err != nil {
		st.failed++
		wc.c.Close()
		wc.c = nil
		return nil
	}
	if resp.StatusCode != http.StatusOK {
		st.failed++
		return nil
	}
	if err := checkWarmBody(buf.Bytes(), ws.primed[wc.key]); err != nil {
		return fmt.Errorf("connection %d request %d (key %d): %w", wc.id, wc.op, wc.key, err)
	}
	class := 1
	if wc.rank < warmHot {
		class = 0
	}
	st.lat[class].add(rtt)
	st.bytes += int64(buf.Len())
	if traced {
		h := time.Duration(ws.timer.conn[wc.id].took.Load())
		st.handler.add(h)
		st.transport.add(rtt - h)
	}
	return nil
}

// warmRefs holds the benchmark's own copies of the served graphs and plan,
// built off the clock, for the direct probe and the re-derivation check.
type warmRefs struct {
	graphs []*graph.Graph
	plan   *decomp.Plan
}

func newWarmRefs(in warmInputs) (*warmRefs, error) {
	refs := &warmRefs{}
	for _, sp := range in.specs {
		g, err := sp.Build()
		if err != nil {
			return nil, err
		}
		refs.graphs = append(refs.graphs, g)
	}
	pl, err := warmPlan.Compile()
	if err != nil {
		return nil, err
	}
	refs.plan = pl
	return refs, nil
}

// key resolves key k to its graph and seeded plan.
func (r *warmRefs) key(in warmInputs, k int) (*graph.Graph, *decomp.Plan) {
	g := k / warmSeedsPer
	return r.graphs[g], r.plan.WithSeed(in.seeds[g][k%warmSeedsPer])
}

// rederive re-runs every key with Plan.Run and compares its MarshalJSON
// bytes with the served (primed) bytes.
func (ws *warmServer) rederive(in warmInputs, refs *warmRefs) error {
	for k, want := range ws.primed {
		g, pl := refs.key(in, k)
		p, err := pl.Run(context.Background(), g)
		if err != nil {
			return fmt.Errorf("re-deriving key %d: %w", k, err)
		}
		b, err := p.MarshalJSON()
		if err != nil {
			return err
		}
		if !bytes.Equal(b, want) {
			return fmt.Errorf("key %d: served partition differs from a from-scratch Plan.Run", k)
		}
	}
	return nil
}

// probe times Session().Peek and json.Marshal of the response document
// directly, on the hot keys, after the load so it contends with nothing.
func (ws *warmServer) probe(in warmInputs, refs *warmRefs, tracer *obs.Tracer) (peek, encode samples, err error) {
	sess := ws.srv.Session()
	for i := range warmProbeCalls {
		key := in.order[i%warmHot]
		g, pl := refs.key(in, key)
		op := tracer.Start("serve-warm.probe", obs.KV{K: "op", V: int64(i)}, obs.KV{K: "key", V: int64(key)})
		span := op.Child("session.peek")
		start := time.Now()
		p, ok := sess.Peek(pl, g)
		peek.add(time.Since(start))
		span.End()
		if !ok {
			op.End()
			return nil, nil, fmt.Errorf("key %d is not cached after the load", key)
		}
		span = op.Child("serve.encode")
		start = time.Now()
		b, err := json.Marshal(serve.DecomposeResponse{
			Graph: fmt.Sprintf("%016x", graph.Fingerprint(g)), Plan: ws.plan, Seed: pl.Seed(),
			Algorithm: pl.Name(), CacheHit: true, Partition: p,
		})
		encode.add(time.Since(start))
		span.End()
		op.End()
		if err != nil {
			return nil, nil, err
		}
		if err := checkWarmBody(append(b, '\n'), ws.primed[key]); err != nil {
			return nil, nil, fmt.Errorf("peeked key %d: %w", key, err)
		}
	}
	return peek, encode, nil
}

func serveWarm(cfg config) (*result, error) {
	in := newWarmInputs(cfg.seed)
	refs, err := newWarmRefs(in)
	if err != nil {
		return nil, err
	}
	res := newResult()

	// Set up several times; report the median and keep the last.
	var ws *warmServer
	var setups []time.Duration
	var parts [][2]float64 // register, prime
	for i := range setupRepeats {
		s, d, err := bootWarm(in, cfg.traced())
		if err != nil {
			if ws != nil {
				ws.close()
			}
			return nil, err
		}
		if ws != nil {
			for k := range s.primed {
				if !bytes.Equal(s.primed[k], ws.primed[k]) {
					s.close()
					ws.close()
					return nil, fmt.Errorf("set-up %d primed key %d to different bytes", i, k)
				}
			}
			ws.close()
			heapAfterGC()
		}
		ws = s
		setups = append(setups, d)
		parts = append(parts, [2]float64{s.registerMs, s.primeMs})
	}
	defer ws.close()
	in.order = popularityOrder(ws.primed)
	mid := medianRun(setups)
	res.e2e["setup_s"] = setups[mid].Seconds()
	res.layers["serve.register_ms"] = parts[mid][0]
	res.layers["serve.prime_ms"] = parts[mid][1]
	res.notef("setup: %d set-ups of boot + %d registrations + %d primed keys: %v (median %.4g s)",
		setupRepeats, warmGraphs+1, len(ws.primed), setups, setups[mid].Seconds())

	before := ws.srv.Session().Stats()
	var pos [warmConns]int
	var blocks []*warmLoad // untraced blocks
	var traced *warmLoad
	var allocs uint64
	n := warmBlocks
	if cfg.traced() {
		// Half untraced, half traced: the difference is the tracing overhead.
		n = 1
		cfg.measure /= 2
	}
	for range n {
		l, err := ws.load(in, &pos, cfg.measure/time.Duration(n), nil)
		if err != nil {
			return nil, err
		}
		blocks = append(blocks, l)
	}
	if cfg.traced() {
		a0 := totalAlloc()
		if traced, err = ws.load(in, &pos, cfg.measure, cfg.tracer); err != nil {
			return nil, err
		}
		allocs = totalAlloc() - a0
	}
	after := ws.srv.Session().Stats()
	measured := &warmLoad{}
	var classes [2][]samples
	for _, l := range append(blocks, traced) {
		if l == nil {
			continue
		}
		measured.merge(l)
		for c := range classes {
			classes[c] = append(classes[c], l.lat[c])
		}
	}
	res.attempted = measured.completed() + measured.failed
	res.failed = measured.failed
	res.e2e["retained_heap_mb"] = heapAfterGC()
	res.e2e["throughput_ops_s"] = float64(measured.completed()) / measured.wall.Seconds()
	res.classSamples("a", "warm hits on the 4 hottest keys", classes[0]...)
	res.classSamples("b", "warm hits on the other 60 keys", classes[1]...)
	all := append(slices.Clone(measured.lat[0]), measured.lat[1]...)
	res.notef("all warm hits: n=%d p50 %.4g ms p99 %.4g ms, %.5g req/s over %.3g s on %d connections from %d callers",
		len(all), all.p50(), all.quantile(0.99), res.e2e["throughput_ops_s"], measured.wall.Seconds(), warmConns, warmCallers)
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	res.layers["session.hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	res.notef("session over the measured phase: %d hits, %d misses", hits, misses)

	if cfg.traced() {
		peek, encode, err := ws.probe(in, refs, cfg.tracer)
		if err != nil {
			return nil, err
		}
		n := float64(traced.completed())
		res.layers["serve.handler_ms"] = traced.handler.p50()
		res.layers["serve.transport_ms"] = traced.transport.p50()
		res.layers["session.peek_ms"] = peek.p50()
		res.layers["serve.encode_ms"] = encode.p50()
		res.layers["serve.residual_ms"] = traced.handler.p50() - peek.p50() - encode.p50()
		res.layers["serve.response_kb"] = ratio(float64(traced.bytes), n) / 1e3
		res.layers["serve.alloc_kb_per_req"] = ratio(float64(allocs), n) / 1e3
		res.layers["trace.overhead_pct"] = pct(traced.lat[0].p50()-blocks[0].lat[0].p50(), blocks[0].lat[0].p50())
		rtt := append(slices.Clone(traced.lat[0]), traced.lat[1]...)
		res.sumTable("serve-warm round trip (traced half)", rtt.mean(),
			layerRow{"serve.transport and queueing (rtt - handler)", traced.transport.mean()},
			layerRow{"session.peek (direct probe)", peek.mean()},
			layerRow{"serve.encode (direct probe)", encode.mean()},
			layerRow{"serve.residual (handler - peek - encode)", traced.handler.mean() - peek.mean() - encode.mean()})
		res.zeroLayers()
	}
	if err := ws.rederive(in, refs); err != nil {
		return nil, err
	}
	res.notef("checks: every response a 200 cache hit with the primed partition bytes; %d keys re-derived with Plan.Run byte-identical", len(ws.primed))
	return res, nil
}
