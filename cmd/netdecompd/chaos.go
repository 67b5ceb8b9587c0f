package main

// The chaos harness: `netdecompd -chaos` boots the daemon in-process with
// the deterministic fault injector wired into the session runner and the
// snapshot writer, then drives it through three phases:
//
//	prime    — faults off: register the default workload, warm a small
//	           working set of seeds.
//	episode  — faults on: concurrent clients replay a warm/cold mix while
//	           the injector delivers latency spikes, decomposer errors,
//	           panics, and flush failures. Every response is classified;
//	           a warm hit that fails, or a 5xx without an injected cause,
//	           is a violation.
//	recovery — faults off: wait for degradation to clear, flush the
//	           store, and verify the snapshot's integrity hash by reading
//	           it back.
//
// The run ends with a graceful drain and prints `violations: 0` and
// `clean drain` on success — the two markers the CI chaos-smoke job
// greps for. SIGTERM mid-episode skips ahead to recovery: the harness
// still converges to a verified snapshot and a clean drain.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"netdecomp/internal/resilience"
	"netdecomp/internal/serve"
	"netdecomp/internal/session"
)

// chaosConfig shapes one chaos run.
type chaosConfig struct {
	duration time.Duration
	drain    time.Duration
	inject   resilience.InjectorConfig
}

const chaosWarmSeeds = 4

// chaosDefaults fills serving limits a chaos run needs when the user set
// none: without a bounded gate and a watermark there is nothing to shed,
// and without a deadline a latency spike could pin a worker forever.
func chaosDefaults(opts serve.Options) serve.Options {
	r := &opts.Resilience
	if r.Decompose.Slots == 0 {
		r.Decompose = resilience.GateConfig{Slots: 8, Queue: 16}
	}
	if r.ShedWatermark == 0 {
		r.ShedWatermark = 4
	}
	if r.Deadline.Default == 0 {
		r.Deadline.Default = 5 * time.Second
	}
	return opts
}

func runChaos(ctx context.Context, w io.Writer, opts serve.Options, cfg chaosConfig) error {
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts = chaosDefaults(opts)
	if opts.StorePath == "" {
		dir, err := os.MkdirTemp("", "netdecomp-chaos-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		opts.StorePath = filepath.Join(dir, "chaos.snap")
	}
	inj := resilience.NewInjector(cfg.inject)
	inj.SetEnabled(false) // the prime phase runs clean
	opts.Injector = inj
	if opts.FlushRetry.Attempts == 0 {
		opts.FlushRetry = resilience.Backoff{Attempts: 4, Base: 5 * time.Millisecond}
	}

	s := serve.New(opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return err
	}
	srv := &http.Server{Handler: s.Handler()}
	go srv.Serve(ln)
	base := "http://" + ln.Addr().String()
	fmt.Fprintf(w, "netdecompd: chaos harness on %s (store %s)\n", base, opts.StorePath)

	// Prime.
	gk, pk, err := registerDefaultWorkload(ctx, base)
	if err != nil {
		s.Close()
		return fmt.Errorf("chaos prime: %w", err)
	}
	client := &http.Client{}
	for seed := uint64(1); seed <= chaosWarmSeeds; seed++ {
		code, _, err := chaosDecompose(ctx, client, base, gk, pk, seed)
		if err != nil || code != http.StatusOK {
			s.Close()
			return fmt.Errorf("chaos prime seed %d: status %d err %v", seed, code, err)
		}
	}
	fmt.Fprintf(w, "chaos    : primed %d warm keys (graph=%s plan=%s)\n", chaosWarmSeeds, gk, pk)

	// Episode.
	inj.SetEnabled(true)
	fmt.Fprintf(w, "chaos    : episode: %v of injected faults (seed %d)\n", cfg.duration, cfg.inject.Seed)
	var (
		warmOK, coldOK, shed, timeouts, explained atomic.Int64
		violations                                atomic.Int64
		sawDegraded                               atomic.Bool
		coldSeed                                  atomic.Uint64
	)
	coldSeed.Store(1 << 32)
	epCtx, epCancel := context.WithTimeout(ctx, cfg.duration)
	defer epCancel()
	go func() {
		for epCtx.Err() == nil {
			if s.Degraded() {
				sawDegraded.Store(true)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	const chaosClients = 8
	var wg sync.WaitGroup
	for c := 0; c < chaosClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; epCtx.Err() == nil; i++ {
				if c%2 == 0 {
					// Warm lane: cache hits must survive every fault.
					code, body, err := chaosDecompose(epCtx, client, base, gk, pk, uint64(1+(c+i)%chaosWarmSeeds))
					if err != nil {
						break // episode over, transport tear-down
					}
					if code != http.StatusOK {
						violations.Add(1)
						fmt.Fprintf(w, "chaos    : VIOLATION: warm hit answered %d (%s)\n", code, body)
						continue
					}
					warmOK.Add(1)
					continue
				}
				// Cold lane: succeed, shed, time out, or fail explained.
				code, body, err := chaosDecompose(epCtx, client, base, gk, pk, coldSeed.Add(1))
				if err != nil {
					break
				}
				switch code {
				case http.StatusOK:
					coldOK.Add(1)
				case http.StatusTooManyRequests:
					shed.Add(1)
				case http.StatusGatewayTimeout:
					timeouts.Add(1)
				case http.StatusInternalServerError:
					if strings.Contains(body, "inject") || strings.Contains(body, "panicked") {
						explained.Add(1)
					} else {
						violations.Add(1)
						fmt.Fprintf(w, "chaos    : VIOLATION: unexplained 500: %s\n", body)
					}
				default:
					violations.Add(1)
					fmt.Fprintf(w, "chaos    : VIOLATION: unexpected status %d: %s\n", code, body)
				}
			}
		}(c)
	}
	wg.Wait()
	epCancel()
	st := inj.Stats()
	fmt.Fprintf(w, "chaos    : episode done: warm=%d cold-ok=%d shed=%d timeouts=%d explained-5xx=%d\n",
		warmOK.Load(), coldOK.Load(), shed.Load(), timeouts.Load(), explained.Load())
	fmt.Fprintf(w, "chaos    : faults delivered: latencies=%d errors=%d panics=%d flushErrors=%d\n",
		st.Latencies, st.Errors, st.Panics, st.FlushErrors)
	fmt.Fprintf(w, "chaos    : degraded observed: %v\n", sawDegraded.Load())

	// Recovery.
	inj.SetEnabled(false)
	recovered := false
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
		if !s.Degraded() && s.Governor().InFlight() == 0 {
			recovered = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !recovered {
		violations.Add(1)
		fmt.Fprintf(w, "chaos    : VIOLATION: degradation did not clear after the episode\n")
	}
	n, err := s.Flush()
	if err != nil {
		violations.Add(1)
		fmt.Fprintf(w, "chaos    : VIOLATION: post-episode flush: %v\n", err)
	} else if vn, verr := chaosVerifySnapshot(opts.StorePath); verr != nil {
		violations.Add(1)
		fmt.Fprintf(w, "chaos    : VIOLATION: snapshot verification: %v\n", verr)
	} else {
		fmt.Fprintf(w, "chaos    : snapshot verified: %d entries (flush reported %d)\n", vn, n)
	}
	fmt.Fprintf(w, "chaos    : violations: %d\n", violations.Load())

	// Drain: load is gone, so this must be clean.
	completed, abandoned := s.Drain(cfg.drain)
	fmt.Fprintf(w, "netdecompd: drained: %d in-flight completed, %d abandoned\n", completed, abandoned)
	if abandoned == 0 {
		fmt.Fprintf(w, "netdecompd: clean drain\n")
	}
	shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = srv.Shutdown(shCtx)
	if cerr := s.Close(); cerr != nil {
		return cerr
	}
	if v := violations.Load(); v != 0 {
		return fmt.Errorf("chaos: %d violations", v)
	}
	return nil
}

// registerDefaultWorkload registers the chaos workload — a gnp(n=1024,
// seed=1) graph and a forced-complete elkin-neiman plan — on the daemon at
// baseURL and returns their keys.
func registerDefaultWorkload(ctx context.Context, baseURL string) (graphKey, planKey string, err error) {
	var gi serve.GraphInfo
	if err := postWorkloadJSON(ctx, baseURL+"/v1/graphs", serve.GraphSpec{Family: "gnp", N: 1024, Seed: 1}, &gi); err != nil {
		return "", "", err
	}
	var pi serve.PlanInfo
	if err := postWorkloadJSON(ctx, baseURL+"/v1/plans", serve.PlanSpec{Algorithm: "elkin-neiman", ForceComplete: true}, &pi); err != nil {
		return "", "", err
	}
	return gi.Fingerprint, pi.Plan, nil
}

// postWorkloadJSON is the minimal JSON round trip registration needs.
func postWorkloadJSON(ctx context.Context, url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, msg)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// chaosDecompose posts one decompose request, returning status and body.
func chaosDecompose(ctx context.Context, client *http.Client, base, gk, pk string, seed uint64) (int, string, error) {
	payload, _ := json.Marshal(map[string]any{"graph": gk, "plan": pk, "seed": seed})
	req, err := http.NewRequestWithContext(ctx, "POST", base+"/v1/decompose", bytes.NewReader(payload))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body), nil
}

// chaosVerifySnapshot re-reads the snapshot through the integrity hash.
func chaosVerifySnapshot(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	snap, err := session.ReadSnapshot(f)
	if err != nil {
		return 0, err
	}
	return len(snap.Entries), nil
}
