package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// lineWriter hands each written line to a channel so the test can wait
// for the daemon's startup banner (which carries the bound address).
type lineWriter struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	lines chan string
}

func newLineWriter() *lineWriter {
	return &lineWriter{lines: make(chan string, 64)}
}

func (lw *lineWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	lw.buf.Write(p)
	sc := bufio.NewScanner(bytes.NewReader(p))
	for sc.Scan() {
		select {
		case lw.lines <- sc.Text():
		default:
		}
	}
	return len(p), nil
}

// startDaemon runs the daemon on an ephemeral port and returns its base
// URL plus a shutdown function that waits for a clean exit.
func startDaemon(t *testing.T, extraArgs ...string) (base string, shutdown func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	lw := newLineWriter()
	errCh := make(chan error, 1)
	go func() {
		errCh <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, extraArgs...), lw)
	}()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case line := <-lw.lines:
			if strings.Contains(line, "serving http://") {
				at := strings.Index(line, "http://")
				base = strings.Fields(line[at:])[0]
				return base, func() error {
					cancel()
					select {
					case err := <-errCh:
						return err
					case <-time.After(15 * time.Second):
						return fmt.Errorf("daemon did not shut down")
					}
				}
			}
		case err := <-errCh:
			t.Fatalf("daemon exited early: %v", err)
		case <-deadline:
			cancel()
			t.Fatal("daemon never printed its address")
		}
	}
}

func postJSON(t *testing.T, url string, in, out any) {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("%s: status %d: %s", url, resp.StatusCode, msg)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDaemonEndToEnd boots the daemon, registers a workload, runs a cold
// and a warm decompose, and checks /metrics reflects the hit.
func TestDaemonEndToEnd(t *testing.T) {
	base, shutdown := startDaemon(t)

	var health map[string]string
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if health["status"] != "ok" {
		t.Fatalf("healthz: %v", health)
	}

	var gi struct {
		Fingerprint string `json:"fingerprint"`
	}
	postJSON(t, base+"/v1/graphs", map[string]any{"family": "gnp", "n": 256, "seed": 5}, &gi)
	var pi struct {
		Plan string `json:"plan"`
	}
	postJSON(t, base+"/v1/plans", map[string]any{"algorithm": "elkin-neiman", "forceComplete": true}, &pi)

	req := map[string]any{"graph": gi.Fingerprint, "plan": pi.Plan}
	var cold, warm struct {
		CacheHit bool `json:"cacheHit"`
	}
	postJSON(t, base+"/v1/decompose", req, &cold)
	postJSON(t, base+"/v1/decompose", req, &warm)
	if cold.CacheHit || !warm.CacheHit {
		t.Fatalf("cold=%v warm=%v", cold.CacheHit, warm.CacheHit)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(prom), "session_hits 1") {
		t.Fatalf("/metrics does not show the hit:\n%s", prom)
	}

	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestDaemonStoreSurvivesRestart: the acceptance restart cycle through the
// real binary entry point — fill, shut down (flushes), boot again, warm.
func TestDaemonStoreSurvivesRestart(t *testing.T) {
	store := filepath.Join(t.TempDir(), "nd.snap")

	base, shutdown := startDaemon(t, "-store", store)
	var gi struct {
		Fingerprint string `json:"fingerprint"`
	}
	postJSON(t, base+"/v1/graphs", map[string]any{"family": "gnp", "n": 256, "seed": 5}, &gi)
	var pi struct {
		Plan string `json:"plan"`
	}
	postJSON(t, base+"/v1/plans", map[string]any{"algorithm": "elkin-neiman", "forceComplete": true}, &pi)
	req := map[string]any{"graph": gi.Fingerprint, "plan": pi.Plan}
	var dr struct {
		CacheHit bool `json:"cacheHit"`
	}
	postJSON(t, base+"/v1/decompose", req, &dr)
	if err := shutdown(); err != nil {
		t.Fatalf("first shutdown: %v", err)
	}

	base2, shutdown2 := startDaemon(t, "-store", store)
	defer shutdown2()
	var warm struct {
		CacheHit bool `json:"cacheHit"`
	}
	postJSON(t, base2+"/v1/decompose", req, &warm)
	if !warm.CacheHit {
		t.Fatal("restarted daemon missed the persisted cache")
	}
}

// TestDaemonDrainAccounting pins the graceful-shutdown path: SIGTERM (via
// context cancel) drains within -drain-timeout and logs the completed/
// abandoned split plus the clean-drain marker the CI smoke job greps.
func TestDaemonDrainAccounting(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	lw := newLineWriter()
	errCh := make(chan error, 1)
	go func() {
		errCh <- run(ctx, []string{"-addr", "127.0.0.1:0", "-drain-timeout", "2s"}, lw)
	}()
	var base string
	for base == "" {
		select {
		case line := <-lw.lines:
			if strings.Contains(line, "serving http://") {
				base = strings.Fields(line[strings.Index(line, "http://"):])[0]
			}
		case err := <-errCh:
			t.Fatalf("daemon exited early: %v", err)
		case <-time.After(10 * time.Second):
			t.Fatal("daemon never printed its address")
		}
	}
	// /readyz serves while healthy.
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("readyz: %d", resp.StatusCode)
	}
	cancel()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	lw.mu.Lock()
	out := lw.buf.String()
	lw.mu.Unlock()
	for _, want := range []string{"draining for up to 2s", "drained: 0 in-flight completed, 0 abandoned", "clean drain"} {
		if !strings.Contains(out, want) {
			t.Fatalf("shutdown log missing %q:\n%s", want, out)
		}
	}
}

// TestDaemonDefaultDeadline pins the -default-deadline flag end to end: a
// cold decompose whose budget cannot fit answers 504. The 1ns budget is
// expired before the execution's first context check, so the outcome
// does not race the decomposition speed.
func TestDaemonDefaultDeadline(t *testing.T) {
	base, shutdown := startDaemon(t, "-default-deadline", "1ns")
	defer shutdown()
	var gi struct {
		Fingerprint string `json:"fingerprint"`
	}
	postJSON(t, base+"/v1/graphs", map[string]any{"family": "gnp", "n": 4096, "seed": 5}, &gi)
	var pi struct {
		Plan string `json:"plan"`
	}
	postJSON(t, base+"/v1/plans", map[string]any{"algorithm": "elkin-neiman", "forceComplete": true}, &pi)
	body, _ := json.Marshal(map[string]any{"graph": gi.Fingerprint, "plan": pi.Plan})
	resp, err := http.Post(base+"/v1/decompose", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("cold decompose under 1ms budget: status %d, want 504", resp.StatusCode)
	}
}

// TestDaemonChaosSmoke runs a short chaos episode through the real entry
// point and checks the harness converges: zero violations, verified
// snapshot, clean drain.
func TestDaemonChaosSmoke(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-chaos",
		"-chaos-duration", "700ms",
		"-chaos-latency", "10ms",
		"-store", filepath.Join(t.TempDir(), "chaos.snap"),
	}, &out)
	if err != nil {
		t.Fatalf("chaos run: %v\n%s", err, out.String())
	}
	for _, want := range []string{"violations: 0", "snapshot verified:", "clean drain"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("chaos output missing %q:\n%s", want, out.String())
		}
	}
}

// TestDaemonBadFlags: flag errors and unusable addresses fail fast.
func TestDaemonBadFlags(t *testing.T) {
	if err := run(context.Background(), []string{"-addr", "256.0.0.1:bad"}, io.Discard); err == nil {
		t.Fatal("bad -addr must fail")
	}
	if err := run(context.Background(), []string{"-no-such-flag"}, io.Discard); err == nil {
		t.Fatal("unknown flag must fail")
	}
}
