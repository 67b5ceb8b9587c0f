package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestWorkloadsSmoke runs every workload briefly in both modes: each must
// pass its output checks and print every metric of its mode.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			var out, errs bytes.Buffer
			code := run([]string{"--workload", name, "--seed", "3", "--seconds", "0.5", "--trace", trace, "--out", t.TempDir()}, &out, &errs)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d: %s", name, trace, code, errs.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s trace %s: last line: %v", name, trace, err)
			}
			want := len(endToEnd)
			if trace == "1" {
				want = len(perLayer)
			}
			if !last.Correct || last.Attempted < 1 || last.Failed != 0 || len(last.Metrics) != want {
				t.Errorf("%s trace %s: %d metrics, %d attempted, %d failed", name, trace, len(last.Metrics), last.Attempted, last.Failed)
			}
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "serve-warm", "--trace", "2"},
		{"--workload", "serve-warm", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, printed %q", args, code, out.String())
		}
	}
}
