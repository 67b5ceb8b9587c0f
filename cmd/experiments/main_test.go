package main

import (
	"bytes"
	"strings"
	"testing"

	"netdecomp/internal/harness"
)

func TestRunSingleExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-run", "A1", "-trials", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "== A1") {
		t.Fatalf("missing table header:\n%s", out.String())
	}
}

func TestRunSubsetAndCSV(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-run", "t6", "-trials", "2", "-csv"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.HasPrefix(s, "c,") {
		t.Fatalf("csv output wrong:\n%s", s)
	}
}

// TestRunFailedVerdict pins the exit path CI relies on: every table is
// printed, then run returns an error naming each failed verdict.
func TestRunFailedVerdict(t *testing.T) {
	table := func(id string, observed float64) harness.Driver {
		return func(harness.Config) (*harness.Table, error) {
			tab := &harness.Table{ID: id, Columns: []string{"x"}}
			tab.AddRow("1")
			tab.AtMost("bounded", observed, 1)
			return tab, nil
		}
	}
	type entry = struct {
		ID, Name string
		Run      harness.Driver
	}
	defer func(orig func() []entry) { experiments = orig }(experiments)
	experiments = func() []entry {
		return []entry{{"TA", "", table("TA", 2)}, {"TB", "", table("TB", 1)}, {"TC", "", table("TC", 3)}}
	}
	var out bytes.Buffer
	err := run(nil, &out)
	for _, want := range []string{"== TA", "== TB", "== TC", "FAIL  bounded: observed 2"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output misses %q:\n%s", want, out.String())
		}
	}
	if err == nil || !strings.Contains(err.Error(), "TA: FAIL  bounded: observed 2, allowed ≤ 1") ||
		!strings.Contains(err.Error(), "TC: FAIL  bounded: observed 3, allowed ≤ 1") || strings.Contains(err.Error(), "TB") {
		t.Fatalf("err = %v, want the TA and TC verdicts named", err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-run", "T99"}, &out); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-bogus"}, &out); err == nil {
		t.Fatal("bad flag accepted")
	}
}
