package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunBasic(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-family", "grid", "-n", "100", "-k", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"graph", "verify", "valid=true", "bounds"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunVariants(t *testing.T) {
	cases := [][]string{
		{"-family", "gnp", "-n", "128", "-variant", "t2", "-k", "3"},
		{"-family", "gnp", "-n", "128", "-variant", "t3", "-lambda", "2"},
		{"-family", "tree", "-n", "128", "-mode", "exact", "-force"},
		{"-family", "cycle", "-n", "64", "-distributed"},
		{"-family", "gnp", "-n", "128", "-algo", "linial-saks", "-force"},
		{"-family", "gnp", "-n", "128", "-algo", "mpx"},
		{"-family", "grid", "-n", "100", "-algo", "mpx/dist", "-beta", "0.4"},
		{"-family", "grid", "-n", "100", "-algo", "ball-carving", "-k", "4"},
	}
	for _, args := range cases {
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if !strings.Contains(out.String(), "valid=true") {
			t.Fatalf("%v: verification not reported valid:\n%s", args, out.String())
		}
	}
}

func TestRunInputFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(path, []byte("4 3\n0 1\n1 2\n2 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-input", path, "-k", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "n=4") {
		t.Fatalf("input file not used:\n%s", out.String())
	}
}

func TestRunRepeatHitsCache(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-family", "gnp", "-n", "256", "-repeat", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "session  : repeat=4 hits=3 misses=1 dedups=0") {
		t.Fatalf("expected 3 cache hits out of 4 identical jobs:\n%s", s)
	}
	if !strings.Contains(s, "valid=true") {
		t.Fatalf("verification missing:\n%s", s)
	}
}

func TestRunSeedSweep(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-family", "gnp", "-n", "256", "-sweep-seeds", "3", "-repeat", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"seed 1", "seed 2", "seed 3", "jobs=6", "misses=3"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunFamilySweep(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-n", "64", "-k", "3", "-force", "-sweep"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"gnp", "grid", "powerlaw", "session  :"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "valid=false") {
		t.Fatalf("some family failed verification:\n%s", s)
	}
}

func TestRunTimeout(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-family", "gnp", "-n", "4096", "-force", "-timeout", "1ns"}, &out)
	if err == nil {
		t.Fatal("expected a deadline error with -timeout 1ns")
	}
	if !strings.Contains(err.Error(), "timed out after") {
		t.Fatalf("deadline error not actionable: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-family", "nope"},
		{"-variant", "nope"},
		{"-mode", "nope"},
		{"-input", "/nonexistent/file"},
		{"-c", "1"},
		{"-distributed", "-mode", "exact"},
		{"-algo", "no-such-algorithm"},
		{"-algo", "mpx", "-beta", "7"},
		{"-k", "-1"},
		{"-repeat", "0"},
		{"-sweep-seeds", "-2"},
		{"-sweep", "-input", "whatever"},
	}
	for _, args := range cases {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Fatalf("%v accepted", args)
		}
	}
}
