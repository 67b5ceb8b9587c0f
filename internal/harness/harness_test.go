package harness

import (
	"bytes"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tab := &Table{
		ID:      "TX",
		Title:   "test table",
		Claim:   "something holds",
		Columns: []string{"a", "bb", "ccc"},
	}
	tab.AddRow("1", "2", "3")
	tab.AddRow("10", "20", "30")
	tab.AddNote("note %d", 1)
	tab.AtMost("held", 1, 2)
	tab.AtMost("broken", 3, 2)
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"TX", "test table", "something holds", "10", "note 1",
		"PASS  held: observed 1, allowed ≤ 2\n", "FAIL  broken: observed 3, allowed ≤ 2\n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{ID: "TX", Columns: []string{"a", "b"}}
	tab.AddRow("1", `va"l,ue`)
	var buf bytes.Buffer
	if err := tab.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "a,b\n") {
		t.Fatalf("csv header wrong: %q", out)
	}
	if !strings.Contains(out, `"va""l,ue"`) {
		t.Fatalf("csv quoting wrong: %q", out)
	}
}

// TestVerdicts pins the two verdict helpers at their edges.
func TestVerdicts(t *testing.T) {
	cases := []struct {
		name string
		add  func(*Table)
		pass bool
	}{
		{"at most, equal", func(t *Table) { t.AtMost("c", 14, 14) }, true},
		{"at most, one above", func(t *Table) { t.AtMost("c", 15, 14) }, false},
		{"rate, no events", func(t *Table) { t.AtMostRate("c", 0, 40, 0.0625) }, true},
		{"rate far above, 40 trials", func(t *Table) { t.AtMostRate("c", 30, 40, 0.5) }, false},
		{"rate far above, 2 trials", func(t *Table) { t.AtMostRate("c", 2, 2, 0.5) }, true},
		{"rate above, lower bound just under", func(t *Table) { t.AtMostRate("c", 29, 40, 0.5) }, true},
	}
	for _, c := range cases {
		tab := &Table{}
		c.add(tab)
		if len(tab.Verdicts) != 1 || tab.Verdicts[0].Pass != c.pass || (len(tab.Failed()) == 0) != c.pass {
			t.Errorf("%s: verdicts %+v, failed %+v, want one with Pass=%v", c.name, tab.Verdicts, tab.Failed(), c.pass)
		}
	}
}

func TestLookup(t *testing.T) {
	if Lookup("T1") == nil || Lookup("t10") == nil || Lookup("A1") == nil {
		t.Fatal("known experiment not found")
	}
	if Lookup("T99") != nil {
		t.Fatal("unknown experiment found")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.normalize()
	if c.Scale != ScaleSmall {
		t.Fatal("default scale wrong")
	}
	if c.trials(3, 10) != 3 {
		t.Fatal("small trials wrong")
	}
	c.Scale = ScaleFull
	if c.trials(3, 10) != 10 {
		t.Fatal("full trials wrong")
	}
	c.Trials = 7
	if c.trials(3, 10) != 7 {
		t.Fatal("override trials wrong")
	}
}

func TestCheckpoints(t *testing.T) {
	cp := checkpoints(10)
	want := []int{0, 1, 2, 4, 8, 10}
	if len(cp) != len(want) {
		t.Fatalf("checkpoints(10) = %v", cp)
	}
	for i := range want {
		if cp[i] != want[i] {
			t.Fatalf("checkpoints(10) = %v, want %v", cp, want)
		}
	}
	if cp := checkpoints(0); len(cp) != 1 || cp[0] != 0 {
		t.Fatalf("checkpoints(0) = %v", cp)
	}
}

// TestAllExperimentsRunSmall executes every driver at a reduced size; this
// is the integration test that the whole harness produces sane tables and
// that every claim it checks holds.
func TestAllExperimentsRunSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("harness integration test skipped in -short mode")
	}
	cfg := Config{Scale: ScaleSmall, Seed: 42, Trials: 2}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tab, err := e.Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if tab.ID != e.ID {
				t.Fatalf("driver %s returned table %s", e.ID, tab.ID)
			}
			if len(tab.Rows) == 0 {
				t.Fatalf("%s produced no rows", e.ID)
			}
			for _, row := range tab.Rows {
				if len(row) != len(tab.Columns) {
					t.Fatalf("%s: row width %d != %d columns", e.ID, len(row), len(tab.Columns))
				}
			}
			for _, v := range tab.Failed() {
				t.Errorf("%s: %s", e.ID, v)
			}
			var buf bytes.Buffer
			if err := tab.Render(&buf); err != nil {
				t.Fatal(err)
			}
			if err := tab.CSV(&buf); err != nil {
				t.Fatal(err)
			}
		})
	}
}
