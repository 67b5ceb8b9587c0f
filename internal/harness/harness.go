// Package harness implements the experiment drivers that `go run
// ./cmd/experiments` prints. The paper is an extended abstract with no
// empirical section, so each experiment reproduces the *shape* of one
// theorem, lemma or claim (see DESIGN.md section 6 for the mapping):
// measured quantities are printed next to the bound the paper proves, and
// every claim a run can check is a Verdict, PASS or FAIL.
//
// Every driver is deterministic in Config.Seed and comes in two sizes:
// ScaleSmall (seconds; the default of cmd/experiments, and what the tests,
// the bench_test.go targets and CI run) and ScaleFull (`-full`, minutes).
package harness

import (
	"fmt"
	"io"
	"strings"

	"netdecomp/internal/stats"
)

// Scale selects the experiment size.
type Scale int

// Experiment sizes. Values start at 1 so the zero value is detectable
// (Config.normalize defaults it to ScaleSmall).
const (
	ScaleSmall Scale = iota + 1
	ScaleFull
)

// Config parameterizes every experiment driver.
type Config struct {
	// Scale selects preset sizes; default ScaleSmall.
	Scale Scale
	// Seed makes the whole experiment reproducible; trial i of a driver
	// uses derived seed Seed+i.
	Seed uint64
	// Trials overrides the per-configuration repetition count when > 0.
	Trials int
}

// normalize applies defaults.
func (c Config) normalize() Config {
	if c.Scale == 0 {
		c.Scale = ScaleSmall
	}
	return c
}

// trials returns the repetition count: the explicit override, or the
// scale-dependent default.
func (c Config) trials(small, full int) int {
	if c.Trials > 0 {
		return c.Trials
	}
	if c.Scale == ScaleFull {
		return full
	}
	return small
}

// pick returns the scale-appropriate value.
func pick[T any](c Config, small, full T) T {
	if c.Scale == ScaleFull {
		return full
	}
	return small
}

// Table is one reproduced table: a titled grid of cells, the paper claim
// it reproduces, and the verdicts that check the claim on this run.
type Table struct {
	// ID is the experiment identifier (T1..T15, A1).
	ID string
	// Title is the human-readable headline.
	Title string
	// Claim quotes the bound or behaviour the paper promises.
	Claim string
	// Columns and Rows hold the rendered grid.
	Columns []string
	Rows    [][]string
	// Notes hold derived observations (fitted exponents, shape remarks)
	// appended below the grid. A claim the run can check is a verdict,
	// not a note.
	Notes []string
	// Verdicts hold one checked claim each, in the order checked.
	Verdicts []Verdict
}

// Verdict is one checked claim: what is claimed, the value the run
// observed, the value the claim allows, and whether it held.
type Verdict struct {
	Claim    string
	Observed string
	Allowed  string
	Pass     bool
}

// String renders the verdict as its PASS/FAIL line.
func (v Verdict) String() string {
	status := "PASS"
	if !v.Pass {
		status = "FAIL"
	}
	return fmt.Sprintf("%s  %s: observed %s, allowed %s", status, v.Claim, v.Observed, v.Allowed)
}

// rateZ is the z of the one-sided Wilson lower bound every rate verdict
// uses. At z = 3 one verdict fails falsely with probability about 0.13%
// even when the true rate sits exactly at its bound, so the 34 rate
// verdicts of a -full run together fail falsely less than 5% of the time.
const rateZ = 3

// AtMost records a deterministic claim: it holds when observed ≤ allowed.
func (t *Table) AtMost(claim string, observed, allowed float64) {
	t.Verdicts = append(t.Verdicts, Verdict{
		Claim:    claim,
		Observed: fmtF(observed),
		Allowed:  "≤ " + fmtF(allowed),
		Pass:     observed <= allowed,
	})
}

// AtMostRate records a probabilistic claim, Pr[event] ≤ allowed, from
// events seen in trials runs. It fails only when the one-sided Wilson
// lower bound of the observed rate exceeds allowed: a handful of trials
// rarely fails it by chance, and many trials far above the bound fail it.
func (t *Table) AtMostRate(claim string, events, trials int, allowed float64) {
	lo, _ := stats.WilsonCI(events, trials, rateZ)
	t.Verdicts = append(t.Verdicts, Verdict{
		Claim:    claim,
		Observed: fmt.Sprintf("%d/%d (lower bound %.3f)", events, trials, lo),
		Allowed:  fmt.Sprintf("≤ %.3f", allowed),
		Pass:     lo <= allowed,
	})
}

// Failed returns the verdicts that did not hold.
func (t *Table) Failed() []Verdict {
	var out []Verdict
	for _, v := range t.Verdicts {
		if !v.Pass {
			out = append(out, v)
		}
	}
	return out
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a formatted note line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&b, "claim: %s\n", t.Claim)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if pad := widths[i] - len(cell); pad > 0 && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	total := 0
	for _, wdt := range widths {
		total += wdt + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	for _, v := range t.Verdicts {
		b.WriteString(v.String())
		b.WriteByte('\n')
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// CSV writes the table as comma-separated values (no claim, notes or
// verdicts).
func (t *Table) CSV(w io.Writer) error {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(cell, ",\"\n") {
				cell = `"` + strings.ReplaceAll(cell, `"`, `""`) + `"`
			}
			b.WriteString(cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Driver runs one experiment.
type Driver func(Config) (*Table, error)

// Experiments enumerates every driver in document order; cmd/experiments
// and the benches iterate this registry.
func Experiments() []struct {
	ID   string
	Name string
	Run  Driver
} {
	return []struct {
		ID   string
		Name string
		Run  Driver
	}{
		{"T1", "Theorem 1 parameter sweep", T1Theorem1Sweep},
		{"T2", "Theorem 2 staged colors", T2Theorem2Staged},
		{"T3", "Theorem 3 high-radius regime", T3HighRadius},
		{"T4", "Headline (O(log n),O(log n)) scaling", T4HeadlineScaling},
		{"T5", "Strong vs weak: EN vs Linial–Saks", T5VersusLinialSaks},
		{"T6", "Lemma 1 truncation events", T6TruncationEvents},
		{"T7", "Claim 6 / Corollary 7 survival decay", T7SurvivalDecay},
		{"T8", "MPX padded partition", T8MPXPartition},
		{"T9", "Applications in O(D·chi) rounds", T9Applications},
		{"T10", "CONGEST message accounting", T10CongestAccounting},
		{"T11", "Neighborhood covers from decomposition", T11NeighborhoodCovers},
		{"T12", "Skeleton spanners from decomposition", T12Spanners},
		{"T13", "Sequential ball-carving yardstick", T13SequentialYardstick},
		{"T14", "Registry head-to-head sweep", T14RegistryHeadToHead},
		{"T15", "Dynamic churn repair vs recompute", T15ChurnRepair},
		{"A1", "Top-k forwarding ablation", A1ForwardingAblation},
	}
}

// Lookup returns the driver with the given ID, or nil.
func Lookup(id string) Driver {
	for _, e := range Experiments() {
		if strings.EqualFold(e.ID, id) {
			return e.Run
		}
	}
	return nil
}

// fmtInt renders an int cell.
func fmtInt(v int) string { return fmt.Sprintf("%d", v) }

// fmtF renders a float cell with sensible precision.
func fmtF(v float64) string {
	if v == float64(int64(v)) && v < 1e9 && v > -1e9 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.2f", v)
}
