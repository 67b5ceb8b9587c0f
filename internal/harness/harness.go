// Package harness implements the experiment drivers that regenerate every
// table and figure of EXPERIMENTS.md. The paper is an extended abstract
// with no empirical section, so each experiment reproduces the *shape* of
// one theorem, lemma or claim (see DESIGN.md section 6 for the mapping):
// measured quantities are printed next to the bound the paper proves, and
// the recorded expectation is that the measurement respects the bound and
// scales the same way.
//
// Every driver is deterministic in Config.Seed and comes in two sizes:
// ScaleSmall (seconds; used by the bench_test.go targets and CI) and
// ScaleFull (the numbers recorded in EXPERIMENTS.md).
package harness

import (
	"fmt"
	"io"
	"strings"
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

// Table is one reproduced table or figure: a titled grid of cells plus the
// paper claim it is checked against.
type Table struct {
	// ID is the experiment identifier (T1..T15, A1, F1..F3).
	ID string
	// Title is the human-readable headline.
	Title string
	// Claim quotes the bound or behaviour the paper promises.
	Claim string
	// Columns and Rows hold the rendered grid.
	Columns []string
	Rows    [][]string
	// Notes hold derived observations (fitted exponents, violation
	// counts) appended below the grid.
	Notes []string
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
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// CSV writes the table as comma-separated values (no claim/notes).
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
		{"F1", "Survival fraction curve", F1SurvivalCurve},
		{"F2", "Diameter/colors tradeoff frontier", F2TradeoffFrontier},
		{"F3", "Rounds scaling at k = ceil(ln n)", F3RoundsScaling},
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
