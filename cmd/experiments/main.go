// Command experiments regenerates the tables and figures of
// EXPERIMENTS.md: every theorem, lemma and claim of the paper is mapped to
// one experiment (see DESIGN.md section 6), and this command runs them and
// prints the measured values next to the bounds.
//
// Examples:
//
//	experiments                 # all experiments at small scale
//	experiments -full           # the EXPERIMENTS.md numbers (slower)
//	experiments -run T5,F3      # a subset
//	experiments -run T1 -csv    # machine-readable output
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"netdecomp/internal/harness"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	full := fs.Bool("full", false, "run at full scale (EXPERIMENTS.md numbers)")
	runList := fs.String("run", "all", "comma-separated experiment IDs (T1..T15, A1, F1..F3) or 'all'")
	seed := fs.Uint64("seed", 1, "master seed")
	trials := fs.Int("trials", 0, "override trials per configuration (0 = scale default)")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := harness.Config{Scale: harness.ScaleSmall, Seed: *seed, Trials: *trials}
	if *full {
		cfg.Scale = harness.ScaleFull
	}

	wanted := map[string]bool{}
	all := strings.EqualFold(*runList, "all")
	if !all {
		for _, id := range strings.Split(*runList, ",") {
			wanted[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}

	ran := 0
	for _, e := range harness.Experiments() {
		if !all && !wanted[e.ID] {
			continue
		}
		start := time.Now()
		tab, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if *csv {
			if err := tab.CSV(w); err != nil {
				return err
			}
		} else {
			if err := tab.Render(w); err != nil {
				return err
			}
			fmt.Fprintf(w, "(%s in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no experiment matches -run=%q", *runList)
	}
	return nil
}
