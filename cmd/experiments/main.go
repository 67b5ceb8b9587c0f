// Command experiments runs the experiment drivers of internal/harness:
// every theorem, lemma and claim of the paper is mapped to one experiment
// (see DESIGN.md section 6). It prints each table with the measured values
// next to the bounds and one PASS/FAIL line per checked claim, and exits 1
// naming every claim that failed.
//
// Examples:
//
//	experiments                 # all experiments at small scale
//	experiments -full           # full scale (minutes)
//	experiments -run T5,A1      # a subset
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

// experiments is the driver registry run iterates; a test substitutes
// one whose verdict fails.
var experiments = harness.Experiments

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	full := fs.Bool("full", false, "run at full scale (minutes)")
	runList := fs.String("run", "all", "comma-separated experiment IDs (T1..T15, A1) or 'all'")
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
	var failed []string
	for _, e := range experiments() {
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
		for _, v := range tab.Failed() {
			failed = append(failed, e.ID+": "+v.String())
		}
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no experiment matches -run=%q", *runList)
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d verdicts failed:\n%s", len(failed), strings.Join(failed, "\n"))
	}
	return nil
}
