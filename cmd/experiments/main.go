// Command experiments regenerates the paper's evaluation tables and
// figures against the simulated engine.
//
// Usage:
//
//	experiments [-rows N] [-realscale F] [-seed S] [-sample F] [table1|fig6|fig7|fig8|fig9|fig10|fig11|bitvector|estimators|dpsample|bitmap|poolsize|transfer|all]
//
// With no experiment names, everything runs. Output goes to stdout in the
// same row/series structure the paper reports, one blank line between
// experiments, so one experiment's output is exactly what it printed.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pagefeedback/internal/experiments"
)

func main() {
	def := experiments.DefaultConfig()
	rows := flag.Int("rows", def.SyntheticRows, "synthetic table rows (paper: 100M)")
	realScale := flag.Float64("realscale", def.RealScale, "real-database scale relative to 1:100 of Table I")
	seed := flag.Int64("seed", def.Seed, "data-generation and sampling seed")
	sample := flag.Float64("sample", def.SampleFraction, "DPSample page-sampling fraction")
	flag.Parse()

	cfg := experiments.Config{
		SyntheticRows:  *rows,
		RealScale:      *realScale,
		Seed:           *seed,
		SampleFraction: *sample,
		Out:            os.Stdout,
	}

	all := []string{"table1", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
		"bitvector", "estimators", "dpsample", "bitmap", "poolsize", "transfer"}
	names := flag.Args()
	if len(names) == 0 || (len(names) == 1 && strings.EqualFold(names[0], "all")) {
		names = all
	}

	runners := map[string]func() error{
		"table1": func() error { _, err := experiments.TableI(cfg); return err },
		"fig6":   func() error { _, err := experiments.Fig6(cfg); return err },
		"fig7":   func() error { _, err := experiments.Fig7(cfg); return err },
		"fig8":   func() error { _, err := experiments.Fig8(cfg); return err },
		"fig9":   func() error { _, err := experiments.Fig9(cfg); return err },
		"fig10": func() error {
			_, _, _, err := experiments.Fig10(cfg)
			return err
		},
		"fig11":      func() error { _, err := experiments.Fig11(cfg); return err },
		"bitvector":  func() error { _, err := experiments.BitvectorAccuracy(cfg); return err },
		"estimators": func() error { _, err := experiments.EstimatorComparison(cfg); return err },
		"dpsample":   func() error { _, err := experiments.DPSampleError(cfg); return err },
		"bitmap":     func() error { _, err := experiments.BitmapSizeAblation(cfg); return err },
		"poolsize":   func() error { _, err := experiments.PoolSizeAblation(cfg); return err },
		"transfer":   func() error { _, err := experiments.SelfTuningTransfer(cfg); return err },
	}

	for i, name := range names {
		run, ok := runners[strings.ToLower(name)]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; choose from: %s\n", name, strings.Join(all, " "))
			os.Exit(2)
		}
		if i > 0 {
			fmt.Println()
		}
		if err := run(); err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", name, err)
			os.Exit(1)
		}
	}
}
