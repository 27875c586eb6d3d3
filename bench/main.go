// Command bench is the repository's benchmark: five workloads measured from
// outside the engine on two clocks, with per-layer numbers. See README.md.
//
//	go run -C bench . -seed 1          # every workload, all three passes
//	go run -C bench . -aa              # the suite twice, compared pairwise
//	go run -C bench . --workload W --seed N --seconds S --trace 0|1
//
// The last form is what BENCHMARK.json's driver runs: one workload, one JSON
// object on the last line of standard output.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		name    = flag.String("workload", "", "run one workload for the driver (default: the whole suite)")
		seed    = flag.Int64("seed", 1, "seed for the generated data and op lists")
		seconds = flag.Int("seconds", 0, "with -workload: length of the measured pass")
		traced  = flag.Int("trace", 0, "with -workload: 0 prints end-to-end metrics, 1 per-layer metrics")
		aa      = flag.Bool("aa", false, "run the suite twice and compare the two runs against the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	var err error
	switch {
	case *name != "":
		err = driverRun(*name, *seed, *seconds, *traced)
	case *aa:
		err = suiteAA(*seed)
	default:
		_, err = suiteRun(*seed, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
