// Command dbvet is the repository's invariant checker: a multichecker in
// the spirit of golang.org/x/tools/go/analysis/multichecker, built on the
// standard library's go/ast + go/types so the module stays dependency-free
// and hermetic. It runs the six analyzers of internal/lint: the pin,
// context, error-kind, monitor-merge, plan-sharing and memory-budget
// invariants that the buffer pool, executor and engine boundary rely on.
//
// Usage:
//
//	go run ./cmd/dbvet ./...    # run every analyzer
//	go run ./cmd/dbvet -list    # describe the analyzers
//
// Findings print as file:line:col: message (analyzer). The exit status is 1
// when findings exist, 2 on usage or load errors.
//
// A finding can be suppressed by a `//dbvet:ignore` comment on the offending
// line or the line above, optionally naming analyzers and giving the reason
// after ` -- `: `//dbvet:ignore pinleak -- handed to the caller below`. Use
// it sparingly. dbvet also reports suppressions that no longer match any
// finding, so stale ignores cannot linger.
package main

import (
	"flag"
	"fmt"
	"os"

	"pagefeedback/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "describe the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dbvet [-list] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	wd, err := os.Getwd()
	if err != nil {
		fail(err)
	}
	loader, root, err := lint.NewModuleLoader(wd)
	if err != nil {
		fail(err)
	}
	units, err := loader.LoadPatterns(root, flag.Args())
	if err != nil {
		fail(err)
	}
	diags, err := lint.RunWithConfig(units, lint.All(), lint.RunConfig{ReportUnusedIgnores: true})
	if err != nil {
		fail(err)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// fail reports a usage or load error and exits with status 2.
func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
