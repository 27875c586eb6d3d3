// Package lint is dbvet's analysis framework: a small, dependency-free
// re-implementation of the golang.org/x/tools go/analysis surface, just wide
// enough for this repository's invariant checkers.
//
// The analyzers (one per file) machine-check invariants that no runtime test
// pins down deterministically:
//
//   - pinleak:      every pinned page reaches Unpin on all control-flow paths
//   - ctxflow:      context.Context flows from the engine entry points
//   - errkind:      errors crossing the engine boundary are typed *QueryError
//   - monitormerge: monitor counting types are mergeable and their Merge
//     methods carry a reviewed `dbvet:commutative` claim
//   - planshare:    plan-node fields are written only by the plan and opt
//     packages, keeping cached plan templates immutable
//   - membudget:    exec operators charge exec.MemTracker before growing
//     build-side slices or maps
//
// pinleak and membudget are path-sensitive: they run on a shared CFG +
// dataflow core (cfg.go, dataflow.go) mirroring golang.org/x/tools/go/cfg,
// and membudget sees charges through helpers via per-function summaries
// (summary.go).
//
// The framework intentionally mirrors go/analysis (Analyzer, Pass, Reportf,
// analysistest-style fixtures under testdata/src) so the checkers could move
// onto x/tools unchanged; it is self-contained only because this repository
// builds hermetically with zero external module dependencies.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one invariant checker. It mirrors the go/analysis Analyzer
// shape: a name that appears in diagnostics and suppression comments, a doc
// string shown by `dbvet -help`, and a Run function invoked once per package.
type Analyzer struct {
	// Name identifies the analyzer in output and in //dbvet:ignore comments.
	Name string
	// Doc is a one-paragraph description of the invariant.
	Doc string
	// Run analyzes one package, reporting findings through pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one package's ASTs and type information to an analyzer,
// mirroring go/analysis.Pass.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	unit   *Unit
	report func(u *Unit, pos token.Pos, format string, args ...any)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(p.unit, pos, format, args...)
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// RunConfig tunes a Run.
type RunConfig struct {
	// ReportUnusedIgnores adds a diagnostic (analyzer "deadignore") for
	// every //dbvet:ignore directive that suppressed nothing. dbvet always
	// sets it; single-analyzer fixture runs leave it off. A directive aimed
	// only at analyzers that did not run is not evidence of staleness, so a
	// named directive is only reported when one of its analyzers ran.
	ReportUnusedIgnores bool
}

// Run executes the analyzers over the loaded units and returns the surviving
// diagnostics, sorted by position. Findings on lines carrying a
// //dbvet:ignore comment (or whose preceding line is such a comment) are
// suppressed; `//dbvet:ignore` mutes every analyzer on that line,
// `//dbvet:ignore pinleak,ctxflow` only the named ones. The names end at a
// ` -- ` separator; the rest of the comment is the reason:
// `//dbvet:ignore pinleak -- handed to the caller below`.
func Run(units []*Unit, analyzers []*Analyzer) ([]Diagnostic, error) {
	return RunWithConfig(units, analyzers, RunConfig{})
}

// RunWithConfig is Run with explicit configuration.
func RunWithConfig(units []*Unit, analyzers []*Analyzer, cfg RunConfig) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		report := func(u *Unit, pos token.Pos, format string, args ...any) {
			diags = append(diags, Diagnostic{
				Pos:      u.Fset.Position(pos),
				Analyzer: a.Name,
				Message:  fmt.Sprintf(format, args...),
			})
		}
		for _, u := range units {
			pass := &Pass{
				Analyzer: a,
				Fset:     u.Fset,
				Files:    u.Files,
				Pkg:      u.Pkg,
				Info:     u.Info,
				unit:     u,
				report:   report,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, u.PkgPath, err)
			}
		}
	}
	ignores := collectIgnores(units)
	diags = filterSuppressed(diags, ignores)
	if cfg.ReportUnusedIgnores {
		ran := make(map[string]bool, len(analyzers))
		for _, a := range analyzers {
			ran[a.Name] = true
		}
		diags = append(diags, unusedIgnores(ignores, ran)...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// ignoreDirective is the comment prefix that suppresses findings.
const ignoreDirective = "//dbvet:ignore"

// ignoreEntry is one //dbvet:ignore directive found in the sources.
type ignoreEntry struct {
	pos   token.Position
	names []string // analyzers the directive names; empty = all
	used  bool     // suppressed at least one diagnostic this run
}

// collectIgnores gathers every //dbvet:ignore directive.
func collectIgnores(units []*Unit) []*ignoreEntry {
	var entries []*ignoreEntry
	for _, u := range units {
		for _, f := range u.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, ignoreDirective) {
						continue
					}
					rest := strings.TrimPrefix(c.Text, ignoreDirective)
					var names []string
					for _, n := range strings.FieldsFunc(rest, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' }) {
						if n == "--" { // the reason follows
							break
						}
						names = append(names, n)
					}
					entries = append(entries, &ignoreEntry{
						pos:   u.Fset.Position(c.Pos()),
						names: names,
					})
				}
			}
		}
	}
	return entries
}

// filterSuppressed drops diagnostics muted by //dbvet:ignore comments,
// marking the directives that did the muting as used.
func filterSuppressed(diags []Diagnostic, ignores []*ignoreEntry) []Diagnostic {
	// byLine maps filename -> line -> directives on that line.
	byLine := make(map[string]map[int][]*ignoreEntry)
	for _, e := range ignores {
		m := byLine[e.pos.Filename]
		if m == nil {
			m = make(map[int][]*ignoreEntry)
			byLine[e.pos.Filename] = m
		}
		m[e.pos.Line] = append(m[e.pos.Line], e)
	}
	matches := func(d Diagnostic, line int) bool {
		for _, e := range byLine[d.Pos.Filename][line] {
			if len(e.names) == 0 {
				e.used = true
				return true
			}
			for _, n := range e.names {
				if n == d.Analyzer {
					e.used = true
					return true
				}
			}
		}
		return false
	}
	out := diags[:0]
	for _, d := range diags {
		if matches(d, d.Pos.Line) || matches(d, d.Pos.Line-1) {
			continue
		}
		out = append(out, d)
	}
	return out
}

// unusedIgnores reports directives that suppressed nothing. A suppression
// that outlives the finding it was written for hides the NEXT regression at
// that line, so staleness is itself a finding. ran is the set of analyzer
// names that executed: a named directive is judged only when one of its
// analyzers ran, and names that are not analyzers at all are reported as
// typos unconditionally.
func unusedIgnores(ignores []*ignoreEntry, ran map[string]bool) []Diagnostic {
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	var out []Diagnostic
	for _, e := range ignores {
		if e.used {
			continue
		}
		judgeable := len(e.names) == 0 // a blanket directive is judged by any run
		for _, n := range e.names {
			if !known[n] {
				out = append(out, Diagnostic{
					Pos:      e.pos,
					Analyzer: "deadignore",
					Message:  fmt.Sprintf("//dbvet:ignore names unknown analyzer %q", n),
				})
			}
			if ran[n] {
				judgeable = true
			}
		}
		if !judgeable {
			continue
		}
		what := "any analyzer"
		if len(e.names) > 0 {
			what = strings.Join(e.names, ", ")
		}
		out = append(out, Diagnostic{
			Pos:      e.pos,
			Analyzer: "deadignore",
			Message:  fmt.Sprintf("unused //dbvet:ignore directive: no finding from %s is suppressed here; stale suppressions hide the next regression", what),
		})
	}
	return out
}

// All returns the full analyzer suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{
		PinLeakAnalyzer,
		CtxFlowAnalyzer,
		ErrKindAnalyzer,
		MonitorMergeAnalyzer,
		PlanShareAnalyzer,
		MemBudgetAnalyzer,
	}
}
