package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestUnusedIgnoreReporting runs the deadignore fixture through
// RunWithConfig (runFixture deliberately keeps ReportUnusedIgnores off so
// single-analyzer fixtures can carry unrelated suppressions) and checks the
// exact staleness findings.
func TestUnusedIgnoreReporting(t *testing.T) {
	srcRoot, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewTreeLoader(srcRoot).Load("deadignore")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunWithConfig([]*Unit{u}, []*Analyzer{CtxFlowAnalyzer}, RunConfig{ReportUnusedIgnores: true})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range diags {
		if d.Analyzer != "deadignore" {
			t.Errorf("non-deadignore diagnostic leaked through: %s", d)
			continue
		}
		got = append(got, d.Message)
	}
	if len(got) != 2 {
		t.Fatalf("want 2 deadignore diagnostics, got %d: %v", len(got), got)
	}
	if !strings.Contains(got[0], "unused //dbvet:ignore directive: no finding from ctxflow is suppressed") {
		t.Errorf("first diagnostic should flag the unused ctxflow directive, got %q", got[0])
	}
	if !strings.Contains(got[1], `unknown analyzer "ctxflw"`) {
		t.Errorf("second diagnostic should flag the typo, got %q", got[1])
	}

	// The same fixture under Run (no config) must stay silent about ignores.
	plain, err := Run([]*Unit{u}, []*Analyzer{CtxFlowAnalyzer})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range plain {
		t.Errorf("Run without config reported: %s", d)
	}
}
