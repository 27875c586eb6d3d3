package lint

import (
	"strings"
	"testing"
)

// TestRepoIsClean runs the full analyzer suite over the repository itself —
// the same check CI's `go run ./cmd/dbvet ./...` performs — so a regression
// in the linted tree fails plain `go test ./...` too.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide analysis skipped in -short mode")
	}
	loader, root, err := NewModuleLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	units, err := loader.LoadPatterns(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(units) == 0 {
		t.Fatal("no packages loaded")
	}
	diags, err := RunWithConfig(units, All(), RunConfig{ReportUnusedIgnores: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

func TestAnalyzerMetadata(t *testing.T) {
	seen := make(map[string]bool)
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" {
			t.Errorf("analyzer %+v lacks a name or doc", a)
		}
		if strings.ToLower(a.Name) != a.Name {
			t.Errorf("analyzer name %q must be lower-case for //dbvet:ignore", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if a.Run == nil {
			t.Errorf("analyzer %s has no Run function", a.Name)
		}
	}
}
