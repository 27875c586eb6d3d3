package pagefeedback

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"

	"pagefeedback/internal/core"
	"pagefeedback/internal/expr"
	"pagefeedback/internal/tuple"
)

// Feedback persistence: the observations gathered in one session — the
// (expression, cardinality, DPC) cache and the self-tuning page-count
// histograms — can be exported as JSON and imported into a later session,
// the "learn about errors ... and correct execution plans" loop of §II-C
// made durable.

// feedbackDump is the serialized form.
type feedbackDump struct {
	Version    int                 `json:"version"`
	Entries    []feedbackEntryJSON `json:"entries"`
	Histograms []histogramDumpJSON `json:"histograms"`
	JoinCurves []joinCurveDumpJSON `json:"joinCurves,omitempty"`
}

type joinCurveDumpJSON struct {
	Table   string              `json:"table"`
	JoinCol string              `json:"joinCol"`
	Points  []core.JoinDPCPoint `json:"points"`
}

type feedbackEntryJSON struct {
	Table       string     `json:"table"`
	Atoms       []atomJSON `json:"atoms"`
	Cardinality int64      `json:"cardinality"`
	DPC         int64      `json:"dpc"`
	Mechanism   string     `json:"mechanism"`
	Exact       bool       `json:"exact"`
}

type atomJSON struct {
	Col  string    `json:"col"`
	Op   string    `json:"op"`
	Val  valJSON   `json:"val"`
	Val2 *valJSON  `json:"val2,omitempty"`
	List []valJSON `json:"list,omitempty"`
}

type valJSON struct {
	Kind string `json:"kind"` // "int", "str", "date"
	Int  int64  `json:"int,omitempty"`
	Str  string `json:"str,omitempty"`
}

type histogramDumpJSON struct {
	Table        string                `json:"table"`
	Column       string                `json:"column"`
	Observations []core.DPCObservation `json:"observations"`
}

func valueToJSON(v tuple.Value) valJSON {
	switch v.Kind {
	case tuple.KindString:
		return valJSON{Kind: "str", Str: v.Str}
	case tuple.KindDate:
		return valJSON{Kind: "date", Int: v.Int}
	default:
		return valJSON{Kind: "int", Int: v.Int}
	}
}

func valueFromJSON(v valJSON) (tuple.Value, error) {
	switch v.Kind {
	case "str":
		return tuple.Str(v.Str), nil
	case "date":
		return tuple.Date(v.Int), nil
	case "int":
		return tuple.Int64(v.Int), nil
	default:
		return tuple.Value{}, fmt.Errorf("pagefeedback: unknown value kind %q", v.Kind)
	}
}

func opFromString(s string) (expr.CmpOp, error) {
	for _, op := range []expr.CmpOp{expr.Eq, expr.Ne, expr.Lt, expr.Le, expr.Gt, expr.Ge, expr.Between, expr.In} {
		if op.String() == s {
			return op, nil
		}
	}
	return 0, fmt.Errorf("pagefeedback: unknown operator %q", s)
}

// ExportFeedback writes the current feedback state as JSON: the feedback
// cache's entries in key order, then the optimizer's histograms and join
// curves in (table, column) order, so two engines with identical learned
// state produce byte-identical dumps and successive dumps diff cleanly.
func (e *Engine) ExportFeedback(w io.Writer) error {
	dump := feedbackDump{Version: 1}
	for _, en := range e.cache.Entries() {
		ej := feedbackEntryJSON{
			Table:       en.Table,
			Cardinality: en.Cardinality,
			DPC:         en.DPC,
			Mechanism:   en.Mechanism,
			Exact:       en.Exact,
		}
		for _, a := range en.Pred.Atoms {
			aj := atomJSON{Col: a.Col, Op: a.Op.String(), Val: valueToJSON(a.Val)}
			if a.Op == expr.Between {
				v2 := valueToJSON(a.Val2)
				aj.Val2 = &v2
			}
			for _, lv := range a.List {
				aj.List = append(aj.List, valueToJSON(lv))
			}
			ej.Atoms = append(ej.Atoms, aj)
		}
		dump.Entries = append(dump.Entries, ej)
	}
	for _, h := range e.opt.DPCHistograms() {
		dump.Histograms = append(dump.Histograms, histogramDumpJSON{
			Table: h.Table, Column: h.Column, Observations: h.Stat.Observations(),
		})
	}
	for _, c := range e.opt.JoinDPCCurves() {
		dump.JoinCurves = append(dump.JoinCurves, joinCurveDumpJSON{
			Table: c.Table, JoinCol: c.Column, Points: c.Stat.Points(),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(dump)
}

// ExportFeedbackToFile atomically writes the feedback dump to path: the
// JSON is written to a temporary file in the same directory, synced, and
// renamed over the destination. A crash or write fault mid-export leaves
// any existing dump at path untouched — a half-written feedback file read
// back next session would silently poison the optimizer.
func (e *Engine) ExportFeedbackToFile(path string) error {
	return writeFileAtomic(path, e.ExportFeedback)
}

// ImportFeedbackFromFile loads a feedback dump written by
// ExportFeedbackToFile (or any ExportFeedback output).
func (e *Engine) ImportFeedbackFromFile(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return e.ImportFeedback(f)
}

// writeFileAtomic streams write's output into a temp file next to path and
// renames it into place only after a successful write and sync. On any
// failure the temp file is removed and path is left as it was. After the
// rename the parent directory is synced too: the rename itself lives in the
// directory, and without the directory fsync a crash can durably keep the
// old file, the new file, or — on some filesystems — neither name.
func writeFileAtomic(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a rename inside it is durable. Platforms
// whose directory handles reject Sync (it is optional in POSIX) degrade to
// the pre-sync guarantee rather than failing the export.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return fmt.Errorf("pagefeedback: sync %s: %w", dir, err)
	}
	return nil
}

// ImportFeedback loads a JSON dump produced by ExportFeedback, storing the
// entries in the cache stamped with each table's current version (the dump
// carries none), injecting the page counts the cache keeps, and replaying
// the histogram and join-curve observations. It returns the number of
// entries loaded.
//
// The import is two-phase: the whole dump is decoded and validated before
// anything touches the engine, so a malformed dump — unknown operator or
// value kind, negative counts, two entries for one expression or two
// records for one histogram or join curve, a version from the future — is
// rejected wholesale and never half-poisons the cache or the optimizer.
func (e *Engine) ImportFeedback(r io.Reader) (int, error) {
	var dump feedbackDump
	if err := json.NewDecoder(r).Decode(&dump); err != nil {
		return 0, err
	}
	if dump.Version != 1 {
		return 0, fmt.Errorf("pagefeedback: unsupported feedback dump version %d", dump.Version)
	}
	// Phase 1: validate and build, touching no engine state.
	pending := make([]core.FeedbackEntry, 0, len(dump.Entries))
	// Each expression, histogram and join curve may appear once: a second
	// record would be merged into the first and exported as one.
	seen := make(map[string]bool)
	dup := func(key string) error {
		if seen[key] {
			return fmt.Errorf("pagefeedback: duplicate %s", key)
		}
		seen[key] = true
		return nil
	}
	for i, ej := range dump.Entries {
		if ej.Table == "" {
			return 0, fmt.Errorf("pagefeedback: entry %d has no table", i)
		}
		if len(ej.Atoms) == 0 {
			return 0, fmt.Errorf("pagefeedback: entry %d (%s) has no predicate", i, ej.Table)
		}
		if ej.DPC < 0 || ej.Cardinality < 0 {
			return 0, fmt.Errorf("pagefeedback: entry %d (%s) has negative counts (dpc=%d, cardinality=%d)",
				i, ej.Table, ej.DPC, ej.Cardinality)
		}
		var pred expr.Conjunction
		for _, aj := range ej.Atoms {
			op, err := opFromString(aj.Op)
			if err != nil {
				return 0, err
			}
			v, err := valueFromJSON(aj.Val)
			if err != nil {
				return 0, err
			}
			a := expr.Atom{Col: aj.Col, Op: op, Val: v}
			if op == expr.Between {
				if aj.Val2 == nil {
					return 0, fmt.Errorf("pagefeedback: entry %d (%s): BETWEEN without an upper bound", i, ej.Table)
				}
			}
			if aj.Val2 != nil {
				v2, err := valueFromJSON(*aj.Val2)
				if err != nil {
					return 0, err
				}
				a.Val2 = v2
			}
			for _, lv := range aj.List {
				v, err := valueFromJSON(lv)
				if err != nil {
					return 0, err
				}
				a.List = append(a.List, v)
			}
			pred.Atoms = append(pred.Atoms, a)
		}
		if err := dup("entry for " + core.Key(ej.Table, pred)); err != nil {
			return 0, err
		}
		pending = append(pending, core.FeedbackEntry{
			Table: ej.Table, Pred: pred,
			Cardinality: ej.Cardinality, DPC: ej.DPC,
			Mechanism: ej.Mechanism, Exact: ej.Exact,
		})
	}
	for _, hd := range dump.Histograms {
		if hd.Table == "" || hd.Column == "" {
			return 0, fmt.Errorf("pagefeedback: histogram dump without table/column")
		}
		if err := dup("histogram for " + strings.ToLower(hd.Table) + "|" + strings.ToLower(hd.Column)); err != nil {
			return 0, err
		}
		for _, o := range hd.Observations {
			if o.Rows < 0 || o.DPC < 0 || o.Hi < o.Lo {
				return 0, fmt.Errorf("pagefeedback: invalid observation for %s.%s: %+v", hd.Table, hd.Column, o)
			}
		}
	}
	for _, cd := range dump.JoinCurves {
		if cd.Table == "" || cd.JoinCol == "" {
			return 0, fmt.Errorf("pagefeedback: join curve dump without table/column")
		}
		if err := dup("join curve for " + strings.ToLower(cd.Table) + "|" + strings.ToLower(cd.JoinCol)); err != nil {
			return 0, err
		}
		for _, p := range cd.Points {
			if p.Rows < 0 || p.DPC < 0 {
				return 0, fmt.Errorf("pagefeedback: invalid join point for %s.%s: %+v", cd.Table, cd.JoinCol, p)
			}
		}
	}
	// Phase 2: apply. Nothing below can fail.
	for _, en := range pending {
		e.learn(en)
	}
	for _, hd := range dump.Histograms {
		for _, o := range hd.Observations {
			e.opt.RecordDPCObservation(hd.Table, hd.Column, o.Lo, o.Hi, o.Rows, o.DPC)
		}
	}
	for _, cd := range dump.JoinCurves {
		for _, p := range cd.Points {
			e.opt.RecordJoinDPCObservation(cd.Table, cd.JoinCol, p.Rows, p.DPC)
		}
	}
	return len(pending), nil
}
