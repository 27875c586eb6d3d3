package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// The suite's run lengths are fixed here, not flags: every number it prints
// was measured the same way.
const (
	suiteRounds = 12
	suiteSlice  = 2400 * time.Millisecond
	suiteLayers = 10 * time.Second // traced-pass budget per workload
)

// stamp is the metadata every result block carries.
type stamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUs       int    `json:"cpus"`
	Seed       int64  `json:"seed"`
	Rows       int    `json:"rows"`
	Timed      string `json:"timed"` // slice length × rounds
	When       string `json:"when"`
}

// workloadResult is one workload's block.
type workloadResult struct {
	Workload     string         `json:"workload"`
	Clients      int            `json:"clients"`
	GOMAXPROCS   int            `json:"gomaxprocs"` // in force while the workload ran
	DatasetPages int64          `json:"dataset_pages"`
	Attempted    int            `json:"attempted"`
	Failed       int            `json:"failed"`
	FailRatio    float64        `json:"fail_ratio"`
	Samples      int            `json:"latency_samples"`
	EndToEnd     values         `json:"end_to_end"`
	PerLayer     values         `json:"per_layer"`
	PlanShapes   map[string]int `json:"plan_shapes"`
}

type suiteResult struct {
	Stamp     stamp            `json:"stamp"`
	Workloads []workloadResult `json:"workloads"`
}

// commit is the source revision: from the build info when the toolchain
// stamped it, else from git, else "unknown" (the driver's checkouts are not
// repositories).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// suiteRun measures every workload — counted, timed (slices interleaved
// across workloads, because the machine's speed drifts over minutes) and
// traced — prints every metric and fails if any answer was wrong.
func suiteRun(seed int64, out io.Writer) (*suiteResult, error) {
	spec, root, err := loadSpec()
	if err != nil {
		return nil, err
	}
	dir, err := outDir(root)
	if err != nil {
		return nil, err
	}
	res := &suiteResult{Stamp: stamp{
		Commit: commit(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPUs: runtime.NumCPU(),
		Seed: seed, Rows: fullRows, Timed: fmt.Sprintf("%v x %d", suiteSlice, suiteRounds),
		When: time.Now().UTC().Format(time.RFC3339),
	}}
	fmt.Fprintf(out, "# commit %s  %s  GOMAXPROCS %d  cpus %d  seed %d  rows %d  timed %s\n",
		res.Stamp.Commit, res.Stamp.GoVersion, res.Stamp.GOMAXPROCS, res.Stamp.CPUs, seed, fullRows, res.Stamp.Timed)

	ws := workloads()
	beds := make([]*bed, len(ws))
	setups := make([]float64, len(ws))
	counts := make([]*counted, len(ws))
	tallies := make([]*tally, len(ws))
	for i, w := range ws {
		if beds[i], setups[i], err = prepare(w, fullRows, seed, setupRepeats); err != nil {
			return nil, err
		}
		if err := beds[i].warmUp(); err != nil {
			return nil, err
		}
		counts[i] = beds[i].countedPass()
		tallies[i] = &tally{}
		tallies[i].add(counts[i].ops, counts[i].failed, counts[i].notes...)
		fmt.Fprintf(out, "# %s: set up in %.2f s, counted pass done\n", w.name, setups[i])
	}
	slices := make([][]slice, len(ws))
	for r := 0; r < suiteRounds; r++ {
		for i, b := range beds {
			s := b.timedSlice(suiteSlice, b.w.clients)
			tallies[i].add(len(s.latencies), s.failed)
			slices[i] = append(slices[i], s)
		}
	}
	failed := 0
	for i, b := range beds {
		layers, lt, err := layerValues(b, counts[i], suiteLayers, dir)
		if err != nil {
			return nil, err
		}
		tallies[i].add(lt.attempted, lt.failed, lt.notes...)
		e2e, err := pick(spec.EndToEnd, endToEndValues(setups[i], counts[i], slices[i]))
		if err != nil {
			return nil, err
		}
		if layers, err = pick(spec.PerLayer, layers); err != nil {
			return nil, err
		}
		t := tallies[i]
		wr := workloadResult{
			Workload: b.w.name, Clients: b.w.clients, GOMAXPROCS: runtime.GOMAXPROCS(0), DatasetPages: b.dataPages,
			Attempted: t.attempted, Failed: t.failed, FailRatio: float64(t.failed) / float64(t.attempted),
			Samples: summarize(slices[i]).samples, EndToEnd: e2e, PerLayer: layers, PlanShapes: counts[i].shapes,
		}
		res.Workloads = append(res.Workloads, wr)
		failed += t.failed

		fmt.Fprintf(out, "\n## %s  clients %d  GOMAXPROCS %d  dataset pages %d  attempted %d  failed %d  latency samples %d\n",
			wr.Workload, wr.Clients, wr.GOMAXPROCS, wr.DatasetPages, wr.Attempted, wr.Failed, wr.Samples)
		fmt.Fprintf(out, "%-15s %-34s %16.6f %s\n", wr.Workload, "fail_ratio", wr.FailRatio, "ratio")
		printMetrics(out, wr.Workload, spec.EndToEnd, e2e)
		printMetrics(out, wr.Workload, spec.PerLayer, layers)
		if layers["exec.parallel_degree"] < 2 && b.w.name == "analytic_diag" {
			fmt.Fprintf(out, "%-15s exec.parallel_speedup: n/a (cpus < 2): the workload ran serial\n", wr.Workload)
		}
		for _, line := range shapeLines(wr.PlanShapes) {
			fmt.Fprintf(out, "%-15s plan %s\n", wr.Workload, line)
		}
		for _, n := range t.notes {
			fmt.Fprintf(out, "%-15s FAILED %s\n", wr.Workload, n)
		}
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "result.json"), data, 0o644); err != nil {
		return nil, err
	}
	if failed > 0 {
		return res, fmt.Errorf("%d operations failed: fail_ratio > 0", failed)
	}
	return res, nil
}

// suiteAA runs the suite twice and holds every workload × end-to-end metric
// pair to the metric's bound.
func suiteAA(seed int64) error {
	spec, _, err := loadSpec()
	if err != nil {
		return err
	}
	var runs [2]*suiteResult
	for i := range runs {
		if runs[i], err = suiteRun(seed, io.Discard); err != nil {
			return fmt.Errorf("run %d: %w", i+1, err)
		}
	}
	fmt.Printf("%-15s %-20s %14s %14s %9s %7s\n", "workload", "metric", "run 1", "run 2", "diff", "bound")
	outside := 0
	for i, w := range runs[0].Workloads {
		for _, m := range spec.EndToEnd {
			a, b := w.EndToEnd[m.Name], runs[1].Workloads[i].EndToEnd[m.Name]
			diff := math.Abs(b-a) / math.Abs(a)
			mark := ""
			if diff > m.Bound {
				mark = "  OUTSIDE"
				outside++
			}
			fmt.Printf("%-15s %-20s %14.6f %14.6f %8.2f%% %6.1f%%%s\n", w.Workload, m.Name, a, b, 100*diff, 100*m.Bound, mark)
		}
	}
	if outside > 0 {
		return fmt.Errorf("%d workload x metric pairs differ by more than their bound", outside)
	}
	return nil
}
