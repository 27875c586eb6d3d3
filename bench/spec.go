package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// values holds measured metrics by name.
type values map[string]float64

func (v values) merge(o values) {
	for k, x := range o {
		v[k] = x
	}
}

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json. It is the one registry of metric names, units,
// directions and bounds: the program reads it instead of repeating it, so the
// file and the output cannot drift apart.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpec finds BENCHMARK.json in the working directory or one above it
// (go run -C bench leaves the program in bench/) and returns it with the
// directory it was found in.
func loadSpec() (*benchSpec, string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return nil, "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err != nil {
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, "", fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return &s, dir, nil
	}
	return nil, "", fmt.Errorf("BENCHMARK.json not found in %s or its parent", wd)
}

// outDir is where traces and result files go: <root>/bench/out.
func outDir(root string) (string, error) {
	dir := filepath.Join(root, "bench", "out")
	return dir, os.MkdirAll(dir, 0o755)
}

// pick returns the values of the listed metrics, failing on one the
// measurement did not produce.
func pick(specs []metricSpec, v values) (values, error) {
	out := values{}
	for _, m := range specs {
		x, ok := v[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is in BENCHMARK.json but was not measured", m.Name)
		}
		out[m.Name] = x
	}
	return out, nil
}

// printMetrics writes "workload name value unit" lines in BENCHMARK.json's
// order.
func printMetrics(w io.Writer, workload string, specs []metricSpec, v values) {
	for _, m := range specs {
		fmt.Fprintf(w, "%-15s %-34s %16.6f %s\n", workload, m.Name, v[m.Name], m.Unit)
	}
}

// shapeLines renders a plan-shape histogram, most frequent first.
func shapeLines(shapes map[string]int) []string {
	keys := make([]string, 0, len(shapes))
	for k := range shapes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if shapes[keys[a]] != shapes[keys[b]] {
			return shapes[keys[a]] > shapes[keys[b]]
		}
		return keys[a] < keys[b]
	})
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = fmt.Sprintf("%5d  %s", shapes[k], k)
	}
	return out
}
