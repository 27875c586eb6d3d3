package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// driverResult is the one JSON object a driver run prints last.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverRun measures one workload for the driver: --trace 0 prints every
// end-to-end metric, --trace 1 every per-layer metric.
func driverRun(name string, seed int64, seconds, traced int) error {
	spec, root, err := loadSpec()
	if err != nil {
		return err
	}
	w := workloadByName(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		seconds = spec.RunSeconds
	}
	d := time.Duration(seconds) * time.Second

	var v values
	var t *tally
	specs := spec.EndToEnd
	if traced == 0 {
		if v, t, err = runEndToEnd(w, fullRows, seed, d); err == nil {
			fmt.Printf("%-15s as the clock read, at machine factor %.3f: qps %.4f, p50 %.6f ms, p95 %.6f ms\n",
				w.name, v[rawFactor], v[rawQPS], v[rawP50], v[rawP95])
		}
	} else {
		specs = spec.PerLayer
		var dir string
		if dir, err = outDir(root); err != nil {
			return err
		}
		v, t, err = runLayers(w, fullRows, seed, d, dir)
	}
	if err != nil {
		return err
	}
	picked, err := pick(specs, v)
	if err != nil {
		return err
	}
	for _, n := range t.notes {
		fmt.Fprintln(os.Stderr, "bench: FAILED:", n)
	}
	printMetrics(os.Stdout, w.name, specs, picked)
	res := driverResult{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed,
		Metrics: make(map[string]driverValue, len(specs))}
	for _, m := range specs {
		res.Metrics[m.Name] = driverValue{Value: picked[m.Name], Unit: m.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
