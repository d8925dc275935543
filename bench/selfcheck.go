package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// manifest is the part of BENCHMARK.json the harness reads back.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(path string) (*manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// runSelfcheck is an A/A test of the benchmark itself: every workload
// is run twice on the same binaries with the same seed, the second pass
// in reverse order, and each end-to-end metric's relative difference is
// printed beside the bound BENCHMARK.json gives it. A difference above
// the bound between two runs of identical code means the bound cannot
// tell a regression from noise; the check then fails.
func runSelfcheck(cfg runConfig, specs []spec, manifestPath string) error {
	m, err := readManifest(manifestPath)
	if err != nil {
		return err
	}
	pass := func(order []spec) (map[string]map[string]metric, error) {
		out := map[string]map[string]metric{}
		for _, s := range order {
			cfg.spec = s
			rec, _, err := runOnce(cfg, false)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", s.Name, err)
			}
			if !rec.Correct {
				return nil, fmt.Errorf("%s: %d of %d operations failed: %s", s.Name, rec.Failed, rec.Attempted, rec.FirstFailure)
			}
			out[s.Name] = rec.Metrics
		}
		return out, nil
	}
	a, err := pass(specs)
	if err != nil {
		return err
	}
	reversed := make([]spec, len(specs))
	for i, s := range specs {
		reversed[len(specs)-1-i] = s
	}
	b, err := pass(reversed)
	if err != nil {
		return err
	}
	fmt.Printf("%-15s %-15s %12s %12s %8s %8s\n", "workload", "metric", "A", "B", "diff %", "bound %")
	exceeded := 0
	for _, s := range specs {
		for _, mm := range m.EndToEnd {
			va, vb := a[s.Name][mm.Name].Value, b[s.Name][mm.Name].Value
			diff := math.Abs(vb-va) / va
			mark := ""
			if diff > mm.Bound {
				mark = "  EXCEEDS"
				exceeded++
			}
			fmt.Printf("%-15s %-15s %12.4f %12.4f %8.2f %8.1f%s\n", s.Name, mm.Name, va, vb, 100*diff, 100*mm.Bound, mark)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("selfcheck: %d metric(s) differ between two runs of the same code by more than their bound", exceeded)
	}
	return nil
}
