package main

import (
	"os/exec"
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload, untraced and traced, at one fiftieth
// of its size against a freshly built server and checks that the run is
// correct and prints exactly the workloads and metrics BENCHMARK.json
// declares, with their units and sample counts.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts tecore-server child processes")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "tecore-server")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/tecore-server").CombinedOutput(); err != nil {
		t.Fatalf("building tecore-server: %v\n%s", err, out)
	}
	m, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness has %d", len(m.Workloads), len(workloads))
	}
	declared := map[bool][]manifestMetric{false: m.EndToEnd, true: m.PerLayer}
	sampled := map[bool][]string{
		false: {"setup_s", "op_p50_ms", "read_p50_ms", "recover_p50_ms"},
		true:  {"wal.sync_p50_us", "core.solve_update_p50_us", "server.create_p50_ms"},
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the harness %q", i, m.Workloads[i].Name, w.Name)
		}
		for _, traced := range []bool{false, true} {
			const scale = 0.02
			cfg := runConfig{spec: w.scaled(scale), seed: 1, seconds: 0.5, serverBin: bin, workDir: dir, scale: scale}
			rec, _, err := runOnce(cfg, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !rec.Correct {
				t.Errorf("%s traced=%v: %d of %d operations failed: %s", w.Name, traced, rec.Failed, rec.Attempted, rec.FirstFailure)
			}
			if len(rec.Metrics) != len(declared[traced]) {
				t.Errorf("%s traced=%v: %d metrics printed, %d declared", w.Name, traced, len(rec.Metrics), len(declared[traced]))
			}
			for _, d := range declared[traced] {
				got, ok := rec.Metrics[d.Name]
				if !ok {
					t.Errorf("%s traced=%v: declared metric %s not printed", w.Name, traced, d.Name)
				} else if got.Unit != d.Unit {
					t.Errorf("%s: %s printed in %q, declared in %q", w.Name, d.Name, got.Unit, d.Unit)
				}
			}
			for _, name := range sampled[traced] {
				if rec.Samples[name] == 0 {
					t.Errorf("%s traced=%v: no sample count for %s", w.Name, traced, name)
				}
			}
			if rec.Tails["op_tail_ms"].N == 0 {
				t.Errorf("%s traced=%v: no sample count for op_tail_ms", w.Name, traced)
			}
			if traced {
				if r := rec.Metrics["core.residual_share"].Value; r >= 0.05 {
					t.Errorf("%s: core.residual_share %.3f, want < 0.05", w.Name, r)
				}
				if len(rec.Waterfall) == 0 {
					t.Errorf("%s: traced run has no waterfall", w.Name)
				}
			}
		}
	}
}
