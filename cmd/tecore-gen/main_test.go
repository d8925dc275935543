package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	tecore "repro"
)

func TestGenerateFootballFiles(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "fb.tq")
	labels := filepath.Join(dir, "noise.txt")
	rules := filepath.Join(dir, "fb.tcr")
	cfg := genConfig{profile: "football", players: 80, noise: 0.5, seed: 3}
	if err := run(cfg, out, labels, rules); err != nil {
		t.Fatalf("run: %v", err)
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	g, err := tecore.ParseGraphString(string(data))
	if err != nil {
		t.Fatalf("generated TQuads unparseable: %v", err)
	}
	if len(g) < 150 {
		t.Errorf("generated %d facts", len(g))
	}

	lb, err := os.ReadFile(labels)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(lb), "player/") {
		t.Errorf("labels file = %q...", string(lb)[:min(80, len(lb))])
	}

	rl, err := os.ReadFile(rules)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tecore.ParseRules(string(rl)); err != nil {
		t.Errorf("emitted rules unparseable: %v", err)
	}
}

func TestGenerateWikidata(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "wd.tq")
	if err := run(genConfig{profile: "wikidata", scale: 0.002, seed: 1}, out, "", ""); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	g, err := tecore.ParseGraphString(string(data))
	if err != nil || len(g) == 0 {
		t.Fatalf("wikidata output: %d facts, %v", len(g), err)
	}
}

// TestGenerateClustered exercises the clustered-workload flags: the
// generated file must parse, carry one cluster's worth of facts per
// requested cluster, and — solved with the emitted standard constraint
// set — actually decompose into roughly one conflict component per
// cluster (the structure the component-decomposed solver and repair
// exploit outside the bench harness).
func TestGenerateClustered(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "cl.tq")
	labels := filepath.Join(dir, "noise.txt")
	rules := filepath.Join(dir, "cl.tcr")
	cfg := genConfig{profile: "clustered", clusters: 20, clusterSize: 5, bridge: 0.3, seed: 9}
	if err := run(cfg, out, labels, rules); err != nil {
		t.Fatalf("run: %v", err)
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	g, err := tecore.ParseGraphString(string(data))
	if err != nil {
		t.Fatalf("generated TQuads unparseable: %v", err)
	}
	if len(g) < 20*5 {
		t.Errorf("generated %d facts, want ≥ clusters × cluster-size = 100", len(g))
	}

	// Bridges are noise-labelled conflict inducers; with bridge 0.3 over
	// 20 clusters some must exist.
	lb, err := os.ReadFile(labels)
	if err != nil {
		t.Fatal(err)
	}
	if len(strings.TrimSpace(string(lb))) == 0 {
		t.Error("clustered profile emitted no gold noise labels")
	}

	rl, err := os.ReadFile(rules)
	if err != nil {
		t.Fatal(err)
	}
	s := tecore.NewSession()
	if err := s.LoadGraph(g); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadProgramText(string(rl)); err != nil {
		t.Fatalf("emitted rules unparseable: %v", err)
	}
	res, err := s.Solve(tecore.SolveOptions{Solver: tecore.SolverMLN})
	if err != nil {
		t.Fatal(err)
	}
	cs := res.Stats.Components
	if cs == nil || cs.Count < 10 || cs.Count > 20 {
		t.Errorf("component count = %+v, want ≈ clusters minus bridge merges", cs)
	}
}

func TestGenerateUnknownProfile(t *testing.T) {
	if err := run(genConfig{profile: "mars", seed: 1}, "", "", ""); err == nil {
		t.Error("unknown profile accepted")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
