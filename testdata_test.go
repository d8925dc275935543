package tecore_test

import (
	"os"
	"testing"

	tecore "repro"
)

// The shipped sample files must stay loadable and reproduce Figure 7;
// they double as CLI demo inputs (see README).
func TestShippedRunningExampleFiles(t *testing.T) {
	data, err := os.Open("testdata/running-example.tq")
	if err != nil {
		t.Fatal(err)
	}
	defer data.Close()
	g, err := tecore.ParseGraph(data)
	if err != nil {
		t.Fatalf("parsing shipped dataset: %v", err)
	}
	if len(g) != 5 {
		t.Fatalf("shipped dataset has %d facts", len(g))
	}

	rulesText, err := os.ReadFile("testdata/running-example.tcr")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := tecore.ParseRules(string(rulesText))
	if err != nil {
		t.Fatalf("parsing shipped rules: %v", err)
	}
	if len(prog.Rules) != 6 {
		t.Fatalf("shipped rules = %d, want 6 (f1-f3, c1-c3)", len(prog.Rules))
	}

	s := tecore.NewSession()
	if err := s.LoadGraph(g); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadProgramText(string(rulesText)); err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(tecore.SolveOptions{Solver: tecore.SolverMLN})
	if err != nil {
		t.Fatal(err)
	}
	removed := collect(res.Removed.Each)
	if res.Stats.RemovedFacts != 1 || removed[0].Quad.Object.Value != "Napoli" {
		t.Fatalf("shipped example: removed = %v", removed)
	}
	if len(removed[0].Explanations) == 0 || removed[0].Explanations[0].Rule != "c2" {
		t.Errorf("shipped example: explanations = %v", removed[0].Explanations)
	}
}
