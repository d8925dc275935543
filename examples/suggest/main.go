// Suggest demonstrates automatic constraint suggestion — the research
// direction the paper's demonstration goals highlight ("automatic
// derivation or suggestion of constraints and inference rules"): mine
// candidate temporal constraints from a noisy knowledge graph, review
// their support statistics, adopt the confident ones, and debug the
// graph with them.
package main

import (
	"fmt"
	"log"

	tecore "repro"
)

func main() {
	// A moderately noisy football KG; the miner has to see through the
	// noise, so constraint confidences land below 1.0.
	ds := tecore.GenerateFootball(tecore.FootballConfig{
		Players:    500,
		NoiseRatio: 0.15,
		Seed:       9,
	})
	s := tecore.NewSession()
	if err := s.LoadGraph(ds.Graph); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d facts (%d injected noise)\n\n", len(ds.Graph), ds.NoiseCount())

	sugs, err := tecore.SuggestConstraints(s, tecore.SuggestOptions{MinConfidence: 0.85})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("mined constraint candidates:")
	adopted := 0
	for _, sg := range sugs {
		fmt.Printf("  [%-10s] conf %.3f  support %6d  violations %5d  %s\n",
			sg.Kind, sg.Confidence, sg.Support, sg.Violations, sg.Text())
		// Adopt high-confidence suggestions into the program.
		if sg.Confidence >= 0.9 {
			if err := s.AddRule(sg.Rule); err != nil {
				log.Fatal(err)
			}
			adopted++
		}
	}
	if adopted == 0 {
		log.Fatal("no suggestion cleared the adoption bar")
	}
	fmt.Printf("\nadopted %d constraints; debugging the graph with them…\n", adopted)

	res, err := s.Solve(tecore.SolveOptions{Solver: tecore.SolverMLN})
	if err != nil {
		log.Fatal(err)
	}
	tp := 0
	res.Removed.Each(func(f tecore.Fact) bool {
		if ds.Noise[f.Quad.Fact()] {
			tp++
		}
		return true
	})
	fmt.Printf("removed %d facts (%d of them injected noise) in %v, %d conflict clusters\n",
		res.Stats.RemovedFacts, tp, res.Stats.Runtime, res.Stats.ConflictClusters)
}
