// Constraints demonstrates the programmatic counterpart of the Web UI's
// constraints editor: building Allen-relation constraints from predicate
// pairs, checking a constraint network for satisfiability with path
// consistency before solving, and applying a confidence threshold to the
// inferred facts.
package main

import (
	"fmt"
	"log"

	tecore "repro"
)

const data = `
# a sports biography with several extraction artefacts
ada birthDate 1970 [1970,2017] 1.0
ada deathDate 1960 [1960,1960] 0.4     # extracted death before birth: conflicts with c1
ada playsFor amaranth [1988,1994] 0.8
ada playsFor beryl [1992,1996] 0.6     # overlapping spell: conflicts with noTwoTeams
ada coach cobalt [2001,2006] 0.9
ada coach dahlia [2004,2008] 0.5       # overlapping coaching spell
`

func main() {
	s := tecore.NewSession()
	if err := s.LoadGraphText(data); err != nil {
		log.Fatal(err)
	}

	// Build constraints the way the UI's editor does: pick predicates,
	// pick an Allen relation, add the generated rule.
	cons := []struct {
		name, p1, p2, rel string
		distinct          bool
	}{
		{"bornBeforeDeath", "birthDate", "deathDate", "before", false},
		{"noTwoTeams", "playsFor", "playsFor", "disjoint", true},
		{"noTwoClubs", "coach", "coach", "disjoint", true},
	}
	for _, c := range cons {
		r, err := tecore.AllenConstraint(c.name, c.p1, c.p2, c.rel, c.distinct)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("constraint:", r)
		if err := s.AddRule(r); err != nil {
			log.Fatal(err)
		}
	}

	// An inference rule with a weight, plus a derived-fact threshold to
	// show the paper's filtering feature.
	if err := s.LoadProgramText(
		"f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 1.2"); err != nil {
		log.Fatal(err)
	}

	for _, threshold := range []float64{0.0, 0.7} {
		res, err := s.Solve(tecore.SolveOptions{
			Solver:    tecore.SolverMLN,
			Threshold: threshold,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nthreshold %.1f: kept %d, removed %d, inferred %d (filtered %d)\n",
			threshold, res.Stats.KeptFacts, res.Stats.RemovedFacts,
			res.Stats.InferredFacts, res.Stats.ThresholdFiltered)
		res.Removed.Each(func(f tecore.Fact) bool {
			fmt.Println("  removed:", f.Quad.Compact())
			return true
		})
		res.Inferred.Each(func(f tecore.Fact) bool {
			fmt.Println("  inferred:", f.Quad.Compact())
			return true
		})
	}
}
