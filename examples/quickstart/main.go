// Quickstart reproduces the paper's running example end to end: load the
// utkg of Figure 1, the inference rules of Figure 4 and the constraints
// of Figure 6, run MAP inference, and print the most probable
// conflict-free temporal knowledge graph of Figure 7.
package main

import (
	"fmt"
	"log"

	tecore "repro"
)

// Figure 1: coach Claudio Raineri's career as an uncertain temporal KG.
const data = `
CR coach Chelsea [2000,2004] 0.9
CR coach Leicester [2015,2017] 0.7
CR playsFor Palermo [1984,1986] 0.5
CR birthDate 1951 [1951,2017] 1.0
CR coach Napoli [2001,2003] 0.6
`

// Figures 4 and 6: temporal inference rules and constraints.
const program = `
# f1: playing for a club implies working for it.
f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5
# f2: working somewhere located in a city implies living there.
f2: quad(x, worksFor, y, t) ^ quad(y, locatedIn, z, t') ^ overlaps(t, t') -> quad(x, livesIn, z, intersect(t, t')) w = 1.6
# c1: born before dying.
c1: quad(x, birthDate, y, t) ^ quad(x, deathDate, z, t') -> before(t, t') w = inf
# c2: no coaching two clubs at the same time.
c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf
# c3: born in a single city.
c3: quad(x, bornIn, y, t) ^ quad(x, bornIn, z, t') ^ overlap(t, t') -> y = z w = inf
`

func main() {
	s := tecore.NewSession()
	if err := s.LoadGraphText(data); err != nil {
		log.Fatal(err)
	}
	if err := s.LoadProgramText(program); err != nil {
		log.Fatal(err)
	}

	for _, solver := range []tecore.Solver{tecore.SolverMLN, tecore.SolverPSL} {
		res, err := s.Solve(tecore.SolveOptions{Solver: solver})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("=== %s ===\n", res.Stats.Solver)
		fmt.Println("consistent temporal KG (Figure 7):")
		show := func(f tecore.Fact) bool {
			fmt.Println("  ", f.Quad.Compact())
			return true
		}
		res.Kept.Each(show)
		fmt.Println("removed as conflicting:")
		res.Removed.Each(show)
		fmt.Println("inferred (implicit facts made explicit):")
		res.Inferred.Each(show)
		fmt.Printf("stats: kept %d / removed %d / inferred %d, %d conflict cluster(s), runtime %v\n\n",
			res.Stats.KeptFacts, res.Stats.RemovedFacts, res.Stats.InferredFacts,
			res.Stats.ConflictClusters, res.Stats.Runtime)
	}

	// Sessions are stateful: after the first Solve the grounding engine
	// is cached, and fact updates re-solve through the delta path (see
	// examples/streaming for the full walk-through).
	if s.RemoveFact(tecore.NewQuad("CR", "coach", "Napoli", tecore.MustInterval(2001, 2003), 0.6)) {
		res, err := s.Solve(tecore.SolveOptions{Solver: tecore.SolverMLN})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("after retracting the Napoli spell (incremental=%v): kept %d / removed %d\n",
			res.Incremental, res.Stats.KeptFacts, res.Stats.RemovedFacts)
	}
}
