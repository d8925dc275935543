// Streaming demonstrates the incremental session API: load a knowledge
// graph once, then stream fact updates and re-solve after each one. The
// session keeps its grounding engine and previous solution alive, so
// every re-solve after the first consumes only the store delta —
// seminaive re-grounding of the affected rules plus a warm-started
// solver — instead of paying the full load-and-solve cost again.
//
// The session additionally maintains a live, delta-patched Outcome and
// each MLN/PSL Solve returns Resolution.Delta — the changelog of facts
// and conflict clusters that entered or left the repaired graph — so a
// streaming consumer processes diffs instead of re-reading the full
// result every update.
package main

import (
	"fmt"
	"log"

	tecore "repro"
)

const data = `
CR coach Chelsea [2000,2004] 0.9
CR coach Leicester [2015,2017] 0.7
CR playsFor Palermo [1984,1986] 0.5
CR birthDate 1951 [1951,2017] 1.0
`

const program = `
f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5
c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf
`

func main() {
	s := tecore.NewSession()
	if err := s.LoadGraphText(data); err != nil {
		log.Fatal(err)
	}
	if err := s.LoadProgramText(program); err != nil {
		log.Fatal(err)
	}

	solve := func(label string) {
		// The read-out is live: res.Delta carries only what this update
		// changed.
		res, err := s.Solve(tecore.SolveOptions{Solver: tecore.SolverMLN})
		if err != nil {
			log.Fatal(err)
		}
		mode := "full"
		if res.Incremental {
			mode = "incremental"
		}
		fmt.Printf("%-28s %-11s kept %d / removed %d / inferred %d (epoch %d)\n",
			label, mode, res.Stats.KeptFacts, res.Stats.RemovedFacts,
			res.Stats.InferredFacts, s.Store().Epoch())
		if d := res.Delta; d != nil {
			d.AddedRemoved.Each(func(f tecore.Fact) bool {
				fmt.Printf("  + conflict: %s", f.Quad.Compact())
				if len(f.Explanations) > 0 {
					fmt.Printf("  — violates %s", f.Explanations[0])
				}
				fmt.Println()
				return true
			})
			printEach := func(l tecore.FactList, prefix string) {
				l.Each(func(f tecore.Fact) bool {
					fmt.Printf("  %s: %s\n", prefix, f.Quad.Compact())
					return true
				})
			}
			printEach(d.RemovedRemoved, "- conflict resolved")
			printEach(d.AddedInferred, "+ inferred")
			printEach(d.RemovedInferred, "- no longer inferred")
			if d.Empty() {
				fmt.Println("  (no change)")
			}
		}
	}

	// 1. Initial solve grounds the full program.
	solve("initial load")

	// 2. A new extraction arrives: an overlapping coaching spell. Only
	//    the groundings touching the new fact are added.
	napoli := tecore.NewQuad("CR", "coach", "Napoli", tecore.MustInterval(2001, 2003), 0.6)
	if err := s.AddFact(napoli); err != nil {
		log.Fatal(err)
	}
	solve("after add Napoli")

	// 3. The upstream source retracts it: the delete/rederive pass drops
	//    exactly its groundings and the conflict disappears.
	s.RemoveFact(napoli)
	solve("after remove Napoli")

	// 4. A correction re-asserts it with higher confidence; the fact is
	//    revived under its original id.
	napoli.Confidence = 0.95
	if err := s.AddFact(napoli); err != nil {
		log.Fatal(err)
	}
	solve("after re-add at 0.95")
}
