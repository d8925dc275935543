// Wikidata runs temporal conflict resolution over a Wikidata-profile
// knowledge graph — the paper's second demo dataset — and compares the
// two reasoners: nRockIt-style MLN inference (exact, more expressive)
// against nPSL (soft approximation, faster), reporting runtimes and
// whether the two backends agree on which facts to remove.
package main

import (
	"fmt"
	"log"
	"time"

	tecore "repro"
)

func main() {
	ds := tecore.GenerateWikidata(tecore.WikidataConfig{
		Scale:      0.002, // ≈8k facts: fast enough for a demo run
		NoiseRatio: 0.042, // Figure 8's conflicting-fact rate
		Seed:       7,
	})
	fmt.Printf("dataset: %d facts (%d injected noise)\n", len(ds.Graph), ds.NoiseCount())

	removedBy := map[string]map[string]bool{}
	for _, solverName := range []string{"mln", "psl"} {
		solver, err := tecore.ParseSolver(solverName)
		if err != nil {
			log.Fatal(err)
		}
		s := tecore.NewSession()
		if err := s.LoadGraph(ds.Graph); err != nil {
			log.Fatal(err)
		}
		if err := s.LoadProgramText(tecore.WikidataProgram); err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		res, err := s.Solve(tecore.SolveOptions{Solver: solver})
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)

		removed := map[string]bool{}
		res.Removed.Each(func(f tecore.Fact) bool {
			removed[f.Quad.Fact().String()] = true
			return true
		})
		removedBy[solverName] = removed

		fmt.Printf("\n%-4s: removed %d conflicting facts, %d clusters, total %v\n",
			solverName, res.Stats.RemovedFacts, res.Stats.ConflictClusters, elapsed)
		for _, ps := range s.Predicates() {
			fmt.Printf("      %-12s %6d facts\n", ps.Predicate, ps.Count)
		}
	}

	both, onlyMLN, onlyPSL := 0, 0, 0
	for k := range removedBy["mln"] {
		if removedBy["psl"][k] {
			both++
		} else {
			onlyMLN++
		}
	}
	for k := range removedBy["psl"] {
		if !removedBy["mln"][k] {
			onlyPSL++
		}
	}
	fmt.Printf("\nagreement on removals: both %d, mln-only %d, psl-only %d\n", both, onlyMLN, onlyPSL)
}
