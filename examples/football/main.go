// Football debugs a noisy FootballDB-profile knowledge graph — the
// paper's "highly noisy setting where there are as many erroneous
// temporal facts as the correct ones" — and reports how precisely the
// resolver separates injected noise from clean facts.
package main

import (
	"fmt"
	"log"

	tecore "repro"
)

func main() {
	// 1:1 noise, labelled: for every clean fact the generator injects an
	// erroneous one (overlapping spell, duplicate birth date, or a
	// pre-birth career).
	ds := tecore.GenerateFootball(tecore.FootballConfig{
		Players:    250,
		NoiseRatio: 1.0,
		Seed:       42,
	})
	fmt.Printf("dataset: %d facts (%d clean + %d injected noise)\n",
		len(ds.Graph), ds.CleanCount(), ds.NoiseCount())

	s := tecore.NewSession()
	if err := s.LoadGraph(ds.Graph); err != nil {
		log.Fatal(err)
	}
	// The standard football constraint set: no two teams at once, one
	// birth date, born before playing.
	if err := s.LoadProgramText(tecore.FootballProgram); err != nil {
		log.Fatal(err)
	}

	res, err := s.Solve(tecore.SolveOptions{Solver: tecore.SolverMLN})
	if err != nil {
		log.Fatal(err)
	}

	var removed []tecore.Fact
	res.Removed.Each(func(f tecore.Fact) bool {
		removed = append(removed, f)
		return true
	})
	tp, fp := 0, 0
	for _, f := range removed {
		if ds.Noise[f.Quad.Fact()] {
			tp++
		} else {
			fp++
		}
	}
	fn := ds.NoiseCount() - tp
	fmt.Printf("removed %d facts in %v (%d conflict clusters)\n",
		res.Stats.RemovedFacts, res.Stats.Runtime, res.Stats.ConflictClusters)
	fmt.Printf("noise recovery: true positives %d, false positives %d, missed %d\n", tp, fp, fn)
	fmt.Printf("precision %.3f  recall %.3f\n",
		float64(tp)/float64(tp+fp), float64(tp)/float64(ds.NoiseCount()))

	fmt.Println("\nexample removed facts:")
	for i, f := range removed {
		if i == 5 {
			break
		}
		tag := "clean!"
		if ds.Noise[f.Quad.Fact()] {
			tag = "noise"
		}
		fmt.Printf("  [%s] %s\n", tag, f.Quad.Compact())
	}
}
