package tecore_test

import (
	"fmt"
	"math/rand"
	"testing"

	tecore "repro"
)

// The batch-delta contract: ApplyBatch(add, remove) followed by one
// Solve produces a Resolution byte-identical to applying the same
// mutations one fact at a time (removes first, then adds — the batch's
// documented order) and solving, and to a fresh from-scratch solve
// over the same live graph — at parallelism 1 and N. The batch path
// pays the incremental machinery once per batch instead of once per
// fact; these tests pin down that the amortization never changes the
// answer.

// runBatchVsPerFact drives nSteps random batches against a session
// mutated through ApplyBatch and a session mutated fact by fact,
// solving both (plus a from-scratch comparator) after every batch.
func runBatchVsPerFact(t *testing.T, opts tecore.SolveOptions, seed int64, nSteps int) {
	t.Helper()
	pool := componentPool(4, 3, seed)
	rng := rand.New(rand.NewSource(seed))

	batched := tecore.NewSession()
	perFact := tecore.NewSession()
	for _, s := range []*tecore.Session{batched, perFact} {
		if err := s.LoadProgramText(componentProgram); err != nil {
			t.Fatal(err)
		}
	}

	for step := 0; step < nSteps; step++ {
		var adds, removes []tecore.Quad
		for m := 0; m < 1+rng.Intn(4); m++ {
			q := pool[rng.Intn(len(pool))]
			if rng.Intn(3) == 0 {
				q.Confidence = 0.5 + 0.4*rng.Float64() // confidence-update path
			}
			if rng.Intn(3) == 0 {
				removes = append(removes, q)
			} else {
				adds = append(adds, q)
			}
		}

		// The per-fact side applies the batch's documented order:
		// removals first, then additions.
		for _, q := range removes {
			perFact.RemoveFact(q)
		}
		for _, q := range adds {
			if err := perFact.AddFact(q); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := batched.ApplyBatch(adds, removes); err != nil {
			t.Fatalf("step %d: ApplyBatch: %v", step, err)
		}
		if got, want := batched.Store().Len(), perFact.Store().Len(); got != want {
			t.Fatalf("step %d: batched store has %d facts, per-fact has %d", step, got, want)
		}

		bRes, err := batched.Solve(opts)
		if err != nil {
			t.Fatalf("step %d: batched solve: %v", step, err)
		}
		pRes, err := perFact.Solve(opts)
		if err != nil {
			t.Fatalf("step %d: per-fact solve: %v", step, err)
		}
		if step > 0 && !bRes.Incremental {
			t.Fatalf("step %d: batched solve did not take the delta path", step)
		}
		got, want := canonResolution(bRes, 17), canonResolution(pRes, 17)
		if got != want {
			t.Fatalf("step %d: batched result diverged from per-fact sequence\nbatched:\n%s\nper-fact:\n%s",
				step, got, want)
		}

		fresh := tecore.NewSession()
		if err := fresh.LoadGraph(batched.Store().Graph()); err != nil {
			t.Fatal(err)
		}
		if err := fresh.LoadProgramText(componentProgram); err != nil {
			t.Fatal(err)
		}
		fRes, err := fresh.Solve(opts)
		if err != nil {
			t.Fatalf("step %d: fresh solve: %v", step, err)
		}
		if fc := canonResolution(fRes, 17); got != fc {
			t.Fatalf("step %d: batched result diverged from from-scratch solve\nbatched:\n%s\nfresh:\n%s",
				step, got, fc)
		}
	}
}

func TestBatchMatchesPerFactMLNExact(t *testing.T) {
	for _, par := range []int{1, 0} {
		t.Run(fmt.Sprintf("parallel=%d", par), func(t *testing.T) {
			opts := tecore.SolveOptions{
				Solver: tecore.SolverMLN, Parallelism: par}
			runBatchVsPerFact(t, opts, 211, 10)
		})
	}
}
