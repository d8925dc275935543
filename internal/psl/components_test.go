package psl

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/ground"
	"repro/internal/rdf"
	"repro/internal/rulelang"
	"repro/internal/store"
	"repro/internal/temporal"
)

// componentProgram and componentPool mirror the root property suite's
// fixture (components_test.go there): an inference rule (derived atoms,
// soft potentials), per-subject disjointness chains, and bridge facts
// whose star groundings merge two subjects' components. Confidences are
// full-precision randoms, so no optimum sits on the rounding threshold.
const componentProgram = `
f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5
c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf
star: quad(x, coach, y, t) ^ quad(z, coach, y, t') ^ x != z -> disjoint(t, t') w = inf
`

func componentPool(subjects, spells int, seed int64) rdf.Graph {
	rng := rand.New(rand.NewSource(seed))
	conf := func() float64 { return 0.5 + 0.45*rng.Float64() }
	var pool rdf.Graph
	for s := 0; s < subjects; s++ {
		subj := fmt.Sprintf("P%d", s)
		start := int64(2000)
		for c := 0; c < spells; c++ {
			end := start + 2 + int64(rng.Intn(3))
			pool = append(pool, rdf.NewQuad(subj, "coach", fmt.Sprintf("Club_%d_%d", s, c), temporal.MustNew(start, end), conf()))
			start = end // boundary overlap chains the component
		}
		pool = append(pool, rdf.NewQuad(subj, "playsFor", fmt.Sprintf("Club_%d_0", s), temporal.MustNew(1990, 1995), conf()))
		if s%2 == 1 { // bridge every other pair, leaving several components
			pool = append(pool, rdf.NewQuad(subj, "coach", fmt.Sprintf("Club_%d_0", s-1), temporal.MustNew(2000, 2002), conf()))
		}
	}
	return pool
}

// TestComponentsMatchOneComponent is the decomposition's oracle:
// "monolithic" is the same ADMM kernel fed one synthetic component
// spanning every live atom, so consensus runs over the whole HL-MRF and
// stops on the global residual. The per-component solve must reach the
// same discrete state, with soft values agreeing to within what the two
// stopping points leave (both sit within Eps-residual of the one optimum
// of the strictly convex objective).
func TestComponentsMatchOneComponent(t *testing.T) {
	prog := rulelang.MustParse(componentProgram)
	opts := Options{}.withDefaults()
	for _, seed := range []int64{41, 67, 97, 103} {
		st := store.New()
		if err := st.AddGraph(componentPool(6, 3, seed)); err != nil {
			t.Fatal(err)
		}
		g := ground.New(st)
		if _, err := g.Close(prog); err != nil {
			t.Fatal(err)
		}
		cs, err := g.GroundProgram(prog)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := MAPGroundComponents(g, cs, opts, nil, NewComponentCache(), engine.NewPlan(g.Atoms(), cs))
		if err != nil {
			t.Fatal(err)
		}
		if res.Components.Count < 3 || res.Components.Largest < 6 {
			t.Fatalf("seed %d: fixture did not decompose: %+v", seed, res.Components)
		}

		atoms := g.Atoms()
		order := ground.CanonicalAtoms(atoms)
		varOf := ground.CanonicalVarMap(atoms, order)
		clauses, slots := cs.ComponentClauses(order, func(a ground.AtomID) int32 { return varOf[a] })
		if len(clauses) != cs.Len() {
			t.Fatalf("seed %d: one-component gather holds %d of %d clauses", seed, len(clauses), cs.Len())
		}
		whole := solveComponent(atoms, &ground.Component{Key: order[0], Atoms: order}, toHinges(clauses, opts), slots, opts, nil)
		if !whole.converged || !res.Converged {
			t.Fatalf("seed %d: ADMM did not converge (whole %v, components %v)", seed, whole.converged, res.Converged)
		}
		for v, a := range order {
			if whole.truth[v] != res.Truth[a] {
				t.Errorf("seed %d: %s: one-component truth %v (%.6f), per-component %v (%.6f)", seed,
					atoms.Info(a).Key, whole.truth[v], whole.values[v], res.Truth[a], res.Values[a])
			}
			if d := math.Abs(whole.values[v] - res.Values[a]); d > 5e-3 {
				t.Errorf("seed %d: %s: soft values differ by %.2g", seed, atoms.Info(a).Key, d)
			}
		}
	}
}
