package baseline

import (
	"testing"

	"repro/internal/ground"
	"repro/internal/logic"
	"repro/internal/rdf"
	"repro/internal/rulelang"
	"repro/internal/store"
	"repro/internal/temporal"
)

func loadStore(t testing.TB, text string) *store.Store {
	t.Helper()
	g, err := rdf.ParseGraphString(text)
	if err != nil {
		t.Fatal(err)
	}
	st := store.New()
	if err := st.AddGraph(g); err != nil {
		t.Fatal(err)
	}
	return st
}

// solve closes g under the program's inference rules, grounds the full
// program and runs the greedy sweep over the result.
func solve(t testing.TB, g *ground.Grounder, prog *logic.Program) *Result {
	t.Helper()
	if _, err := g.Close(prog); err != nil {
		t.Fatal(err)
	}
	cs, err := g.GroundProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	return Solve(g.Atoms(), cs)
}

const c2 = "c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf"

func TestGreedyRunningExample(t *testing.T) {
	st := loadStore(t, `
CR coach Chelsea [2000,2004] 0.9
CR coach Napoli [2001,2003] 0.6
CR coach Leicester [2015,2017] 0.7
`)
	g := ground.New(st)
	res := solve(t, g, rulelang.MustParse(c2))
	if res.Removed != 1 || res.RemovedWeight != 0.6 {
		t.Fatalf("removed=%d weight=%g, want Napoli only", res.Removed, res.RemovedWeight)
	}
	for i := 0; i < g.Atoms().Len(); i++ {
		info := g.Atoms().Info(ground.AtomID(i))
		wantKept := info.Key.O.Value != "Napoli"
		if res.Truth[i] != wantKept {
			t.Errorf("atom %v truth = %v", info.Key, res.Truth[i])
		}
	}
}

// TestGreedySuboptimalStar: a strong hub conflicting with several weaker
// facts. Greedy keeps the hub (0.9) and drops three facts worth 2.1;
// MAP would drop the hub instead. The test pins greedy's (documented)
// suboptimal behaviour.
func TestGreedySuboptimalStar(t *testing.T) {
	st := loadStore(t, `
P coach Hub [2000,2010] 0.9
P coach A [2000,2001] 0.7
P coach B [2003,2004] 0.7
P coach C [2006,2007] 0.7
`)
	g := ground.New(st)
	res := solve(t, g, rulelang.MustParse(c2))
	if res.Removed != 3 {
		t.Fatalf("greedy removed %d facts, want 3 (the spokes)", res.Removed)
	}
	hub, _ := g.Atoms().Lookup(rdf.FactKey{S: rdf.NewIRI("P"), P: rdf.NewIRI("coach"),
		O: rdf.NewIRI("Hub"), Interval: temporal.MustNew(2000, 2010)})
	if !res.Truth[hub] {
		t.Error("greedy should keep the strongest fact")
	}
	if res.RemovedWeight < 2.0 {
		t.Errorf("removed weight = %g", res.RemovedWeight)
	}
}

func TestGreedyPropagatesInference(t *testing.T) {
	st := loadStore(t, "CR playsFor Palermo [1984,1986] 0.5")
	g := ground.New(st)
	prog := rulelang.MustParse("f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = inf")
	res := solve(t, g, prog)
	derived, ok := g.Atoms().Lookup(rdf.FactKey{S: rdf.NewIRI("CR"), P: rdf.NewIRI("worksFor"),
		O: rdf.NewIRI("Palermo"), Interval: temporal.MustNew(1984, 1986)})
	if !ok || !res.Truth[derived] {
		t.Error("hard implication not propagated")
	}
}

func TestGreedyDropsPremiseOnDerivedConflict(t *testing.T) {
	// Deriving worksFor would clash with a stronger bannedFrom fact; the
	// weak premise is dropped instead.
	st := loadStore(t, `
A playsFor X [2000,2001] 0.55
A bannedFrom X [2000,2001] 0.95
`)
	g := ground.New(st)
	prog := rulelang.MustParse(`
f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = inf
c:  quad(x, worksFor, y, t) ^ quad(x, bannedFrom, y, t') ^ overlap(t, t') -> false w = inf
`)
	res := solve(t, g, prog)
	plays, _ := g.Atoms().Lookup(rdf.FactKey{S: rdf.NewIRI("A"), P: rdf.NewIRI("playsFor"),
		O: rdf.NewIRI("X"), Interval: temporal.MustNew(2000, 2001)})
	banned, _ := g.Atoms().Lookup(rdf.FactKey{S: rdf.NewIRI("A"), P: rdf.NewIRI("bannedFrom"),
		O: rdf.NewIRI("X"), Interval: temporal.MustNew(2000, 2001)})
	if res.Truth[plays] {
		t.Error("weak premise should be dropped")
	}
	if !res.Truth[banned] {
		t.Error("strong fact should be kept")
	}
}

func TestGreedyNoConstraintsKeepsAll(t *testing.T) {
	st := loadStore(t, `
a rel1 b [1,2] 0.3
a rel2 c [1,2] 0.9
`)
	g := ground.New(st)
	res := solve(t, g, rulelang.MustParse(""))
	if res.Removed != 0 {
		t.Errorf("removed = %d", res.Removed)
	}
	for i, v := range res.Truth {
		if !v {
			t.Errorf("atom %d dropped", i)
		}
	}
}
