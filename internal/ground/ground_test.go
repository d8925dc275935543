package ground

import (
	"math"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/rulelang"
	"repro/internal/store"
	"repro/internal/temporal"
)

// figure1Store loads the paper's running example (Figure 1).
func figure1Store(t testing.TB) *store.Store {
	t.Helper()
	g, err := rdf.ParseGraphString(`
CR coach Chelsea [2000,2004] 0.9
CR coach Leicester [2015,2017] 0.7
CR playsFor Palermo [1984,1986] 0.5
CR birthDate 1951 [1951,2017] 1.0
CR coach Napoli [2001,2003] 0.6
`)
	if err != nil {
		t.Fatalf("parse graph: %v", err)
	}
	st := store.New()
	if err := st.AddGraph(g); err != nil {
		t.Fatalf("load store: %v", err)
	}
	return st
}

func atomID(t testing.TB, g *Grounder, compact string) AtomID {
	t.Helper()
	for i := 0; i < g.Atoms().Len(); i++ {
		if g.Atoms().Info(AtomID(i)).Key.String() == compact {
			return AtomID(i)
		}
	}
	t.Fatalf("atom %q not found", compact)
	return -1
}

func TestAtomTable(t *testing.T) {
	at := NewAtomTable(store.New())
	key := rdf.FactKey{S: rdf.NewIRI("a"), P: rdf.NewIRI("p"), O: rdf.NewIRI("b"),
		Interval: temporal.MustNew(1, 2)}
	id := at.Intern(key)
	if id2 := at.Intern(key); id2 != id {
		t.Error("Intern not idempotent")
	}
	if at.Info(id).Evidence {
		t.Error("plain intern should not be evidence")
	}
	id3 := at.InternEvidence(key, 0.7, 4)
	if id3 != id || !at.Info(id).Evidence || at.Info(id).Conf != 0.7 || at.Info(id).FactID != 4 {
		t.Errorf("InternEvidence info = %+v", at.Info(id))
	}
	// Re-interning evidence keeps max confidence.
	at.InternEvidence(key, 0.3, 4)
	if at.Info(id).Conf != 0.7 {
		t.Error("evidence confidence should keep max")
	}
	if _, ok := at.Lookup(key); !ok {
		t.Error("Lookup failed")
	}
	if at.Len() != 1 {
		t.Errorf("Len = %d", at.Len())
	}
	key2 := key
	key2.Interval = temporal.MustNew(3, 4)
	at.Intern(key2)
	if n := len(at.EvidenceAtoms()); n != 1 {
		t.Errorf("EvidenceAtoms = %d", n)
	}
	if n := len(at.DerivedAtoms()); n != 1 {
		t.Errorf("DerivedAtoms = %d", n)
	}
}

func TestClauseNormalize(t *testing.T) {
	c := Clause{Lits: []Lit{{Atom: 2, Neg: true}, {Atom: 1}, {Atom: 2, Neg: true}}}
	if c.normalize() {
		t.Fatal("not a tautology")
	}
	if len(c.Lits) != 2 || c.Lits[0] != (Lit{Atom: 1}) || c.Lits[1] != (Lit{Atom: 2, Neg: true}) {
		t.Errorf("normalized = %v", c.Lits)
	}
	taut := Clause{Lits: []Lit{{Atom: 3}, {Atom: 3, Neg: true}}}
	if !taut.normalize() {
		t.Error("tautology not detected")
	}
}

func TestClauseSatisfied(t *testing.T) {
	c := Clause{Lits: []Lit{{Atom: 0, Neg: true}, {Atom: 1}}}
	tr := func(vals ...bool) func(AtomID) bool {
		return func(a AtomID) bool { return vals[a] }
	}
	if !c.Satisfied(tr(false, false)) {
		t.Error("!a0 should satisfy")
	}
	if !c.Satisfied(tr(true, true)) {
		t.Error("a1 should satisfy")
	}
	if c.Satisfied(tr(true, false)) {
		t.Error("a0=T a1=F should violate")
	}
}

func TestClauseSetMerging(t *testing.T) {
	cs := NewClauseSet()
	soft := Clause{Lits: []Lit{{Atom: 0, Neg: true}, {Atom: 1, Neg: true}}, Weight: 1.5, Rule: "r"}
	if !cs.Add(soft) || !cs.Add(soft) {
		t.Fatal("Add failed")
	}
	if cs.Len() != 1 {
		t.Fatalf("Len = %d", cs.Len())
	}
	if got := cs.Clauses()[0].Weight; got != 3.0 {
		t.Errorf("merged weight = %g, want 3.0", got)
	}
	hard := soft
	hard.Weight = math.Inf(1)
	cs.Add(hard)
	if !cs.Clauses()[0].Hard() {
		t.Error("hard upgrade failed")
	}
	// Tautologies vanish.
	cs.Add(Clause{Lits: []Lit{{Atom: 5}, {Atom: 5, Neg: true}}, Weight: 1})
	if cs.Len() != 1 {
		t.Error("tautology added")
	}
	// Empty soft clause is dropped, empty hard clause reports failure.
	if !cs.Add(Clause{Weight: 2}) {
		t.Error("empty soft clause should be droppable")
	}
	if cs.Add(Clause{Weight: math.Inf(1)}) {
		t.Error("empty hard clause must report contradiction")
	}
}

func TestGroundConstraintC2(t *testing.T) {
	st := figure1Store(t)
	g := New(st)
	prog := rulelang.MustParse(
		"c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf")
	cs, err := g.GroundProgram(prog)
	if err != nil {
		t.Fatalf("GroundProgram: %v", err)
	}
	// Chelsea [2000,2004] and Napoli [2001,2003] overlap: one violated
	// grounding (symmetric pair collapses after normalization).
	if cs.Len() != 1 {
		t.Fatalf("clauses = %d: %v", cs.Len(), cs.Clauses())
	}
	c := cs.Clauses()[0]
	if !c.Hard() || len(c.Lits) != 2 || !c.Lits[0].Neg || !c.Lits[1].Neg {
		t.Errorf("clause = %v", c)
	}
	chelsea := atomID(t, g, "(CR, coach, Chelsea, [2000,2004])")
	napoli := atomID(t, g, "(CR, coach, Napoli, [2001,2003])")
	got := map[AtomID]bool{c.Lits[0].Atom: true, c.Lits[1].Atom: true}
	if !got[chelsea] || !got[napoli] {
		t.Errorf("clause atoms = %v, want Chelsea+Napoli", c.Lits)
	}
}

func TestGroundInferenceF1(t *testing.T) {
	st := figure1Store(t)
	g := New(st)
	prog := rulelang.MustParse("f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5")
	added, err := g.Close(prog)
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	if added != 1 {
		t.Fatalf("derived %d atoms, want 1", added)
	}
	cs, err := g.GroundProgram(prog)
	if err != nil {
		t.Fatalf("GroundProgram: %v", err)
	}
	if cs.Len() != 1 {
		t.Fatalf("clauses = %d", cs.Len())
	}
	c := cs.Clauses()[0]
	if c.Hard() || c.Weight != 2.5 || len(c.Lits) != 2 {
		t.Errorf("clause = %v", c)
	}
	derived := atomID(t, g, "(CR, worksFor, Palermo, [1984,1986])")
	if g.Atoms().Info(derived).Evidence {
		t.Error("worksFor atom should be derived, not evidence")
	}
}

func TestCloseCascades(t *testing.T) {
	// f1 then f2: playsFor → worksFor → livesIn via locatedIn.
	st := figure1Store(t)
	if _, err := st.Add(rdf.NewQuad("Palermo", "locatedIn", "Sicily", temporal.MustNew(1900, 2020), 1.0)); err != nil {
		t.Fatal(err)
	}
	g := New(st)
	prog := rulelang.MustParse(`
f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5
f2: quad(x, worksFor, y, t) ^ quad(y, locatedIn, z, t') ^ overlap(t, t') -> quad(x, livesIn, z, intersect(t, t')) w = 1.6
`)
	added, err := g.Close(prog)
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	if added != 2 {
		t.Fatalf("derived %d atoms, want 2 (worksFor + livesIn)", added)
	}
	livesIn := atomID(t, g, "(CR, livesIn, Sicily, [1984,1986])")
	if g.Atoms().Info(livesIn).Evidence {
		t.Error("livesIn should be derived")
	}
	cs, err := g.GroundProgram(prog)
	if err != nil {
		t.Fatalf("GroundProgram: %v", err)
	}
	// Two clauses: f1 grounding and f2 grounding.
	if cs.Len() != 2 {
		t.Errorf("clauses = %d: %v", cs.Len(), cs.Clauses())
	}
}

func TestGroundArithmeticCondition(t *testing.T) {
	// Teen players: CR started at Palermo in 1984, born 1951 → age 33, not
	// a teen; a synthetic teen player triggers the rule.
	st := figure1Store(t)
	st.Add(rdf.NewQuad("Kid", "playsFor", "Ajax", temporal.MustNew(2010, 2012), 0.8))
	st.Add(rdf.Quad{Subject: rdf.NewIRI("Kid"), Predicate: rdf.NewIRI("birthDate"),
		Object: rdf.Integer(1995), Interval: temporal.MustNew(1995, 2020), Confidence: 1})
	g := New(st)
	prog := rulelang.MustParse(
		"f3: quad(x, playsFor, y, t) ^ quad(x, birthDate, z, t') ^ start(t) - start(t') < 20 -> quad(x, type, TeenPlayer, t) w = 2.9")
	added, err := g.Close(prog)
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	if added != 1 {
		t.Fatalf("derived %d, want only Kid's TeenPlayer atom", added)
	}
	if _, ok := g.Atoms().Lookup(rdf.FactKey{S: rdf.NewIRI("Kid"), P: rdf.NewIRI("type"),
		O: rdf.NewIRI("TeenPlayer"), Interval: temporal.MustNew(2010, 2012)}); !ok {
		t.Error("Kid TeenPlayer atom missing")
	}
}

func TestGroundBeforeConstraintSatisfied(t *testing.T) {
	// c1: birth before death — satisfied groundings produce no clause.
	st := store.New()
	st.Add(rdf.Quad{Subject: rdf.NewIRI("p"), Predicate: rdf.NewIRI("birthDate"),
		Object: rdf.Integer(1900), Interval: temporal.MustNew(1900, 1900), Confidence: 1})
	st.Add(rdf.Quad{Subject: rdf.NewIRI("p"), Predicate: rdf.NewIRI("deathDate"),
		Object: rdf.Integer(1980), Interval: temporal.MustNew(1980, 1980), Confidence: 1})
	g := New(st)
	prog := rulelang.MustParse(
		"c1: quad(x, birthDate, y, t) ^ quad(x, deathDate, z, t') -> before(t, t') w = inf")
	cs, err := g.GroundProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Len() != 0 {
		t.Errorf("satisfied constraint emitted %d clauses", cs.Len())
	}
	// Reversed dates violate it.
	st2 := store.New()
	st2.Add(rdf.Quad{Subject: rdf.NewIRI("q"), Predicate: rdf.NewIRI("birthDate"),
		Object: rdf.Integer(1990), Interval: temporal.MustNew(1990, 1990), Confidence: 1})
	st2.Add(rdf.Quad{Subject: rdf.NewIRI("q"), Predicate: rdf.NewIRI("deathDate"),
		Object: rdf.Integer(1950), Interval: temporal.MustNew(1950, 1950), Confidence: 1})
	g2 := New(st2)
	cs2, err := g2.GroundProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	if cs2.Len() != 1 {
		t.Errorf("violated constraint emitted %d clauses", cs2.Len())
	}
}

func TestGroundEqualityGeneratingC3(t *testing.T) {
	st := store.New()
	st.Add(rdf.NewQuad("p", "bornIn", "Rome", temporal.MustNew(1950, 1950), 0.9))
	st.Add(rdf.NewQuad("p", "bornIn", "Milan", temporal.MustNew(1950, 1950), 0.4))
	st.Add(rdf.NewQuad("p", "bornIn", "Rome", temporal.MustNew(1950, 1950), 0.9)) // dup merges
	g := New(st)
	prog := rulelang.MustParse(
		"c3: quad(x, bornIn, y, t) ^ quad(x, bornIn, z, t') ^ overlap(t, t') -> y = z w = inf")
	cs, err := g.GroundProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Len() != 1 {
		t.Fatalf("clauses = %d: %v", cs.Len(), cs.Clauses())
	}
	if len(cs.Clauses()[0].Lits) != 2 {
		t.Errorf("clause = %v", cs.Clauses()[0])
	}
}

func TestBodyTimeExpressionRejected(t *testing.T) {
	st := figure1Store(t)
	g := New(st)
	prog := rulelang.MustParse(
		"bad: quad(x, coach, y, intersect(t, t')) ^ quad(x, coach, z, t) ^ quad(x, coach, w', t') -> false")
	_ = prog
	if _, err := g.GroundProgram(prog); err == nil ||
		!strings.Contains(err.Error(), "time expressions") {
		t.Errorf("want time-expression error, got %v", err)
	}
}

func TestSelfJoinSameVariableTwice(t *testing.T) {
	// quad(x, follows, x, t): subject equals object.
	st := store.New()
	st.Add(rdf.NewQuad("a", "follows", "a", temporal.MustNew(1, 2), 0.5))
	st.Add(rdf.NewQuad("a", "follows", "b", temporal.MustNew(1, 2), 0.5))
	g := New(st)
	prog := rulelang.MustParse("r: quad(x, follows, x, t) -> false w = inf")
	cs, err := g.GroundProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Len() != 1 {
		t.Fatalf("clauses = %d, want 1 (only the reflexive edge)", cs.Len())
	}
	if len(cs.Clauses()[0].Lits) != 1 {
		t.Errorf("clause = %v", cs.Clauses()[0])
	}
}

func TestSharedTimeVariableJoin(t *testing.T) {
	// Same time variable in two atoms joins on identical intervals.
	st := store.New()
	st.Add(rdf.NewQuad("a", "rel1", "b", temporal.MustNew(1, 2), 0.5))
	st.Add(rdf.NewQuad("a", "rel2", "c", temporal.MustNew(1, 2), 0.5))
	st.Add(rdf.NewQuad("a", "rel2", "d", temporal.MustNew(3, 4), 0.5))
	g := New(st)
	prog := rulelang.MustParse("r: quad(x, rel1, y, t) ^ quad(x, rel2, z, t) -> false w = inf")
	cs, err := g.GroundProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Len() != 1 {
		t.Fatalf("clauses = %d, want 1 (interval-equal pair only)", cs.Len())
	}
}

func TestCloseRoundLimit(t *testing.T) {
	// A rule chain listed in reverse order needs one round per stage; a
	// MaxRounds below the chain depth reports an error instead of
	// silently truncating the closure.
	st := store.New()
	st.Add(rdf.NewQuad("a", "lvl1", "b", temporal.MustNew(1, 2), 0.5))
	g := New(st)
	g.MaxRounds = 2
	prog := rulelang.MustParse(`
r3: quad(x, lvl3, y, t) -> quad(x, lvl4, y, t) w = 1
r2: quad(x, lvl2, y, t) -> quad(x, lvl3, y, t) w = 1
r1: quad(x, lvl1, y, t) -> quad(x, lvl2, y, t) w = 1
`)
	_, err := g.Close(prog)
	if err == nil || !strings.Contains(err.Error(), "rounds") {
		t.Errorf("want round-limit error, got %v", err)
	}
	// With enough rounds the same cascade converges.
	g2 := New(st)
	added, err := g2.Close(prog)
	if err != nil || added != 3 {
		t.Errorf("cascade close: added=%d err=%v, want 3,nil", added, err)
	}
}

// TestDerivedFactValidated: a head that places a bound literal in
// subject position derives no fact; Close reports it the way the store
// rejects such a quad.
func TestDerivedFactValidated(t *testing.T) {
	g := New(figure1Store(t))
	prog := rulelang.MustParse("born: quad(x, birthDate, y, t) -> quad(y, bornOf, x, t) w = 1")
	const want = `ground: derived fact (1951, bornOf, CR, [1951,2017]): ` +
		`rdf: quad "1951"^^<http://www.w3.org/2001/XMLSchema#integer> <bornOf> <CR> [1951,2017] 1 . has a literal subject`
	if _, err := g.Close(prog); err == nil || err.Error() != want {
		t.Fatalf("Close error %v, want %s", err, want)
	}
}

func TestEvidenceAtomsMatchStore(t *testing.T) {
	st := figure1Store(t)
	g := New(st)
	if got := g.Atoms().Len(); got != 5 {
		t.Errorf("atoms = %d, want 5", got)
	}
	for _, id := range g.Atoms().EvidenceAtoms() {
		info := g.Atoms().Info(id)
		if info.FactID < 0 || st.Fact(info.FactID).Fact() != info.Key {
			t.Errorf("evidence atom %d out of sync: %+v", id, info)
		}
	}
}

func TestLitAndClauseStrings(t *testing.T) {
	c := Clause{Lits: []Lit{{Atom: 0, Neg: true}, {Atom: 4}}, Weight: math.Inf(1), Rule: "c2"}
	s := c.String()
	for _, want := range []string{"!a0", "a4", "w=inf", "rule=c2"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q: %s", want, s)
		}
	}
}

func BenchmarkGroundC2Figure1(b *testing.B) {
	st := figure1Store(b)
	prog := rulelang.MustParse(
		"c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := New(st)
		if _, err := g.GroundProgram(prog); err != nil {
			b.Fatal(err)
		}
	}
}
