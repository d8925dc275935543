package ground

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/rdf"
	"repro/internal/rulelang"
	"repro/internal/store"
	"repro/internal/temporal"
)

// twoSegmentOrder is the canonical order written out independently of
// CompareCanonical: the evidence segment sorted by the backing fact ids
// Info reports, then the derived segment sorted by the statement keys
// Info materialises. Both the planner and NewPlan sort with
// CompareCanonical, so the plan differential suites cannot catch a
// comparator bug; this oracle can.
func twoSegmentOrder(t *AtomTable) []AtomID {
	var ev, de []AtomID
	for i := 0; i < t.Len(); i++ {
		info := t.Info(AtomID(i))
		switch {
		case info.Retracted:
		case info.Evidence:
			ev = append(ev, AtomID(i))
		default:
			de = append(de, AtomID(i))
		}
	}
	sort.Slice(ev, func(i, j int) bool { return t.Info(ev[i]).FactID < t.Info(ev[j]).FactID })
	sort.Slice(de, func(i, j int) bool { return t.Info(de[i]).Key.Compare(t.Info(de[j]).Key) < 0 })
	return append(ev, de...)
}

func checkCanonicalOrder(t *testing.T, label string, g *Grounder) {
	t.Helper()
	got, want := CanonicalAtoms(g.Atoms()), twoSegmentOrder(g.Atoms())
	if len(got) == 0 && len(want) == 0 {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: CanonicalAtoms diverged from the two-segment sort\ngot:  %v\nwant: %v", label, got, want)
	}
}

// TestCanonicalOrderOracle checks CanonicalAtoms against the two-segment
// sort through the state changes that move an atom in the order: a fact
// retracted and revived under a new fact id, a derived atom that becomes
// asserted evidence, and evidence retracted while still derivable — then
// across random toggles of a football-shaped store.
func TestCanonicalOrderOracle(t *testing.T) {
	iv := temporal.MustNew
	st := store.New()
	// Subjects and clubs are named against their insertion order, so
	// fact ids and statement keys disagree.
	for _, q := range []rdf.Quad{
		rdf.NewQuad("zed", "playsFor", "Alpha", iv(2001, 2004), 0.9),
		rdf.NewQuad("amy", "playsFor", "Zeta", iv(1999, 2002), 0.6),
		rdf.NewQuad("moe", "playsFor", "Beta", iv(2003, 2006), 0.8),
		rdf.NewQuad("amy", "playsFor", "Beta", iv(2001, 2003), 0.7),
	} {
		if _, err := st.Add(q); err != nil {
			t.Fatal(err)
		}
	}
	prog := rulelang.MustParse(`
works: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5
one: quad(x, playsFor, y, t) ^ quad(x, playsFor, z, t') ^ y != z -> disjoint(t, t') w = inf
`)
	g, cs := groundCold(t, st, prog, 1)
	epoch := st.Epoch()
	checkCanonicalOrder(t, "cold", g)
	atoms := g.Atoms()

	// Retracted and revived through the store (which revives a fact
	// under its original id).
	zed := rdf.NewQuad("zed", "playsFor", "Alpha", iv(2001, 2004), 0.9)
	zedAtom := atomID(t, g, zed.Fact().String())
	st.Remove(zed)
	syncStore(t, g, cs, prog, &epoch)
	if !atoms.IsRetracted(zedAtom) {
		t.Fatal("fixture: retracted fact's atom is still live")
	}
	checkCanonicalOrder(t, "retracted", g)
	if _, err := st.Add(zed); err != nil {
		t.Fatal(err)
	}
	syncStore(t, g, cs, prog, &epoch)
	checkCanonicalOrder(t, "revived", g)

	// A derived atom asserted as evidence.
	works := rdf.NewQuad("amy", "worksFor", "Zeta", iv(1999, 2002), 0.5)
	worksAtom := atomID(t, g, works.Fact().String())
	if atoms.IsEvidence(worksAtom) {
		t.Fatal("fixture: derived head is already evidence")
	}
	if _, err := st.Add(works); err != nil {
		t.Fatal(err)
	}
	syncStore(t, g, cs, prog, &epoch)
	if !atoms.IsEvidence(worksAtom) {
		t.Fatal("fixture: asserted head did not become evidence")
	}
	checkCanonicalOrder(t, "derived became evidence", g)

	// The evidence retracted while its premise still derives it.
	st.Remove(works)
	syncStore(t, g, cs, prog, &epoch)
	if atoms.IsEvidence(worksAtom) || atoms.IsRetracted(worksAtom) {
		t.Fatal("fixture: retracted evidence was not demoted to derived")
	}
	checkCanonicalOrder(t, "evidence demoted to derived", g)

	// Retracted and revived under a new fact id: the atom table rebinds
	// the atom to a fact id past every other, moving it from the head of
	// the evidence segment to its tail.
	oldFid := atoms.BackingFact(zedAtom)
	atoms.Retract(zedAtom)
	checkCanonicalOrder(t, "retracted again", g)
	atoms.SetEvidence(zedAtom, 0.9, store.FactID(st.IDBound()))
	if atoms.BackingFact(zedAtom) == oldFid {
		t.Fatal("fixture: revived atom kept its fact id")
	}
	checkCanonicalOrder(t, "revived under a new fact id", g)

	// Random toggles over a larger store, each synced through the delta
	// path.
	fst, fprog := footballFixture(t)
	fg, fcs := groundCold(t, fst, fprog, 2)
	fepoch := fst.Epoch()
	pool := fst.Graph()
	rng := rand.New(rand.NewSource(5))
	out := make(map[int]bool)
	for step := 0; step < 40; step++ {
		for k := 0; k < 1+rng.Intn(4); k++ {
			i := rng.Intn(len(pool))
			if out[i] {
				if _, err := fst.Add(pool[i]); err != nil {
					t.Fatal(err)
				}
			} else {
				fst.Remove(pool[i])
			}
			out[i] = !out[i]
		}
		syncStore(t, fg, fcs, fprog, &fepoch)
		checkCanonicalOrder(t, "football toggles", fg)
	}
}
