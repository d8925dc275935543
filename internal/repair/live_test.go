package repair

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/engine"
	"repro/internal/ground"
	"repro/internal/rdf"
	"repro/internal/temporal"
)

// Tests and fuzzing for the delta-maintained Outcome: random sequences
// of per-component records (install, revert to earlier content, retire,
// reorder across components) driven through the read-out cache's one
// pass against a from-scratch reference rebuild, guarding the
// global-index and deterministic-order invariants and the changelog's
// completeness.

// factClass names the outcome list a fact belongs to.
type factClass uint8

const (
	classKept factClass = iota + 1
	classRemoved
	classInferred
)

// checkInvariants validates the live outcome's deterministic-order and
// agreement invariants: each list strictly ascending in its id, every
// statement in exactly one list, and the held per-component records
// summing to the global lists.
func checkInvariants(c *ComponentCache) error {
	classOf := make(map[rdf.FactKey]factClass)
	for _, l := range []struct {
		name  string
		facts []Fact
		class factClass
	}{
		{"kept", c.kept, classKept},
		{"removed", c.removed, classRemoved},
		{"inferred", c.inferred, classInferred},
	} {
		for i, f := range l.facts {
			if i > 0 && l.facts[i-1].AtomID >= f.AtomID {
				return fmt.Errorf("%s not strictly ascending at %d (atom %d after %d)",
					l.name, i, f.AtomID, l.facts[i-1].AtomID)
			}
			if cls, dup := classOf[f.Quad.Fact()]; dup {
				return fmt.Errorf("%s fact %v is also listed under class %d", l.name, f.Quad.Fact(), cls)
			}
			classOf[f.Quad.Fact()] = l.class
		}
	}
	for i := range c.clusters {
		if i > 0 && c.clusters[i-1].Root >= c.clusters[i].Root {
			return fmt.Errorf("clusters not strictly ascending at %d", i)
		}
	}
	facts, clusters := 0, 0
	c.units.Each(func(_ ground.AtomID, u compUnit) {
		facts += len(u.kept) + len(u.removed) + len(u.inferred)
		clusters += len(u.clusters)
	})
	if facts != len(classOf) {
		return fmt.Errorf("held records sum to %d facts, lists hold %d", facts, len(classOf))
	}
	if clusters != len(c.clusters) {
		return fmt.Errorf("held records sum to %d clusters, list holds %d", clusters, len(c.clusters))
	}
	return nil
}

// synthFact builds a deterministic fact for a synthetic atom: the
// statement key derives from the atom id (globally unique), the
// content from variant, so re-applying the same variant reverts to
// byte-identical content and a different variant models a confidence
// or explanation change.
func synthFact(atom ground.AtomID, class factClass, variant uint64) Fact {
	conf := float64(variant%97)/100 + 0.01
	f := Fact{
		Quad: rdf.NewQuad(fmt.Sprintf("s%d", atom), "p", fmt.Sprintf("o%d", atom),
			temporal.MustNew(2000, 2004), conf),
		AtomID:  atom,
		Derived: class == classInferred,
	}
	if class == classRemoved && variant%3 == 0 {
		f.Explanations = []Explanation{{
			Rule:     "c",
			Partners: []rdf.FactKey{{S: rdf.NewIRI(fmt.Sprintf("w%d", variant%7)), P: rdf.NewIRI("p")}},
		}}
	}
	return f
}

// synthUnit builds a component's read-out unit from a content seed:
// which of the component's atom slots are populated, their classes and
// their contents all derive from the seed, so equal seeds produce
// byte-identical units.
func synthUnit(key ground.AtomID, seed uint64) *unit {
	rng := rand.New(rand.NewSource(int64(seed)))
	u := &unit{thresholdFiltered: rng.Intn(3)}
	for off := ground.AtomID(0); off < 12; off++ {
		if rng.Intn(3) == 0 {
			continue
		}
		atom := key + off
		class := factClass(off%3) + 1
		f := synthFact(atom, class, seed+uint64(off))
		switch class {
		case classKept:
			u.kept = append(u.kept, f)
		case classRemoved:
			u.removed = append(u.removed, f)
		case classInferred:
			u.inferred = append(u.inferred, f)
		}
	}
	if len(u.removed) > 0 {
		keys := make([]rdf.FactKey, 0, len(u.removed))
		for _, f := range u.removed {
			keys = append(keys, f.Quad.Fact())
		}
		u.clusters = []Cluster{{Root: u.removed[0].AtomID, Keys: keys}}
		u.violations = map[string]int{"c": 1 + rng.Intn(3)}
	}
	return u
}

func unitAtoms(u *unit) []ground.AtomID {
	var atoms []ground.AtomID
	for _, fs := range [][]Fact{u.kept, u.removed, u.inferred} {
		for _, f := range fs {
			atoms = append(atoms, f.AtomID)
		}
	}
	sort.Slice(atoms, func(i, j int) bool { return atoms[i] < atoms[j] })
	return atoms
}

// refHeld is the reference model: the unit each live component should
// currently contribute, plus its generation.
type refHeld struct {
	u   *unit
	gen uint64
}

// refOutcome assembles the reference Outcome from scratch over the
// model's units.
func refOutcome(ref map[ground.AtomID]*refHeld) *Outcome {
	var units []*unit
	for _, k := range sortedKeys(ref) {
		units = append(units, ref[k].u)
	}
	oc := &Outcome{}
	assembleOutcome(oc, units)
	return oc
}

func sortedKeys(ref map[ground.AtomID]*refHeld) []ground.AtomID {
	keys := make([]ground.AtomID, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// refFacts snapshots the model's facts per class, keyed by statement.
func refFacts(ref map[ground.AtomID]*refHeld) map[factClass]map[rdf.FactKey]Fact {
	out := map[factClass]map[rdf.FactKey]Fact{
		classKept: {}, classRemoved: {}, classInferred: {},
	}
	for _, h := range ref {
		for cls, fs := range map[factClass][]Fact{
			classKept: h.u.kept, classRemoved: h.u.removed, classInferred: h.u.inferred} {
			for _, f := range fs {
				out[cls][f.Quad.Fact()] = f
			}
		}
	}
	return out
}

func refClusters(ref map[ground.AtomID]*refHeld) map[ground.AtomID][]rdf.FactKey {
	out := map[ground.AtomID][]rdf.FactKey{}
	for _, h := range ref {
		for _, c := range h.u.clusters {
			out[c.Root] = c.Keys
		}
	}
	return out
}

// expectFactDelta diffs two snapshots the way the changelog must
// report them: content-compared by statement, sorted by atom id.
func expectFactDelta(prev, cur map[rdf.FactKey]Fact) (removed, added []Fact) {
	for k, f := range cur {
		if old, ok := prev[k]; !ok || !reflect.DeepEqual(old, f) {
			added = append(added, f)
		}
	}
	for k, f := range prev {
		if now, ok := cur[k]; !ok || !reflect.DeepEqual(now, f) {
			removed = append(removed, f)
		}
	}
	sortFacts(removed)
	sortFacts(added)
	return removed, added
}

func expectClusterDelta(prev, cur map[ground.AtomID][]rdf.FactKey) (removed, added [][]rdf.FactKey) {
	var rmRoots, adRoots []ground.AtomID
	for r, keys := range cur {
		if old, ok := prev[r]; !ok || !reflect.DeepEqual(old, keys) {
			adRoots = append(adRoots, r)
		}
	}
	for r, keys := range prev {
		if now, ok := cur[r]; !ok || !reflect.DeepEqual(now, keys) {
			rmRoots = append(rmRoots, r)
		}
	}
	sort.Slice(rmRoots, func(i, j int) bool { return rmRoots[i] < rmRoots[j] })
	sort.Slice(adRoots, func(i, j int) bool { return adRoots[i] < adRoots[j] })
	for _, r := range rmRoots {
		removed = append(removed, prev[r])
	}
	for _, r := range adRoots {
		added = append(added, cur[r])
	}
	return removed, added
}

// syncRef drives the read-out cache's one pass from the reference model
// — engine.Run over the scope, record, apply, as BeginComponents and
// Finish do — reusing only untouched components whose record is current.
// The hand-built plan has generation 0, so every pass scopes every
// component and retires vanished ones by enumeration.
func syncRef(t testing.TB, c *ComponentCache, ref map[ground.AtomID]*refHeld, touched ground.AtomID) {
	t.Helper()
	keys := sortedKeys(ref)
	plan := &engine.Plan{Comps: make([]ground.Component, len(keys))}
	for i, k := range keys {
		plan.Comps[i] = ground.Component{Key: k, Gen: ref[k].gen, Atoms: unitAtoms(ref[k].u)}
	}
	scope, _ := plan.Scope(c.store().Gen())
	units, cached, err := engine.Run(plan, scope, 1, c.store(),
		func(i int, e compUnit) (compUnit, bool) { return e, plan.Comps[i].Key != touched },
		func(i int) (compUnit, error) { return compUnit{unit: *ref[plan.Comps[i].Key].u}, nil })
	if err != nil {
		t.Fatal(err)
	}
	c.apply(c.record(plan, scope, units, cached))
}

func FuzzOutcomePatch(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 3, 1, 0, 1})
	f.Add([]byte{0, 0, 4, 0, 0, 0, 3, 0, 0, 0})
	f.Add([]byte{2, 5, 2, 4, 3, 5, 2, 5, 1, 1, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewComponentCache()
		ref := map[ground.AtomID]*refHeld{}
		gen := uint64(0)
		for i := 0; i+1 < len(data) && i < 128; i += 2 {
			op, sel := data[i], data[i+1]
			key := ground.AtomID(int(sel)%6) * 100
			prevFacts, prevClusters := refFacts(ref), refClusters(ref)
			gen++
			if op%4 == 3 {
				// Retire the component entirely.
				delete(ref, key)
			} else {
				// Install a unit whose content derives from the op byte
				// alone: re-applying an earlier op byte reverts the
				// component to byte-identical earlier content (the
				// changelog must then cancel to empty for it).
				ref[key] = &refHeld{u: synthUnit(key, uint64(op%4)*31), gen: gen}
			}
			syncRef(t, c, ref, key)

			if err := checkInvariants(c); err != nil {
				t.Fatalf("op %d: invariant violated: %v", i/2, err)
			}
			want := refOutcome(ref)
			got := &Outcome{}
			c.materialize(got)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("op %d: patched outcome diverged from reference rebuild\ngot:  %+v\nwant: %+v",
					i/2, got.Stats, want.Stats)
			}

			curFacts, curClusters := refFacts(ref), refClusters(ref)
			for _, c := range []struct {
				class        factClass
				gotRm, gotAd []Fact
				name         string
			}{
				{classKept, c.delta.RemovedKept, c.delta.AddedKept, "kept"},
				{classRemoved, c.delta.RemovedRemoved, c.delta.AddedRemoved, "removed"},
				{classInferred, c.delta.RemovedInferred, c.delta.AddedInferred, "inferred"},
			} {
				wantRm, wantAd := expectFactDelta(prevFacts[c.class], curFacts[c.class])
				if !reflect.DeepEqual(c.gotRm, wantRm) || !reflect.DeepEqual(c.gotAd, wantAd) {
					t.Fatalf("op %d: %s changelog wrong\ngot -%v +%v\nwant -%v +%v",
						i/2, c.name, c.gotRm, c.gotAd, wantRm, wantAd)
				}
			}
			wantRmC, wantAdC := expectClusterDelta(prevClusters, curClusters)
			if !reflect.DeepEqual(c.delta.RemovedClusters, wantRmC) ||
				!reflect.DeepEqual(c.delta.AddedClusters, wantAdC) {
				t.Fatalf("op %d: cluster changelog wrong\ngot -%v +%v\nwant -%v +%v",
					i/2, c.delta.RemovedClusters, c.delta.AddedClusters, wantRmC, wantAdC)
			}
		}
	})
}

// TestSpliceWindow exercises the copy-on-write window splice directly:
// removals and insertions interleaved with untouched prefix/suffix,
// equal-id replacement, and pure inserts/deletes.
func TestSpliceWindow(t *testing.T) {
	mk := func(ids ...ground.AtomID) []Fact {
		fs := make([]Fact, 0, len(ids))
		for _, id := range ids {
			fs = append(fs, synthFact(id, classKept, uint64(id)))
		}
		return fs
	}
	ids := func(fs []Fact) []ground.AtomID {
		out := make([]ground.AtomID, 0, len(fs))
		for _, f := range fs {
			out = append(out, f.AtomID)
		}
		return out
	}
	factID := func(f Fact) ground.AtomID { return f.AtomID }

	base := mk(1, 5, 9, 12, 20)
	got := splice(base, mk(5, 12), mk(6, 7, 13), factID)
	if want := []ground.AtomID{1, 6, 7, 9, 13, 20}; !reflect.DeepEqual(ids(got), want) {
		t.Fatalf("splice = %v, want %v", ids(got), want)
	}
	// The untouched input must not be mutated (copy-on-write).
	if want := []ground.AtomID{1, 5, 9, 12, 20}; !reflect.DeepEqual(ids(base), want) {
		t.Fatalf("splice mutated its input: %v", ids(base))
	}
	// Equal-id replacement (a re-patched fact keeps its atom).
	got = splice(base, mk(9), mk(9), factID)
	if want := []ground.AtomID{1, 5, 9, 12, 20}; !reflect.DeepEqual(ids(got), want) {
		t.Fatalf("equal-id splice = %v, want %v", ids(got), want)
	}
	// Pure insert past the end, pure delete, and the no-op fast path.
	if got := splice(base, nil, mk(25), factID); !reflect.DeepEqual(ids(got), []ground.AtomID{1, 5, 9, 12, 20, 25}) {
		t.Fatalf("append splice = %v", ids(got))
	}
	if got := splice(base, mk(1, 20), nil, factID); !reflect.DeepEqual(ids(got), []ground.AtomID{5, 9, 12}) {
		t.Fatalf("trim splice = %v", ids(got))
	}
	if got := splice(base, nil, nil, factID); len(got) != len(base) {
		t.Fatalf("no-op splice changed length: %d", len(got))
	}
}

// TestLiveOutcomeClassMove re-repairs a component so a statement moves
// between lists (kept → removed): the global index must track the
// move and the changelog must report both sides.
func TestLiveOutcomeClassMove(t *testing.T) {
	c := NewComponentCache()
	key := ground.AtomID(0)
	f := synthFact(3, classKept, 7)
	v1 := &unit{kept: []Fact{f}}
	ref := map[ground.AtomID]*refHeld{key: {u: v1, gen: 1}}
	syncRef(t, c, ref, key)
	if err := checkInvariants(c); err != nil {
		t.Fatal(err)
	}

	moved := f
	moved.Explanations = []Explanation{{Rule: "c"}}
	v2 := &unit{removed: []Fact{moved},
		violations: map[string]int{"c": 1},
		clusters:   []Cluster{{Root: 3, Keys: []rdf.FactKey{f.Quad.Fact()}}}}
	ref[key] = &refHeld{u: v2, gen: 2}
	syncRef(t, c, ref, key)
	if err := checkInvariants(c); err != nil {
		t.Fatal(err)
	}
	if len(c.kept) != 0 || len(c.removed) != 1 || c.removed[0].Quad.Fact() != f.Quad.Fact() {
		t.Fatalf("lists did not follow the class move: kept %v removed %v", c.kept, c.removed)
	}
	d := c.delta
	if len(d.RemovedKept) != 1 || len(d.AddedRemoved) != 1 || len(d.AddedClusters) != 1 {
		t.Fatalf("class move changelog wrong: %+v", d)
	}
	if len(d.AddedKept) != 0 || len(d.RemovedRemoved) != 0 {
		t.Fatalf("class move fabricated changes: %+v", d)
	}
	oc := &Outcome{}
	c.materialize(oc)
	if oc.Stats.KeptFacts != 0 || oc.Stats.RemovedFacts != 1 || oc.Stats.ConflictClusters != 1 {
		t.Fatalf("materialized state wrong after class move: %+v", oc.Stats)
	}
}

// TestLiveOutcomeIdenticalRepatch re-applies byte-identical content
// under a bumped generation: the lists are respliced but the changelog
// must cancel to empty — reuse did not change the outcome.
func TestLiveOutcomeIdenticalRepatch(t *testing.T) {
	c := NewComponentCache()
	key := ground.AtomID(100)
	ref := map[ground.AtomID]*refHeld{key: {u: synthUnit(key, 42), gen: 1}}
	syncRef(t, c, ref, key)
	before := &Outcome{}
	c.materialize(before)

	ref[key] = &refHeld{u: synthUnit(key, 42), gen: 2} // same content, new gen
	syncRef(t, c, ref, key)
	if !c.delta.Empty() {
		t.Fatalf("identical re-patch produced a delta: %+v", c.delta)
	}
	after := &Outcome{}
	c.materialize(after)
	if !reflect.DeepEqual(before, after) {
		t.Fatal("identical re-patch changed the materialized outcome")
	}
	if err := checkInvariants(c); err != nil {
		t.Fatal(err)
	}
}

// TestLiveOutcomeReset replaces a synced cache with a new one (what the
// session does on every cache invalidation): the next pass rebuilds and
// reports the full state as added.
func TestLiveOutcomeReset(t *testing.T) {
	c := NewComponentCache()
	key := ground.AtomID(200)
	ref := map[ground.AtomID]*refHeld{key: {u: synthUnit(key, 9), gen: 1}}
	syncRef(t, c, ref, key)
	c = NewComponentCache()
	if len(c.kept)+len(c.removed)+len(c.inferred) != 0 {
		t.Fatal("a new cache holds state")
	}
	syncRef(t, c, ref, ground.AtomID(-1)) // nothing touched, but no record is held
	d := c.delta
	if len(d.RemovedKept)+len(d.RemovedRemoved)+len(d.RemovedInferred) != 0 {
		t.Fatalf("rebuild after reset removed facts: %+v", d)
	}
	want := refOutcome(ref)
	got := &Outcome{}
	c.materialize(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("rebuild after reset diverged from reference")
	}
}
