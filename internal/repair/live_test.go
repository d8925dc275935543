package repair

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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
// agreement invariants: each list strictly ascending in its id and laid
// out exactly as the bulk build of its elements, every statement in
// exactly one list, and the held per-component records summing to the
// global lists.
func checkInvariants(c *ComponentCache) error {
	classOf := make(map[rdf.FactKey]factClass)
	for _, l := range []struct {
		name  string
		list  List[Fact]
		class factClass
	}{
		{"kept", c.kept, classKept},
		{"removed", c.removed, classRemoved},
		{"inferred", c.inferred, classInferred},
	} {
		facts := collect(l.list.Each)
		if !reflect.DeepEqual(l.list, newList(facts)) {
			return fmt.Errorf("%s layout differs from the bulk build of its %d facts", l.name, len(facts))
		}
		for i, f := range facts {
			if i > 0 && facts[i-1].AtomID >= f.AtomID {
				return fmt.Errorf("%s not strictly ascending at %d (atom %d after %d)",
					l.name, i, f.AtomID, facts[i-1].AtomID)
			}
			if cls, dup := classOf[f.Quad.Fact()]; dup {
				return fmt.Errorf("%s fact %v is also listed under class %d", l.name, f.Quad.Fact(), cls)
			}
			classOf[f.Quad.Fact()] = l.class
		}
	}
	clusters := collect(c.clusters.Each)
	if !reflect.DeepEqual(c.clusters, newList(clusters)) {
		return fmt.Errorf("cluster layout differs from the bulk build of its %d clusters", len(clusters))
	}
	for i := range clusters {
		if i > 0 && clusters[i-1].Root >= clusters[i].Root {
			return fmt.Errorf("clusters not strictly ascending at %d", i)
		}
	}
	facts, held := 0, 0
	c.units.Each(func(_ ground.AtomID, u compUnit) {
		facts += len(u.kept) + len(u.removed) + len(u.inferred)
		held += len(u.clusters)
	})
	if facts != len(classOf) {
		return fmt.Errorf("held records sum to %d facts, lists hold %d", facts, len(classOf))
	}
	if held != len(clusters) {
		return fmt.Errorf("held records sum to %d clusters, list holds %d", held, len(clusters))
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

// synthComps is the number of synthetic components; component k owns
// the atoms k, k+synthComps, k+2·synthComps, ..., so every component's
// facts interleave with every other's across the lists' chunks.
const synthComps = 6

// synthUnit builds a component's read-out unit from a content seed: its
// size (up to a few hundred atom slots, several chunks' worth), which
// slots are populated, their classes and their contents all derive from
// the seed, so equal seeds produce byte-identical units.
func synthUnit(key ground.AtomID, seed uint64) *unit {
	rng := rand.New(rand.NewSource(int64(seed)))
	u := &unit{thresholdFiltered: rng.Intn(3)}
	slots := rng.Intn(400)
	for off := 0; off < slots; off++ {
		if rng.Intn(3) == 0 {
			continue
		}
		atom := key + ground.AtomID(off*synthComps)
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
	// One cluster per run of up to three removed facts, rooted at the
	// run's first atom.
	for i := 0; i < len(u.removed); i += 3 {
		run := u.removed[i:min(i+3, len(u.removed))]
		keys := make([]rdf.FactKey, 0, len(run))
		for _, f := range run {
			keys = append(keys, f.Quad.Fact())
		}
		u.clusters = append(u.clusters, Cluster{Root: run[0].AtomID, Keys: keys})
	}
	if len(u.removed) > 0 {
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

func refClusters(ref map[ground.AtomID]*refHeld) map[ground.AtomID]Cluster {
	out := map[ground.AtomID]Cluster{}
	for _, h := range ref {
		for _, c := range h.u.clusters {
			out[c.Root] = c
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
	byAtom := func(a, b Fact) int { return int(a.AtomID) - int(b.AtomID) }
	slices.SortFunc(removed, byAtom)
	slices.SortFunc(added, byAtom)
	return removed, added
}

func expectClusterDelta(prev, cur map[ground.AtomID]Cluster) (removed, added []Cluster) {
	for r, c := range cur {
		if old, ok := prev[r]; !ok || !reflect.DeepEqual(old, c) {
			added = append(added, c)
		}
	}
	for r, c := range prev {
		if now, ok := cur[r]; !ok || !reflect.DeepEqual(now, c) {
			removed = append(removed, c)
		}
	}
	byRoot := func(a, b Cluster) int { return int(a.Root) - int(b.Root) }
	slices.SortFunc(removed, byRoot)
	slices.SortFunc(added, byRoot)
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
			key := ground.AtomID(int(sel) % synthComps)
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
			// The reference is the bulk build over the model's units, so
			// this compares the lists' chunk layout too, and the maintained
			// RemovedWeight against one summed from scratch.
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

// TestListSplice exercises List.splice directly against the bulk build
// of the expected contents (chunk layout included): boundary elements
// entering and leaving, a whole chunk leaving, an insert into an empty
// list, an equal-id replacement, edits past either end — and the input
// List left unmutated every time.
func TestListSplice(t *testing.T) {
	mk := func(variant uint64, ids ...ground.AtomID) []Fact {
		fs := make([]Fact, 0, len(ids))
		for _, id := range ids {
			fs = append(fs, synthFact(id, classRemoved, variant+uint64(id)))
		}
		return fs
	}
	span := func(lo, hi ground.AtomID, skip ...ground.AtomID) []ground.AtomID {
		var ids []ground.AtomID
		for id := lo; id < hi; id++ {
			if !slices.Contains(skip, id) {
				ids = append(ids, id)
			}
		}
		return ids
	}
	// Boundary elements in [0, 1000): b[1] ends the second chunk of the
	// full span, which starts right after b[0].
	var b []ground.AtomID
	for id := ground.AtomID(0); id < 1000; id++ {
		if endsChunk(id) {
			b = append(b, id)
		}
	}
	if len(b) < 4 {
		t.Fatalf("only %d boundary ids below 1000", len(b))
	}
	// Two non-boundary elements inside the second chunk.
	var mid []ground.AtomID
	for id := b[0] + 1; len(mid) < 2; id++ {
		if !endsChunk(id) {
			mid = append(mid, id)
		}
	}

	for _, tc := range []struct {
		name        string
		base        []ground.AtomID
		rm, ad      []ground.AtomID
		want        []ground.AtomID
		chunksDelta int
	}{
		{"boundary inserted mid-chunk", span(0, 1000, b[1]), nil, []ground.AtomID{b[1]}, span(0, 1000), +1},
		{"boundary removed", span(0, 1000), []ground.AtomID{b[1]}, nil, span(0, 1000, b[1]), -1},
		{"whole chunk removed", span(0, 1000), span(b[0]+1, b[1]+1), nil, append(span(0, b[0]+1), span(b[1]+1, 1000)...), -1},
		{"insert into empty list", nil, nil, []ground.AtomID{3, b[2], 999}, []ground.AtomID{3, b[2], 999}, 0},
		{"non-boundary removed and inserted", span(0, 1000, mid[1]), mid[:1], mid[1:], span(0, 1000, mid[0]), 0},
		{"append past the end", span(0, 500), nil, []ground.AtomID{600, 700}, append(span(0, 500), 600, 700), 0},
		{"trim both ends", span(0, 1000), []ground.AtomID{0, 999}, nil, span(1, 999), 0},
		{"remove everything", span(0, 10), span(0, 10), nil, nil, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := newList(mk(0, tc.base...))
			frozen := newList(mk(0, tc.base...))
			ad := mk(0, tc.ad...)
			got := base.splice(mk(0, tc.rm...), ad)
			clear(ad) // the caller keeps its slices: the changelog
			want := newList(mk(0, tc.want...))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("splice result differs from the bulk build: %d elements in %d chunks, want %d in %d",
					got.Len(), len(got.chunks), want.Len(), len(want.chunks))
			}
			if tc.chunksDelta != 0 && len(got.chunks)-len(base.chunks) != tc.chunksDelta {
				t.Fatalf("chunks %d → %d, want a change of %+d", len(base.chunks), len(got.chunks), tc.chunksDelta)
			}
			if !reflect.DeepEqual(base, frozen) {
				t.Fatal("splice mutated its input list")
			}
		})
	}

	// An equal-id replacement (a re-repaired fact keeps its atom) swaps
	// the content in place.
	replaced := []ground.AtomID{b[0], b[1]}
	var wantFacts []Fact
	for _, id := range span(0, 1000) {
		variant := uint64(0)
		if slices.Contains(replaced, id) {
			variant = 2
		}
		wantFacts = append(wantFacts, mk(variant, id)...)
	}
	base := newList(mk(0, span(0, 1000)...))
	got := base.splice(mk(0, replaced...), mk(2, replaced...))
	if want := newList(wantFacts); !reflect.DeepEqual(got, want) {
		t.Fatal("equal-id replacement differs from the bulk build")
	}
	if got := base.splice(nil, nil); !reflect.DeepEqual(got, base) {
		t.Fatal("no-op splice changed the list")
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
	removed := collect(c.removed.Each)
	if c.kept.Len() != 0 || len(removed) != 1 || removed[0].Quad.Fact() != f.Quad.Fact() {
		t.Fatalf("lists did not follow the class move: kept %d removed %v", c.kept.Len(), removed)
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
	if c.kept.Len()+c.removed.Len()+c.inferred.Len() != 0 {
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

// collect gathers a List's elements through its Each method.
func collect[T any](each func(func(T) bool)) []T {
	var out []T
	each(func(x T) bool {
		out = append(out, x)
		return true
	})
	return out
}
