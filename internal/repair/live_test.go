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

// Tests and fuzzing for the delta-maintained Outcome: random patch
// sequences (apply, revert to earlier content, retire, reorder across
// components) against a from-scratch reference rebuild, guarding the
// global-index and deterministic-order invariants and the changelog's
// completeness.

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

// synthPatch builds a component's patch from a content seed: which of
// the component's atom slots are populated, their classes and their
// contents all derive from the seed, so equal seeds produce
// byte-identical patches.
func synthPatch(key ground.AtomID, seed uint64) *Patch {
	rng := rand.New(rand.NewSource(int64(seed)))
	p := &Patch{Component: key, ThresholdFiltered: rng.Intn(3)}
	for off := ground.AtomID(0); off < 12; off++ {
		if rng.Intn(3) == 0 {
			continue
		}
		atom := key + off
		class := factClass(off%3) + 1
		f := synthFact(atom, class, seed+uint64(off))
		switch class {
		case classKept:
			p.Kept = append(p.Kept, f)
		case classRemoved:
			p.Removed = append(p.Removed, f)
		case classInferred:
			p.Inferred = append(p.Inferred, f)
		}
	}
	if len(p.Removed) > 0 {
		keys := make([]rdf.FactKey, 0, len(p.Removed))
		for _, f := range p.Removed {
			keys = append(keys, f.Quad.Fact())
		}
		p.Clusters = []Cluster{{Root: p.Removed[0].AtomID, Keys: keys}}
		p.Violations = map[string]int{"c": 1 + rng.Intn(3)}
	}
	return p
}

func patchAtoms(p *Patch) []ground.AtomID {
	var atoms []ground.AtomID
	for _, fs := range [][]Fact{p.Kept, p.Removed, p.Inferred} {
		for _, f := range fs {
			atoms = append(atoms, f.AtomID)
		}
	}
	sort.Slice(atoms, func(i, j int) bool { return atoms[i] < atoms[j] })
	return atoms
}

func patchUnit(p *Patch) *unit {
	return &unit{
		kept: p.Kept, removed: p.Removed, inferred: p.Inferred,
		clusters: p.Clusters, violations: p.Violations,
		thresholdFiltered: p.ThresholdFiltered,
	}
}

// refHeld is the reference model: the patch each live component should
// currently contribute, plus its generation.
type refHeld struct {
	p   *Patch
	gen uint64
}

// refOutcome assembles the reference Outcome from scratch over the
// model's patches.
func refOutcome(ref map[ground.AtomID]*refHeld) *Outcome {
	var units []*unit
	for _, k := range sortedKeys(ref) {
		units = append(units, patchUnit(ref[k].p))
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
			classKept: h.p.Kept, classRemoved: h.p.Removed, classInferred: h.p.Inferred} {
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
		for _, c := range h.p.Clusters {
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

// syncRef drives one live-outcome sync from the reference model,
// marking only touched (or absent) components dirty. The hand-built plan
// has generation 0, so every sync scopes every component and retires
// vanished ones by enumeration.
func syncRef(lo *LiveOutcome, ref map[ground.AtomID]*refHeld, touched ground.AtomID) {
	keys := sortedKeys(ref)
	plan := &engine.Plan{Comps: make([]ground.Component, len(keys))}
	for i, k := range keys {
		plan.Comps[i] = ground.Component{Key: k, Gen: ref[k].gen, Atoms: patchAtoms(ref[k].p)}
	}
	scope, _ := plan.Scope(0)
	lo.sync(plan, scope,
		func(k int) bool { return plan.Comps[k].Key != touched },
		func(k int) *Patch { return ref[plan.Comps[k].Key].p })
}

func FuzzOutcomePatch(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 3, 1, 0, 1})
	f.Add([]byte{0, 0, 4, 0, 0, 0, 3, 0, 0, 0})
	f.Add([]byte{2, 5, 2, 4, 3, 5, 2, 5, 1, 1, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		lo := NewLiveOutcome()
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
				// Apply a patch whose content derives from the op byte
				// alone: re-applying an earlier op byte reverts the
				// component to byte-identical earlier content (the
				// changelog must then cancel to empty for it).
				ref[key] = &refHeld{p: synthPatch(key, uint64(op%4)*31), gen: gen}
			}
			syncRef(lo, ref, key)

			if err := lo.checkInvariants(); err != nil {
				t.Fatalf("op %d: invariant violated: %v", i/2, err)
			}
			want := refOutcome(ref)
			got := &Outcome{}
			lo.materialize(got)
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
				{classKept, lo.delta.RemovedKept, lo.delta.AddedKept, "kept"},
				{classRemoved, lo.delta.RemovedRemoved, lo.delta.AddedRemoved, "removed"},
				{classInferred, lo.delta.RemovedInferred, lo.delta.AddedInferred, "inferred"},
			} {
				wantRm, wantAd := expectFactDelta(prevFacts[c.class], curFacts[c.class])
				if !reflect.DeepEqual(c.gotRm, wantRm) || !reflect.DeepEqual(c.gotAd, wantAd) {
					t.Fatalf("op %d: %s changelog wrong\ngot -%v +%v\nwant -%v +%v",
						i/2, c.name, c.gotRm, c.gotAd, wantRm, wantAd)
				}
			}
			wantRmC, wantAdC := expectClusterDelta(prevClusters, curClusters)
			if !reflect.DeepEqual(lo.delta.RemovedClusters, wantRmC) ||
				!reflect.DeepEqual(lo.delta.AddedClusters, wantAdC) {
				t.Fatalf("op %d: cluster changelog wrong\ngot -%v +%v\nwant -%v +%v",
					i/2, lo.delta.RemovedClusters, lo.delta.AddedClusters, wantRmC, wantAdC)
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

// TestLiveOutcomeClassMove re-patches a component so a statement moves
// between lists (kept → removed): the global index must track the
// move and the changelog must report both sides.
func TestLiveOutcomeClassMove(t *testing.T) {
	lo := NewLiveOutcome()
	key := ground.AtomID(0)
	f := synthFact(3, classKept, 7)
	v1 := &Patch{Component: key, Kept: []Fact{f}}
	ref := map[ground.AtomID]*refHeld{key: {p: v1, gen: 1}}
	syncRef(lo, ref, key)
	if err := lo.checkInvariants(); err != nil {
		t.Fatal(err)
	}

	moved := f
	moved.Explanations = []Explanation{{Rule: "c"}}
	v2 := &Patch{Component: key, Removed: []Fact{moved},
		Violations: map[string]int{"c": 1},
		Clusters:   []Cluster{{Root: 3, Keys: []rdf.FactKey{f.Quad.Fact()}}}}
	ref[key] = &refHeld{p: v2, gen: 2}
	syncRef(lo, ref, key)
	if err := lo.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if len(lo.kept) != 0 || len(lo.removed) != 1 || lo.removed[0].Quad.Fact() != f.Quad.Fact() {
		t.Fatalf("lists did not follow the class move: kept %v removed %v", lo.kept, lo.removed)
	}
	d := lo.delta
	if len(d.RemovedKept) != 1 || len(d.AddedRemoved) != 1 || len(d.AddedClusters) != 1 {
		t.Fatalf("class move changelog wrong: %+v", d)
	}
	if len(d.AddedKept) != 0 || len(d.RemovedRemoved) != 0 {
		t.Fatalf("class move fabricated changes: %+v", d)
	}
	oc := &Outcome{}
	lo.materialize(oc)
	if oc.Stats.KeptFacts != 0 || oc.Stats.RemovedFacts != 1 || oc.Stats.ConflictClusters != 1 {
		t.Fatalf("materialized state wrong after class move: %+v", oc.Stats)
	}
}

// TestLiveOutcomeIdenticalRepatch re-applies byte-identical content
// under a bumped generation: the lists are respliced but the changelog
// must cancel to empty — reuse did not change the outcome.
func TestLiveOutcomeIdenticalRepatch(t *testing.T) {
	lo := NewLiveOutcome()
	key := ground.AtomID(100)
	ref := map[ground.AtomID]*refHeld{key: {p: synthPatch(key, 42), gen: 1}}
	syncRef(lo, ref, key)
	before := &Outcome{}
	lo.materialize(before)

	ref[key] = &refHeld{p: synthPatch(key, 42), gen: 2} // same content, new gen
	syncRef(lo, ref, key)
	if !lo.delta.Empty() {
		t.Fatalf("identical re-patch produced a delta: %+v", lo.delta)
	}
	after := &Outcome{}
	lo.materialize(after)
	if !reflect.DeepEqual(before, after) {
		t.Fatal("identical re-patch changed the materialized outcome")
	}
	if err := lo.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestLiveOutcomeReset replaces a synced live outcome with a new one
// (what the session does on every cache invalidation): the next sync
// rebuilds and reports the full state as added.
func TestLiveOutcomeReset(t *testing.T) {
	lo := NewLiveOutcome()
	key := ground.AtomID(200)
	ref := map[ground.AtomID]*refHeld{key: {p: synthPatch(key, 9), gen: 1}}
	syncRef(lo, ref, key)
	lo = NewLiveOutcome()
	if len(lo.kept)+len(lo.removed)+len(lo.inferred) != 0 {
		t.Fatal("a new live outcome holds state")
	}
	syncRef(lo, ref, ground.AtomID(-1)) // nothing touched, but held cache is empty
	d := lo.delta
	if len(d.RemovedKept)+len(d.RemovedRemoved)+len(d.RemovedInferred) != 0 {
		t.Fatalf("rebuild after Reset removed facts: %+v", d)
	}
	want := refOutcome(ref)
	got := &Outcome{}
	lo.materialize(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("rebuild after Reset diverged from reference")
	}
}
