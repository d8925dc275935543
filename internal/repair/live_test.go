package repair

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/ground"
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
// out exactly as the bulk build of its records, every atom in exactly
// one list, and the ids the records of the model's components hold
// summing to the global lists.
func checkInvariants(c *ComponentCache, ref map[ground.AtomID]*refHeld) error {
	classOf := make(map[ground.AtomID]factClass)
	check := func(name string, class factClass, facts []fact, sameLayout bool) error {
		if !sameLayout {
			return fmt.Errorf("%s layout differs from the bulk build of its %d facts", name, len(facts))
		}
		for i, f := range facts {
			if i > 0 && facts[i-1].id >= f.id {
				return fmt.Errorf("%s not strictly ascending at %d (atom %d after %d)",
					name, i, f.id, facts[i-1].id)
			}
			if cls, dup := classOf[f.id]; dup {
				return fmt.Errorf("%s fact %d is also listed under class %d", name, f.id, cls)
			}
			classOf[f.id] = class
		}
		return nil
	}
	kept, inferred := collect(c.kept.Each), collect(c.inferred.Each)
	removed := collect(c.removed.Each)
	removedFacts := make([]fact, len(removed))
	for i, r := range removed {
		removedFacts[i] = r.fact
	}
	for _, err := range []error{
		check("kept", classKept, kept, reflect.DeepEqual(c.kept, newList(kept))),
		check("removed", classRemoved, removedFacts, reflect.DeepEqual(c.removed, newList(removed))),
		check("inferred", classInferred, inferred, reflect.DeepEqual(c.inferred, newList(inferred))),
	} {
		if err != nil {
			return err
		}
	}
	clusters := collect(c.clusters.Each)
	if !reflect.DeepEqual(c.clusters, newList(clusters)) {
		return fmt.Errorf("cluster layout differs from the bulk build of its %d clusters", len(clusters))
	}
	for i := range clusters {
		if i > 0 && clusters[i-1].root >= clusters[i].root {
			return fmt.Errorf("clusters not strictly ascending at %d", i)
		}
	}
	var hs []held
	fresh := 0
	plan := refPlan(ref)
	for i := range plan.Comps {
		u, ok := c.units.Lookup(&plan.Comps[i])
		if !ok {
			return fmt.Errorf("component %d holds no current record", plan.Comps[i].Key)
		}
		if u.fresh != nil {
			fresh++
		}
		hs = append(hs, u.held)
	}
	if fresh > 0 {
		return fmt.Errorf("%d stored records still carry their unit's records", fresh)
	}
	for _, l := range []struct {
		name      string
		held, got []ground.AtomID
	}{
		{"kept", gatherIDs(hs, keptIDs), listIDs(kept)},
		{"removed", gatherIDs(hs, removedIDs), listIDs(removed)},
		{"inferred", gatherIDs(hs, inferredIDs), listIDs(inferred)},
		{"cluster", gatherIDs(hs, clusterIDs), listIDs(clusters)},
	} {
		if !slices.Equal(l.held, l.got) {
			return fmt.Errorf("held records hold %d %s ids, the list %d (or other ids)", len(l.held), l.name, len(l.got))
		}
	}
	return nil
}

// listIDs lists the records' ids in order.
func listIDs[T listItem[T]](xs []T) []ground.AtomID {
	ids := make([]ground.AtomID, 0, len(xs))
	for _, x := range xs {
		ids = append(ids, x.listID())
	}
	return ids
}

// synthFact builds a deterministic fact record for a synthetic atom: the
// content derives from variant, so re-applying the same variant reverts
// to identical content and a different variant models a confidence
// change.
func synthFact(atom ground.AtomID, class factClass, variant uint64) fact {
	return fact{id: atom, derived: class == classInferred, conf: float64(variant%97)/100 + 0.01}
}

// synthRemoved is synthFact for a removed fact, which some variants
// explain by a grounding with a variant-chosen partner.
func synthRemoved(atom ground.AtomID, variant uint64) removedFact {
	r := removedFact{fact: synthFact(atom, classRemoved, variant)}
	if variant%3 == 0 {
		r.ex = []exPart{{rule: "c", partner: ground.AtomID(variant % 7), end: true}}
	}
	return r
}

// synthComps is the number of synthetic components; component k owns
// the atoms k, k+synthComps, k+2·synthComps, ..., so every component's
// facts interleave with every other's across the lists' chunks.
const synthComps = 6

// synthUnit builds a component's read-out unit from a content seed: its
// size (up to a few hundred atom slots, several chunks' worth), which
// slots are populated, their classes and their contents all derive from
// the seed, so equal seeds produce identical units.
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
		variant := seed + uint64(off)
		switch class {
		case classKept:
			u.kept = append(u.kept, synthFact(atom, class, variant))
		case classRemoved:
			u.removed = append(u.removed, synthRemoved(atom, variant))
		case classInferred:
			u.inferred = append(u.inferred, synthFact(atom, class, variant))
		}
	}
	// One cluster per run of up to three removed facts, rooted at the
	// run's first atom.
	for i := 0; i < len(u.removed); i += 3 {
		run := u.removed[i:min(i+3, len(u.removed))]
		members := make([]ground.AtomID, 0, len(run))
		for _, f := range run {
			members = append(members, f.id)
		}
		u.clusters = append(u.clusters, cluster{root: run[0].id, members: members})
	}
	if len(u.removed) > 0 {
		u.violations = map[string]int{"c": 1 + rng.Intn(3)}
	}
	return u
}

func unitAtoms(u *unit) []ground.AtomID {
	var atoms []ground.AtomID
	for _, f := range u.kept {
		atoms = append(atoms, f.id)
	}
	for _, f := range u.removed {
		atoms = append(atoms, f.id)
	}
	for _, f := range u.inferred {
		atoms = append(atoms, f.id)
	}
	slices.Sort(atoms)
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
	assembleOutcome(oc, units, ground.KeyView{})
	return oc
}

func sortedKeys(ref map[ground.AtomID]*refHeld) []ground.AtomID {
	keys := make([]ground.AtomID, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// refRecords snapshots one list of the model, keyed by id.
func refRecords[T listItem[T]](ref map[ground.AtomID]*refHeld, sel func(*unit) []T) map[ground.AtomID]T {
	out := map[ground.AtomID]T{}
	for _, h := range ref {
		for _, x := range sel(h.u) {
			out[x.listID()] = x
		}
	}
	return out
}

// refSnapshot is the model's four lists.
type refSnapshot struct {
	kept, inferred map[ground.AtomID]fact
	removed        map[ground.AtomID]removedFact
	clusters       map[ground.AtomID]cluster
}

func snapshotRef(ref map[ground.AtomID]*refHeld) refSnapshot {
	return refSnapshot{
		kept:     refRecords(ref, keptOf),
		inferred: refRecords(ref, inferredOf),
		removed:  refRecords(ref, removedOf),
		clusters: refRecords(ref, clustersOf),
	}
}

// expectDelta diffs two snapshots of a list the way the changelog must
// report them: content-compared by id, sorted by id.
func expectDelta[T listItem[T]](prev, cur map[ground.AtomID]T) (removed, added []T) {
	for id, x := range cur {
		if old, ok := prev[id]; !ok || !old.equal(x) {
			added = append(added, x)
		}
	}
	for id, x := range prev {
		if now, ok := cur[id]; !ok || !now.equal(x) {
			removed = append(removed, x)
		}
	}
	byID := func(a, b T) int { return int(a.listID()) - int(b.listID()) }
	slices.SortFunc(removed, byID)
	slices.SortFunc(added, byID)
	return removed, added
}

// checkDelta compares one list's changelog with the expected one.
func checkDelta[T listItem[T]](name string, rm, ad List[T], prev, cur map[ground.AtomID]T) error {
	gotRm, gotAd := collect(rm.Each), collect(ad.Each)
	wantRm, wantAd := expectDelta(prev, cur)
	if !reflect.DeepEqual(gotRm, wantRm) || !reflect.DeepEqual(gotAd, wantAd) {
		return fmt.Errorf("%s changelog wrong\ngot -%v +%v\nwant -%v +%v", name, gotRm, gotAd, wantRm, wantAd)
	}
	return nil
}

// refPlan is the partition of the reference model: one component per
// unit, in key order.
func refPlan(ref map[ground.AtomID]*refHeld) *engine.Plan {
	keys := sortedKeys(ref)
	plan := &engine.Plan{Comps: make([]ground.Component, len(keys))}
	for i, k := range keys {
		plan.Comps[i] = ground.Component{Key: k, Gen: ref[k].gen, Atoms: unitAtoms(ref[k].u)}
	}
	return plan
}

// syncRef drives the read-out cache's one pass from the reference model
// — the pass and apply BeginComponents and Finish run — reusing only
// untouched components whose record is current, and returns the
// changelog. The hand-built plan has generation 0, so every pass scopes
// every component and retires vanished ones by enumeration.
func syncRef(t testing.TB, c *ComponentCache, ref map[ground.AtomID]*refHeld, touched ground.AtomID) *OutcomeDelta {
	t.Helper()
	plan := refPlan(ref)
	subtract, add, err := c.pass(plan, true, 1,
		func(i int, _ *compUnit) bool { return plan.Comps[i].Key != touched },
		func(i int) (compUnit, error) {
			u := *ref[plan.Comps[i].Key].u
			return compUnit{fresh: &u}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return c.apply(subtract, add, ground.KeyView{})
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
			prev := snapshotRef(ref)
			gen++
			if op%4 == 3 {
				// Retire the component entirely.
				delete(ref, key)
			} else {
				// Install a unit whose content derives from the op byte
				// alone: re-applying an earlier op byte reverts the
				// component to identical earlier content (the changelog
				// must then cancel to empty for it).
				ref[key] = &refHeld{u: synthUnit(key, uint64(op%4)*31), gen: gen}
			}
			d := syncRef(t, c, ref, key)

			if err := checkInvariants(c, ref); err != nil {
				t.Fatalf("op %d: invariant violated: %v", i/2, err)
			}
			// The reference is the bulk build over the model's units, so
			// this compares the lists' chunk layout too, and the maintained
			// RemovedWeight against one summed from scratch.
			want := refOutcome(ref)
			got := &Outcome{}
			c.materialize(got, ground.KeyView{})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("op %d: patched outcome diverged from reference rebuild\ngot:  %+v\nwant: %+v",
					i/2, got.Stats, want.Stats)
			}

			cur := snapshotRef(ref)
			for _, err := range []error{
				checkDelta("kept", d.RemovedKept.facts, d.AddedKept.facts, prev.kept, cur.kept),
				checkDelta("removed", d.RemovedRemoved.removed, d.AddedRemoved.removed, prev.removed, cur.removed),
				checkDelta("inferred", d.RemovedInferred.facts, d.AddedInferred.facts, prev.inferred, cur.inferred),
				checkDelta("cluster", d.RemovedClusters.clusters, d.AddedClusters.clusters, prev.clusters, cur.clusters),
			} {
				if err != nil {
					t.Fatalf("op %d: %v", i/2, err)
				}
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
	mk := func(variant uint64, ids ...ground.AtomID) []removedFact {
		fs := make([]removedFact, 0, len(ids))
		for _, id := range ids {
			fs = append(fs, synthRemoved(id, variant+uint64(id)))
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
	var wantFacts []removedFact
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
	v1 := &unit{kept: []fact{f}}
	ref := map[ground.AtomID]*refHeld{key: {u: v1, gen: 1}}
	syncRef(t, c, ref, key)
	if err := checkInvariants(c, ref); err != nil {
		t.Fatal(err)
	}

	moved := removedFact{fact: f, ex: []exPart{{rule: "c", partner: -1, end: true}}}
	v2 := &unit{removed: []removedFact{moved},
		violations: map[string]int{"c": 1},
		clusters:   []cluster{{root: 3, members: []ground.AtomID{3}}}}
	ref[key] = &refHeld{u: v2, gen: 2}
	d := syncRef(t, c, ref, key)
	if err := checkInvariants(c, ref); err != nil {
		t.Fatal(err)
	}
	removed := collect(c.removed.Each)
	if c.kept.Len() != 0 || len(removed) != 1 || removed[0].id != f.id {
		t.Fatalf("lists did not follow the class move: kept %d removed %v", c.kept.Len(), removed)
	}
	if d.RemovedKept.Len() != 1 || d.AddedRemoved.Len() != 1 || d.AddedClusters.Len() != 1 {
		t.Fatalf("class move changelog wrong: %+v", d)
	}
	if d.AddedKept.Len() != 0 || d.RemovedRemoved.Len() != 0 {
		t.Fatalf("class move fabricated changes: %+v", d)
	}
	oc := &Outcome{}
	c.materialize(oc, ground.KeyView{})
	if oc.Stats.KeptFacts != 0 || oc.Stats.RemovedFacts != 1 || oc.Stats.ConflictClusters != 1 {
		t.Fatalf("materialized state wrong after class move: %+v", oc.Stats)
	}
}

// TestLiveOutcomeIdenticalRepatch re-applies identical content under a
// bumped generation: the lists are respliced but the changelog must
// cancel to empty — reuse did not change the outcome.
func TestLiveOutcomeIdenticalRepatch(t *testing.T) {
	c := NewComponentCache()
	key := ground.AtomID(100)
	ref := map[ground.AtomID]*refHeld{key: {u: synthUnit(key, 42), gen: 1}}
	syncRef(t, c, ref, key)
	before := &Outcome{}
	c.materialize(before, ground.KeyView{})

	ref[key] = &refHeld{u: synthUnit(key, 42), gen: 2} // same content, new gen
	if d := syncRef(t, c, ref, key); !d.Empty() {
		t.Fatalf("identical re-patch produced a delta: %+v", d)
	}
	after := &Outcome{}
	c.materialize(after, ground.KeyView{})
	if !reflect.DeepEqual(before, after) {
		t.Fatal("identical re-patch changed the materialized outcome")
	}
	if err := checkInvariants(c, ref); err != nil {
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
	d := syncRef(t, c, ref, ground.AtomID(-1)) // nothing touched, but no record is held
	if d.RemovedKept.Len()+d.RemovedRemoved.Len()+d.RemovedInferred.Len() != 0 {
		t.Fatalf("rebuild after reset removed facts: %+v", d)
	}
	want := refOutcome(ref)
	got := &Outcome{}
	c.materialize(got, ground.KeyView{})
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
