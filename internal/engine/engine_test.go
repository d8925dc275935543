package engine

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/ground"
	"repro/internal/rdf"
	"repro/internal/store"
)

func comp(key ground.AtomID, gen uint64, atoms ...ground.AtomID) ground.Component {
	return ground.Component{Key: key, Gen: gen, Atoms: atoms}
}

// install does what a consumer's all-component pass over a from-scratch
// plan listing exactly comps does to its cache: Put every payload, then
// Settle (which prunes the entries of components not listed).
func install[V any](c *Cache[V], comps []ground.Component, value func(i int) V) {
	for i := range comps {
		c.Put(&comps[i], value(i))
	}
	c.Settle(&Plan{Comps: comps}, nil)
}

// allOf is the everything-scope of a hand-built plan.
func allOf(p *Plan) []int32 {
	scope, _ := p.Scope(0)
	return scope
}

// TestCacheLookupInvariant: a payload is returned only under the exact
// (key, generation, membership) triple it was stored under.
func TestCacheLookupInvariant(t *testing.T) {
	c := NewCache[string]()
	comps := []ground.Component{comp(0, 3, 0, 1), comp(2, 5, 2)}
	install(c, comps, func(i int) string { return []string{"a", "b"}[i] })

	if v, ok := c.Lookup(&comps[0]); !ok || v != "a" {
		t.Fatalf("exact match not returned: %q %v", v, ok)
	}
	cases := []struct {
		name string
		c    ground.Component
	}{
		{"unknown key", comp(7, 3, 7)},
		{"stale generation", comp(0, 4, 0, 1)},
		{"membership grew", comp(0, 3, 0, 1, 2)},
		{"membership differs", comp(0, 3, 0, 2)},
	}
	for _, tc := range cases {
		if _, ok := c.Lookup(&tc.c); ok {
			t.Errorf("%s: stale payload reused", tc.name)
		}
	}

	// Settling against a smaller partition drops the vanished entries.
	install(c, comps[:1], func(i int) string { return "a2" })
	if _, ok := c.Lookup(&comps[1]); ok {
		t.Error("entry of a vanished component survived Settle")
	}
	if v, ok := c.Lookup(&comps[0]); !ok || v != "a2" {
		t.Errorf("replaced payload not returned: %q %v", v, ok)
	}
}

// TestCacheEach: every held payload is visited exactly once with its
// component key, and entries dropped by Settle stop being visited.
func TestCacheEach(t *testing.T) {
	c := NewCache[string]()
	comps := []ground.Component{comp(0, 1, 0, 1), comp(5, 2, 5), comp(9, 4, 9)}
	install(c, comps, func(i int) string { return []string{"a", "b", "c"}[i] })

	seen := map[ground.AtomID]string{}
	c.Each(func(k ground.AtomID, v string) {
		if _, dup := seen[k]; dup {
			t.Fatalf("key %d visited twice", k)
		}
		seen[k] = v
	})
	if want := map[ground.AtomID]string{0: "a", 5: "b", 9: "c"}; len(seen) != len(want) ||
		seen[0] != "a" || seen[5] != "b" || seen[9] != "c" {
		t.Fatalf("Each visited %v, want %v", seen, want)
	}

	install(c, comps[:1], func(i int) string { return "a" })
	n := 0
	c.Each(func(ground.AtomID, string) { n++ })
	if n != 1 {
		t.Fatalf("Each visited %d entries after Settle, want 1", n)
	}
}

// TestRunReuseAndDirtySplit: cached components are served by the reuse
// hook, a reuse veto demotes to dirty, and results land in component
// order regardless of scheduling.
func TestRunReuseAndDirtySplit(t *testing.T) {
	comps := []ground.Component{comp(0, 1, 0), comp(1, 1, 1), comp(2, 1, 2)}
	p := &Plan{Comps: comps}
	c := NewCache[int]()
	install(c, comps[:2], func(i int) int { return 10 + i })

	vetoed := 0
	results, cached, err := Run(p, allOf(p), 1, c,
		func(i int, v int) (int, bool) {
			if i == 1 {
				vetoed++ // consumer-side staleness (e.g. unconverged ADMM)
				return 0, false
			}
			return v, true
		},
		func(i int) (int, error) { return 100 + i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if vetoed != 1 {
		t.Fatalf("reuse hook vetoed %d times, want 1", vetoed)
	}
	want := []int{10, 101, 102}
	wantCached := []bool{true, false, false}
	for i := range comps {
		if results[i] != want[i] || cached[i] != wantCached[i] {
			t.Fatalf("component %d: got (%d, %v), want (%d, %v)",
				i, results[i], cached[i], want[i], wantCached[i])
		}
	}
}

// TestRunScopedToPositions: under a partial scope only the scoped
// components are offered, the hooks see component indexes, and results
// are indexed by position in the scope.
func TestRunScopedToPositions(t *testing.T) {
	comps := []ground.Component{comp(0, 1, 0), comp(1, 1, 1), comp(2, 1, 2), comp(3, 1, 3)}
	p := &Plan{Comps: comps}
	c := NewCache[int]()
	install(c, comps, func(i int) int { return 10 + i })
	comps[3].Gen = 2 // stale entry: must be re-solved

	results, cached, err := Run(p, []int32{1, 3}, 2, c,
		func(i int, v int) (int, bool) { return v, true },
		func(i int) (int, error) { return 100 + i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0] != 11 || results[1] != 103 || !cached[0] || cached[1] {
		t.Fatalf("scoped run: results %v cached %v, want [11 103] [true false]", results, cached)
	}
}

// TestRunPropagatesError: any dirty component's error fails the run.
func TestRunPropagatesError(t *testing.T) {
	p := &Plan{Comps: []ground.Component{comp(0, 1, 0), comp(1, 1, 1)}}
	boom := errors.New("boom")
	_, _, err := Run(p, allOf(p), 1, NewCache[int](),
		func(i int, v int) (int, bool) { return v, true },
		func(i int) (int, error) {
			if i == 1 {
				return 0, boom
			}
			return 0, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

// TestSizeAggAccounting: the maintained size aggregate fills the same
// statistics an all-component fold over the remaining sizes gives,
// after any sequence of additions and removals.
func TestSizeAggAccounting(t *testing.T) {
	var g SizeAgg
	fill := func(solved int) *ground.ComponentStats {
		stats := &ground.ComponentStats{Solved: solved}
		if solved > 0 {
			stats.Engines = map[string]int{"exact": solved}
		}
		g.Fill(stats)
		return stats
	}
	if got := fill(0); !reflect.DeepEqual(got, &ground.ComponentStats{}) {
		t.Fatalf("empty aggregate filled %+v, want zero stats", got)
	}
	for _, size := range []int{3, 1, 70, 3, 2} {
		g.Add(size)
	}
	g.Remove(70) // the largest leaves: Largest falls back to 3
	g.Remove(1)
	want := &ground.ComponentStats{
		Count: 3, Largest: 3, SizeHistogram: map[string]int{"2-4": 3},
		Solved: 1, Reused: 2, Engines: map[string]int{"exact": 1, "cached": 2},
	}
	if got := fill(1); !reflect.DeepEqual(got, want) {
		t.Fatalf("filled %+v, want %+v", got, want)
	}
	for _, size := range []int{3, 3, 2} {
		g.Remove(size)
	}
	g.Add(5)
	if got := fill(1); got.Count != 1 || got.Largest != 5 || got.Reused != 0 || got.Engines["cached"] != 0 ||
		!reflect.DeepEqual(got.SizeHistogram, map[string]int{"5-16": 1}) {
		t.Fatalf("after emptying and one addition: %+v", got)
	}
}

// pairNetwork builds n evidence atoms in conflicting pairs — (0,1),
// (2,3), … — over one clause set: n/2 components.
func pairNetwork(n int) (*ground.AtomTable, *ground.ClauseSet) {
	atoms := ground.NewAtomTable(store.New())
	cs := ground.NewClauseSet()
	for i := 0; i < n; i++ {
		atoms.InternEvidence(rdf.FactKey{S: rdf.NewIRI(fmt.Sprintf("s%d", i)), P: rdf.NewIRI("p")}, 0.8, store.FactID(i))
	}
	for i := 0; i+1 < n; i += 2 {
		cs.Add(conflict(ground.AtomID(i), ground.AtomID(i+1)))
	}
	return atoms, cs
}

func conflict(a, b ground.AtomID) ground.Clause {
	return ground.Clause{Lits: []ground.Lit{{Atom: a, Neg: true}, {Atom: b, Neg: true}}, Weight: math.Inf(1), Rule: "c"}
}

// TestPlanScope: the change set is scoped only to a consumer exactly
// one delta-patching sync behind; everything else gets every component.
func TestPlanScope(t *testing.T) {
	atoms, cs := pairNetwork(16)
	pl := NewPlanner()
	everything := func(p *Plan) []int32 {
		all := make([]int32, len(p.Comps))
		for i := range all {
			all[i] = int32(i)
		}
		return all
	}
	check := func(name string, p *Plan, have uint64, want []int32, wantDelta bool) {
		t.Helper()
		scope, delta := p.Scope(have)
		if delta != wantDelta || !slices.Equal(scope, want) {
			t.Errorf("%s: Scope(%d) = %v, %v; want %v, %v", name, have, scope, delta, want, wantDelta)
		}
	}

	first, stats := pl.Sync(atoms, cs) // generation 1: built from scratch
	if stats.Mode != "rebuilt" || len(first.Comps) != 8 {
		t.Fatalf("first sync: %+v, %d components", stats, len(first.Comps))
	}
	check("first build, no state", first, 0, everything(first), false)

	cs.Add(conflict(1, 2)) // merges the first two pairs
	patched, stats := pl.Sync(atoms, cs)
	if stats.Mode != "maintained" || len(patched.Comps) != 7 {
		t.Fatalf("second sync: %+v, %d components", stats, len(patched.Comps))
	}
	check("chained", patched, 1, []int32{0}, true)
	check("no state", patched, 0, everything(patched), false)
	check("already current", patched, 2, everything(patched), false)

	empty, _ := pl.Sync(atoms, cs) // generation 3: empty delta
	check("chained on an empty delta", empty, 2, []int32{}, true)
	check("gap", empty, 1, everything(empty), false)

	// A delta touching more than a quarter of the atoms rebuilds.
	for a := ground.AtomID(8); a < 14; a++ {
		atoms.Retract(a)
	}
	cs.RemoveAtoms([]ground.AtomID{8, 9, 10, 11, 12, 13})
	rebuilt, stats := pl.Sync(atoms, cs)
	if stats.Mode != "rebuilt" {
		t.Fatalf("large delta was patched: %+v", stats)
	}
	check("rebuilt plan", rebuilt, 3, everything(rebuilt), false)

	fresh := NewPlan(atoms, cs)
	check("NewPlan", fresh, 0, everything(fresh), false)
	check("NewPlan vs settled state", fresh, 4, everything(fresh), false)
}

// TestCacheSettle: chained on the previous generation Settle drops
// exactly the keys the sync retired; across a gap it prunes the surplus
// keys by enumeration; gone sees each dropped payload once; and the
// cache's generation follows the plan's.
func TestCacheSettle(t *testing.T) {
	atoms, cs := pairNetwork(16)
	pl := NewPlanner()
	// pass is a consumer's pass: visit the scope for the cache's
	// generation, Put what is not reusable, Settle.
	pass := func(c *Cache[string], p *Plan, tag string) (visited int, dropped []string) {
		scope, _ := p.Scope(c.Gen())
		for _, ci := range scope {
			if _, ok := c.Lookup(&p.Comps[ci]); !ok {
				c.Put(&p.Comps[ci], fmt.Sprintf("%s/%d", tag, p.Comps[ci].Key))
			}
		}
		c.Settle(p, func(v string) { dropped = append(dropped, v) })
		slices.Sort(dropped)
		return len(scope), dropped
	}
	keys := func(c *Cache[string]) []ground.AtomID {
		var ks []ground.AtomID
		c.Each(func(k ground.AtomID, _ string) { ks = append(ks, k) })
		slices.Sort(ks)
		return ks
	}
	planKeys := func(p *Plan) []ground.AtomID {
		var ks []ground.AtomID
		for i := range p.Comps {
			ks = append(ks, p.Comps[i].Key)
		}
		slices.Sort(ks)
		return ks
	}

	every, lagging := NewCache[string](), NewCache[string]()
	p, _ := pl.Sync(atoms, cs)
	for _, c := range []*Cache[string]{every, lagging} {
		if n, dropped := pass(c, p, "g1"); n != 8 || len(dropped) != 0 || c.Gen() != 1 {
			t.Fatalf("first pass: visited %d, dropped %v, gen %d", n, dropped, c.Gen())
		}
	}

	// Generation 2 merges {0,1} and {2,3}: key 2 is retired. Only one of
	// the caches sees this sync.
	cs.Add(conflict(1, 2))
	p, _ = pl.Sync(atoms, cs)
	if n, dropped := pass(every, p, "g2"); n != 1 || !slices.Equal(dropped, []string{"g1/2"}) {
		t.Fatalf("chained pass: visited %d, dropped %v; want 1, [g1/2]", n, dropped)
	}
	if !slices.Equal(keys(every), planKeys(p)) || every.Gen() != 2 {
		t.Fatalf("chained settle left keys %v (gen %d), partition %v", keys(every), every.Gen(), planKeys(p))
	}

	// Generation 3 merges {4,5} and {6,7}: key 6 is retired. The lagging
	// cache is two generations behind: the retirement of key 2 was never
	// shown to it, so only enumeration can find it.
	cs.Add(conflict(5, 6))
	p, _ = pl.Sync(atoms, cs)
	if n, dropped := pass(every, p, "g3"); n != 1 || !slices.Equal(dropped, []string{"g1/6"}) {
		t.Fatalf("second chained pass: visited %d, dropped %v; want 1, [g1/6]", n, dropped)
	}
	if n, dropped := pass(lagging, p, "g3"); n != 6 || !slices.Equal(dropped, []string{"g1/2", "g1/6"}) {
		t.Fatalf("pass across a gap: visited %d, dropped %v; want 6, [g1/2 g1/6]", n, dropped)
	}
	for _, c := range []*Cache[string]{every, lagging} {
		if !slices.Equal(keys(c), planKeys(p)) || c.Gen() != 3 {
			t.Fatalf("settle left keys %v (gen %d), partition %v", keys(c), c.Gen(), planKeys(p))
		}
	}

	// A from-scratch plan names no retirements: surplus keys go by
	// enumeration, and a nil gone is allowed.
	fresh := &Plan{Comps: p.Comps[:2]}
	every.Settle(fresh, nil)
	if !slices.Equal(keys(every), planKeys(fresh)) || every.Gen() != 0 {
		t.Fatalf("settle against a from-scratch plan left keys %v (gen %d)", keys(every), every.Gen())
	}
}
