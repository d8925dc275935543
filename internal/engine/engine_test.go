package engine

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/ground"
	"repro/internal/rdf"
	"repro/internal/store"
)

func comp(key ground.AtomID, gen uint64, atoms ...ground.AtomID) ground.Component {
	return ground.Component{Key: key, Gen: gen, Atoms: atoms}
}

// always and never are reuse hooks.
func always[V any](int, *V) bool { return true }
func never[V any](int, *V) bool  { return false }

// noSwap is a consumer that keeps no aggregate.
func noSwap[V any](old, new *V) {}

// install runs an all-component pass over a from-scratch plan listing
// exactly comps, solving every component to value(i): the cache then
// holds those payloads and nothing else.
func install[V any](t *testing.T, c *Cache[V], comps []ground.Component, value func(i int) V) {
	t.Helper()
	if _, err := Run(&Plan{Comps: comps}, false, 1, c, never[V],
		func(i int) (V, error) { return value(i), nil }, noSwap[V]); err != nil {
		t.Fatal(err)
	}
}

// TestCacheLookupInvariant: a payload is returned only under the exact
// (key, generation, membership) triple it was stored under.
func TestCacheLookupInvariant(t *testing.T) {
	c := NewCache[string]()
	comps := []ground.Component{comp(0, 3, 0, 1), comp(2, 5, 2)}
	install(t, c, comps, func(i int) string { return []string{"a", "b"}[i] })

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

	// A pass over a smaller partition retires the vanished entries.
	install(t, c, comps[:1], func(i int) string { return "a2" })
	if _, ok := c.Lookup(&comps[1]); ok {
		t.Error("entry of a vanished component survived the pass")
	}
	if v, ok := c.Lookup(&comps[0]); !ok || v != "a2" {
		t.Errorf("replaced payload not returned: %q %v", v, ok)
	}
}

// TestRunReuseAndDirtySplit: cached components are served by the reuse
// hook, a reuse veto demotes to dirty, records land in component order
// regardless of scheduling, and swap sees exactly the recomputed ones.
func TestRunReuseAndDirtySplit(t *testing.T) {
	comps := []ground.Component{comp(0, 1, 0), comp(1, 1, 1), comp(2, 1, 2)}
	p := &Plan{Comps: comps}
	c := NewCache[int]()
	install(t, c, comps[:2], func(i int) int { return 10 + i })

	vetoed := 0
	var swaps [][2]int
	pass, err := Run(p, false, 1, c,
		func(i int, v *int) bool {
			if i == 1 {
				vetoed++ // consumer-side staleness (e.g. unconverged ADMM)
				return false
			}
			return true
		},
		func(i int) (int, error) { return 100 + i, nil },
		func(old, new *int) {
			o := -1
			if old != nil {
				o = *old
			}
			swaps = append(swaps, [2]int{o, *new})
		})
	if err != nil {
		t.Fatal(err)
	}
	if vetoed != 1 {
		t.Fatalf("reuse hook vetoed %d times, want 1", vetoed)
	}
	if want := []int{10, 101, 102}; !slices.Equal(pass.Records, want) || pass.Delta {
		t.Fatalf("records %v (delta %v), want %v", pass.Records, pass.Delta, want)
	}
	if want := [][2]int{{11, 101}, {-1, 102}}; !slices.Equal(swaps, want) {
		t.Fatalf("swap saw %v, want %v", swaps, want)
	}
}

// TestRunScopedToPositions: chained on the previous generation only the
// change set is offered, the hooks see component indexes, and records
// are indexed by position in the scope.
func TestRunScopedToPositions(t *testing.T) {
	atoms, cs := pairNetwork(8)
	pl := NewPlanner()
	p, _ := pl.Sync(atoms, cs)
	c := NewCache[ground.AtomID]()
	solveKey := func(i int) (ground.AtomID, error) { return p.Comps[i].Key, nil }
	if _, err := Run(p, true, 1, c, always[ground.AtomID], solveKey, noSwap[ground.AtomID]); err != nil {
		t.Fatal(err)
	}

	atoms.SetEvidence(5, 0.4, 5) // a confidence change: {4,5} is re-listed
	cs.TouchAtom(5)
	p, _ = pl.Sync(atoms, cs)
	var offered, solved []int
	pass, err := Run(p, true, 2, c,
		func(i int, _ *ground.AtomID) bool { offered = append(offered, i); return true },
		func(i int) (ground.AtomID, error) { solved = append(solved, i); return 100 + p.Comps[i].Key, nil },
		noSwap[ground.AtomID])
	if err != nil {
		t.Fatal(err)
	}
	if !pass.Delta || !slices.Equal(pass.Scope, []int32{2}) || len(offered) != 0 ||
		!slices.Equal(solved, []int{2}) || !slices.Equal(pass.Records, []ground.AtomID{104}) {
		t.Fatalf("scoped run: scope %v (delta %v), offered %v, solved %v, records %v",
			pass.Scope, pass.Delta, offered, solved, pass.Records)
	}
}

// TestRunPropagatesError: any dirty component's error fails the run and
// leaves the cache as it was.
func TestRunPropagatesError(t *testing.T) {
	p := &Plan{Comps: []ground.Component{comp(0, 1, 0), comp(1, 1, 1)}, gen: 7}
	c := NewCache[int]()
	boom := errors.New("boom")
	_, err := Run(p, false, 1, c, always[int],
		func(i int) (int, error) {
			if i == 1 {
				return 0, boom
			}
			return 0, nil
		},
		func(old, new *int) { t.Error("swap called on a failed run") })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if len(c.entries) != 0 || c.gen != 0 {
		t.Fatalf("failed run left %d entries, generation %d", len(c.entries), c.gen)
	}
}

// TestSizeAggAccounting: the size multiset fills the same statistics a
// fold over the remaining sizes gives, after any sequence of additions
// and removals.
func TestSizeAggAccounting(t *testing.T) {
	var g sizeAgg
	fill := func(solved int) *ground.ComponentStats {
		stats := &ground.ComponentStats{Solved: solved}
		if solved > 0 {
			stats.Engines = map[string]int{"exact": solved}
		}
		g.fill(stats)
		return stats
	}
	if got := fill(0); !reflect.DeepEqual(got, &ground.ComponentStats{}) {
		t.Fatalf("empty aggregate filled %+v, want zero stats", got)
	}
	for _, size := range []int{3, 1, 70, 3, 2} {
		g.add(size)
	}
	g.remove(70) // the largest leaves: Largest falls back to 3
	g.remove(1)
	want := &ground.ComponentStats{
		Count: 3, Largest: 3, SizeHistogram: map[string]int{"2-4": 3},
		Solved: 1, Reused: 2, Engines: map[string]int{"exact": 1, "cached": 2},
	}
	if got := fill(1); !reflect.DeepEqual(got, want) {
		t.Fatalf("filled %+v, want %+v", got, want)
	}
	for _, size := range []int{3, 3, 2} {
		g.remove(size)
	}
	g.add(5)
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
		scope, delta := p.scope(have)
		if delta != wantDelta || !slices.Equal(scope, want) {
			t.Errorf("%s: scope(%d) = %v, %v; want %v, %v", name, have, scope, delta, want, wantDelta)
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

	// A delta touching more than a quarter of the atoms is patched like
	// any other: three pairs leave, and nothing is left to scope.
	for a := ground.AtomID(8); a < 14; a++ {
		atoms.Retract(a)
	}
	cs.RemoveAtoms([]ground.AtomID{8, 9, 10, 11, 12, 13})
	large, stats := pl.Sync(atoms, cs)
	if stats.Mode != "maintained" || stats.RemovedAtoms != 6 || stats.DroppedComponents != 3 || len(large.Comps) != 4 {
		t.Fatalf("large delta: %+v, %d components", stats, len(large.Comps))
	}
	check("chained on a large delta", large, 3, []int32{}, true)
	check("gap before a large delta", large, 2, everything(large), false)

	fresh := NewPlan(atoms, cs)
	check("NewPlan", fresh, 0, everything(fresh), false)
	check("NewPlan vs settled state", fresh, 4, everything(fresh), false)
}

// keysOf lists a cache's keys in ascending order.
func keysOf[V any](c *Cache[V]) []ground.AtomID {
	var ks []ground.AtomID
	for k := range c.entries {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

// planKeys lists a plan's component keys in ascending order.
func planKeys(p *Plan) []ground.AtomID {
	var ks []ground.AtomID
	for i := range p.Comps {
		ks = append(ks, p.Comps[i].Key)
	}
	slices.Sort(ks)
	return ks
}

// TestRunRetires: chained on the previous generation a pass retires
// exactly the keys the sync retired; across a gap it retires the surplus
// keys by enumeration; swap sees each retired record once; and the
// cache's generation follows the plan's.
func TestRunRetires(t *testing.T) {
	atoms, cs := pairNetwork(16)
	pl := NewPlanner()
	// pass runs a consumer whose records name the pass that made them.
	pass := func(c *Cache[string], p *Plan, tag string) (visited int, retired []string) {
		ps, err := Run(p, true, 1, c, always[string],
			func(i int) (string, error) { return fmt.Sprintf("%s/%d", tag, p.Comps[i].Key), nil },
			func(old, new *string) {
				if new == nil {
					retired = append(retired, *old)
				}
			})
		if err != nil {
			t.Fatal(err)
		}
		slices.Sort(retired)
		return len(ps.Scope), retired
	}

	every, lagging := NewCache[string](), NewCache[string]()
	p, _ := pl.Sync(atoms, cs)
	for _, c := range []*Cache[string]{every, lagging} {
		if n, retired := pass(c, p, "g1"); n != 8 || len(retired) != 0 || c.gen != 1 {
			t.Fatalf("first pass: visited %d, retired %v, gen %d", n, retired, c.gen)
		}
	}

	// Generation 2 merges {0,1} and {2,3}: key 2 is retired. Only one of
	// the caches sees this sync.
	cs.Add(conflict(1, 2))
	p, _ = pl.Sync(atoms, cs)
	if n, retired := pass(every, p, "g2"); n != 1 || !slices.Equal(retired, []string{"g1/2"}) {
		t.Fatalf("chained pass: visited %d, retired %v; want 1, [g1/2]", n, retired)
	}
	if !slices.Equal(keysOf(every), planKeys(p)) || every.gen != 2 {
		t.Fatalf("chained pass left keys %v (gen %d), partition %v", keysOf(every), every.gen, planKeys(p))
	}

	// Generation 3 merges {4,5} and {6,7}: key 6 is retired. The lagging
	// cache is two generations behind: the retirement of key 2 was never
	// shown to it, so only enumeration can find it.
	cs.Add(conflict(5, 6))
	p, _ = pl.Sync(atoms, cs)
	if n, retired := pass(every, p, "g3"); n != 1 || !slices.Equal(retired, []string{"g1/6"}) {
		t.Fatalf("second chained pass: visited %d, retired %v; want 1, [g1/6]", n, retired)
	}
	if n, retired := pass(lagging, p, "g3"); n != 6 || !slices.Equal(retired, []string{"g1/2", "g1/6"}) {
		t.Fatalf("pass across a gap: visited %d, retired %v; want 6, [g1/2 g1/6]", n, retired)
	}
	for _, c := range []*Cache[string]{every, lagging} {
		if !slices.Equal(keysOf(c), planKeys(p)) || c.gen != 3 {
			t.Fatalf("pass left keys %v (gen %d), partition %v", keysOf(c), c.gen, planKeys(p))
		}
	}

	// A from-scratch plan names no retirements: surplus keys go by
	// enumeration. Comps is a set, so the plan's two components are
	// picked by key.
	fresh := &Plan{}
	for _, c := range p.Comps {
		if c.Key == 0 || c.Key == 4 {
			fresh.Comps = append(fresh.Comps, c)
		}
	}
	if _, retired := pass(every, fresh, "g0"); !slices.Equal(retired, []string{"g1/10", "g1/12", "g1/14", "g1/8"}) {
		t.Fatalf("pass over a from-scratch plan retired %v, want the four pairs", retired)
	}
	if !slices.Equal(keysOf(every), planKeys(fresh)) || every.gen != 0 {
		t.Fatalf("pass over a from-scratch plan left keys %v (gen %d)", keysOf(every), every.gen)
	}
}

// countRec is a counting consumer's record: a serial unique to the solve
// that made it, its component's size, and the serial once per atom (the
// consumer's per-atom vector).
type countRec struct {
	serial int
	size   int
	vals   []int
}

// counter is a consumer keeping, by swap alone, the set of records it
// holds and the sum of their sizes, plus the per-atom vector of serials.
type counter struct {
	cache   *Cache[countRec]
	live    map[int]bool
	sizeSum int
	vec     []int
	// in and out count, per serial, how often the last pass's swap
	// installed and took back the record.
	in, out map[int]int
}

// TestRunSwapProperty feeds random plan chains — merges, splits,
// retractions and revivals, generation bumps, large deltas — through
// Run with counting consumers that pass at different cadences, so
// their caches chain on the previous generation, lag behind it by gaps,
// or are told their state is not chained. After every pass: swap saw
// each replaced or retired record leave exactly once and each new one
// enter exactly once; the consumer's aggregate equals a fold over the
// cache's records; the cache holds a current record for exactly the
// plan's components; Merge's vector carries every atom's record; and the
// plan's size multiset equals a fold over its partition.
func TestRunSwapProperty(t *testing.T) {
	const n = 48
	rng := rand.New(rand.NewSource(7))
	atoms, cs := pairNetwork(n)
	pl := NewPlanner()
	var serial atomic.Int64

	consumers := make([]*counter, 3)
	for i := range consumers {
		consumers[i] = &counter{cache: NewCache[countRec](), live: map[int]bool{}}
	}
	var deltas, gaps, chainedRetires, enumeratedRetires int

	// atomsWhere lists the atoms that are live (or retracted).
	atomsWhere := func(live bool) []ground.AtomID {
		var ids []ground.AtomID
		for a := ground.AtomID(0); a < n; a++ {
			if atoms.IsRetracted(a) != live {
				ids = append(ids, a)
			}
		}
		return ids
	}
	pick := func(ids []ground.AtomID) (ground.AtomID, bool) {
		if len(ids) == 0 {
			return 0, false
		}
		return ids[rng.Intn(len(ids))], true
	}
	touch := func(a ground.AtomID) {
		atoms.SetEvidence(a, 0.1+0.8*rng.Float64(), store.FactID(a))
		cs.TouchAtom(a)
	}

	for step := 0; step < 300; step++ {
		switch op := rng.Intn(20); {
		case op < 9: // merge two components (or thicken one)
			a, ok1 := pick(atomsWhere(true))
			b, ok2 := pick(atomsWhere(true))
			if ok1 && ok2 && a != b {
				cs.Add(conflict(a, b))
			}
		case op < 13: // retract an atom: its component may split or lose its key
			if a, ok := pick(atomsWhere(true)); ok {
				atoms.Retract(a)
				cs.RemoveAtoms([]ground.AtomID{a})
			}
		case op < 16: // revive one
			if a, ok := pick(atomsWhere(false)); ok {
				touch(a)
			}
		case op < 19: // a generation bump
			if a, ok := pick(atomsWhere(true)); ok {
				touch(a)
			}
		default: // touch over a quarter of the atoms: a large delta, still patched
			live := atomsWhere(true)
			for _, a := range live[:min(len(live), n/4+1)] {
				touch(a)
			}
		}
		p, stats := pl.Sync(atoms, cs)
		if stats.Mode == "rebuilt" && step > 0 {
			t.Fatalf("step %d: the planner rebuilt after its first sync: %+v", step, stats)
		}
		checkSizes(t, p, step)

		for ci, c := range consumers {
			// Consumer 0 passes every step, 1 every third, 2 at random,
			// sometimes claiming no chained state.
			if (ci == 1 && step%3 != 0) || (ci == 2 && rng.Intn(2) == 0) {
				continue
			}
			chained := ci != 2 || rng.Intn(3) > 0
			if c.cache.gen != 0 && c.cache.gen+1 != p.gen {
				gaps++
			}
			cacheChained := p.chained(c.cache.gen)
			before := map[int]bool{}
			for _, e := range c.cache.entries {
				before[e.value.serial] = true
			}
			c.in, c.out = map[int]int{}, map[int]int{}
			retires := 0
			pass, err := Run(p, chained, 2, c.cache,
				func(int, *countRec) bool { return rng.Intn(10) > 0 },
				func(i int) (countRec, error) {
					s := int(serial.Add(1))
					size := len(p.Comps[i].Atoms)
					vals := make([]int, size)
					for j := range vals {
						vals[j] = s
					}
					return countRec{serial: s, size: size, vals: vals}, nil
				},
				func(old, new *countRec) {
					if old != nil {
						c.out[old.serial]++
						delete(c.live, old.serial)
						c.sizeSum -= old.size
						if new == nil {
							retires++
						}
					}
					if new != nil {
						c.in[new.serial]++
						c.live[new.serial] = true
						c.sizeSum += new.size
					}
				})
			if err != nil {
				t.Fatal(err)
			}
			if pass.Delta {
				deltas++
			}
			if retires > 0 && cacheChained {
				chainedRetires++
			} else if retires > 0 {
				enumeratedRetires++
			}
			c.vec = Merge(pass, c.vec, atoms.Len(), func(r *countRec) []int { return r.vals })
			if err := c.check(p, pass, before); err != nil {
				t.Fatalf("step %d, consumer %d (chained %v, delta %v): %v", step, ci, chained, pass.Delta, err)
			}
		}
	}
	t.Logf("%d delta passes, %d gaps, %d chained and %d enumerated retirements", deltas, gaps, chainedRetires, enumeratedRetires)
	if deltas == 0 || gaps == 0 || chainedRetires == 0 || enumeratedRetires == 0 {
		t.Fatalf("chain did not cover every case: %d delta passes, %d gaps, %d chained and %d enumerated retirements",
			deltas, gaps, chainedRetires, enumeratedRetires)
	}
}

// check verifies the consumer after a pass over p; before holds the
// serials its cache held going in.
func (c *counter) check(p *Plan, pass *Pass[countRec], before map[int]bool) error {
	if c.cache.gen != p.gen || !slices.Equal(keysOf(c.cache), planKeys(p)) {
		return fmt.Errorf("cache keys %v at generation %d, partition %v at %d", keysOf(c.cache), c.cache.gen, planKeys(p), p.gen)
	}
	held, sizeSum := map[int]bool{}, 0
	listed := make([]bool, len(c.vec))
	for i := range p.Comps {
		e := c.cache.current(&p.Comps[i])
		if e == nil {
			return fmt.Errorf("component %d holds no current record", p.Comps[i].Key)
		}
		held[e.value.serial] = true
		sizeSum += e.value.size
		for _, a := range p.Comps[i].Atoms {
			listed[a] = true
			if c.vec[a] != e.value.serial {
				return fmt.Errorf("merged vector holds %d at atom %d, its record %d", c.vec[a], a, e.value.serial)
			}
		}
	}
	for a, s := range c.vec {
		if !listed[a] && s != 0 {
			return fmt.Errorf("merged vector holds %d at atom %d, outside the partition", s, a)
		}
	}
	if !maps.Equal(held, c.live) || sizeSum != c.sizeSum {
		return fmt.Errorf("aggregate holds %d records of %d atoms, the cache %d of %d", len(c.live), c.sizeSum, len(held), sizeSum)
	}
	// Exactly the records that left went out, and the new ones came in,
	// once each.
	for s := range before {
		if !held[s] && c.out[s] != 1 {
			return fmt.Errorf("record %d left through swap %d times", s, c.out[s])
		}
	}
	for s, k := range c.out {
		if !before[s] || held[s] || k != 1 {
			return fmt.Errorf("swap took back record %d %d times (held before %v, after %v)", s, k, before[s], held[s])
		}
	}
	for s := range held {
		if !before[s] && c.in[s] != 1 {
			return fmt.Errorf("record %d entered through swap %d times", s, c.in[s])
		}
	}
	for s, k := range c.in {
		if before[s] || !held[s] || k != 1 {
			return fmt.Errorf("swap installed record %d %d times (held before %v, after %v)", s, k, before[s], held[s])
		}
	}
	for k, ci := range pass.Scope {
		if e := c.cache.current(&p.Comps[ci]); e.value.serial != pass.Records[k].serial {
			return fmt.Errorf("pass record %d for component %d, the cache holds %d", pass.Records[k].serial, p.Comps[ci].Key, e.value.serial)
		}
	}
	return nil
}

// checkSizes compares the plan's size multiset with a fold over its
// partition.
func checkSizes(t *testing.T, p *Plan, step int) {
	t.Helper()
	var fold sizeAgg
	for i := range p.Comps {
		fold.add(len(p.Comps[i].Atoms))
	}
	var got, want ground.ComponentStats
	p.FillStats(&got)
	fold.fill(&want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d: plan size statistics %+v, a fold over its partition %+v", step, got, want)
	}
}
