package ground

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/rdf"
	"repro/internal/rulelang"
	"repro/internal/store"
	"repro/internal/temporal"
)

// skewedStore loads nBig facts of predicate big and nSmall facts of
// predicate small, sharing subjects so the planner sees a join.
func skewedStore(t testing.TB, nBig, nSmall int) *store.Store {
	t.Helper()
	st := store.New()
	iv := temporal.MustNew(2000, 2001)
	for i := 0; i < nBig; i++ {
		q := rdf.NewQuad(fmt.Sprintf("s%04d", i), "big", fmt.Sprintf("o%04d", i), iv, 0.9)
		if _, err := st.Add(q); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nSmall; i++ {
		q := rdf.NewQuad(fmt.Sprintf("s%04d", i), "small", fmt.Sprintf("v%04d", i), iv, 0.9)
		if _, err := st.Add(q); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// TestPlanSelectiveSkewed: with a 1000-fact predicate written first and
// a 2-fact predicate second, the planner must start from the small one —
// the whole point of selectivity-driven ordering.
func TestPlanSelectiveSkewed(t *testing.T) {
	g := New(skewedStore(t, 1000, 2))
	g.refreshViews()
	r, err := rulelang.ParseRule(
		"r: quad(x, big, y, t) ^ quad(x, small, z, t') -> overlap(t, t') w = inf")
	if err != nil {
		t.Fatal(err)
	}
	order, err := g.planJoin(r, -1)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 0}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// TestPlanSelectiveTie: equal posting lengths everywhere — the planner
// must fall back to body position, keeping the written order (the
// determinism tie-break).
func TestPlanSelectiveTie(t *testing.T) {
	st := store.New()
	iv := temporal.MustNew(2000, 2001)
	for i := 0; i < 5; i++ {
		for _, p := range []string{"p", "q"} {
			q := rdf.NewQuad(fmt.Sprintf("s%d", i), p, fmt.Sprintf("o%d", i), iv, 0.9)
			if _, err := st.Add(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	g := New(st)
	g.refreshViews()
	r, err := rulelang.ParseRule(
		"r: quad(x, p, y, t) ^ quad(x, q, z, t') -> overlap(t, t') w = inf")
	if err != nil {
		t.Fatal(err)
	}
	order, err := g.planJoin(r, -1)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want written order %v on a tie", order, want)
	}
}

// TestPlanSelectivePinned: delta tasks pin the seed atom first; the
// planner must keep it there and order the rest by selectivity.
func TestPlanSelectivePinned(t *testing.T) {
	g := New(skewedStore(t, 1000, 2))
	g.refreshViews()
	r, err := rulelang.ParseRule(
		"r: quad(x, big, y, t) ^ quad(x, small, z, t') -> overlap(t, t') w = inf")
	if err != nil {
		t.Fatal(err)
	}
	order, err := g.planJoin(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want pinned %v", order, want)
	}
}

// TestPlanSelectiveAbsentPredicate: a constant absent from every
// dictionary matches nothing; its atom has an empty posting list and
// leads the plan, short-circuiting the whole join.
func TestPlanSelectiveAbsentPredicate(t *testing.T) {
	g := New(skewedStore(t, 100, 100))
	g.refreshViews()
	r, err := rulelang.ParseRule(
		"r: quad(x, big, y, t) ^ quad(x, nosuch, z, t') -> overlap(t, t') w = inf")
	if err != nil {
		t.Fatal(err)
	}
	order, err := g.planJoin(r, -1)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 0}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want the absent predicate first", order)
	}
}

// TestJoinOrderBoundPositionsFirst: once the pinned first atom binds y,
// the atom joined through y has two bound positions and must come before
// the disconnected q atom, whose one-fact posting list is the shortest
// in the rule but whose join would be a cross product.
func TestJoinOrderBoundPositionsFirst(t *testing.T) {
	st := store.New()
	iv := temporal.MustNew(2000, 2001)
	add := func(s, p, o string) {
		if _, err := st.Add(rdf.NewQuad(s, p, o, iv, 0.9)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		add(fmt.Sprintf("a%d", i), "p", fmt.Sprintf("b%d", i))
		add(fmt.Sprintf("b%d", i), "r", fmt.Sprintf("c%d", i))
		add(fmt.Sprintf("b%d", i), "r", fmt.Sprintf("d%d", i))
	}
	add("c0", "q", "e0")
	g := New(st)
	g.refreshViews()
	r, err := rulelang.ParseRule(
		"r: quad(x, p, y, t) ^ quad(z, q, w, t') ^ quad(y, r, z, t'') -> overlap(t, t') w = inf")
	if err != nil {
		t.Fatal(err)
	}
	order, err := g.planJoin(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 2, 1}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v: the atom bound through y before the q cross product", order, want)
	}
}
