package ground

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/kgen"
	"repro/internal/rdf"
	"repro/internal/rulelang"
	"repro/internal/store"
	"repro/internal/temporal"
)

// allenFilterProgram exercises every Allen filter the compiler pushes
// into the store match, for each of the thirteen basic relations and the
// disjoint and overlap sets: a hard and a soft constraint head in both
// orientations, a body condition of c3's shape in both orientations, and
// a head against a constant interval on either side. The works/worker
// pair makes one filtered join read the derived view too.
func allenFilterProgram() string {
	names := []string{"disjoint", "overlap"}
	for r := temporal.Relation(0); r < temporal.NumRelations; r++ {
		names = append(names, r.String())
	}
	var b strings.Builder
	b.WriteString("works: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2\n")
	for _, n := range names {
		fmt.Fprintf(&b, "hard_%s: quad(x, playsFor, y, t) ^ quad(x, playsFor, z, t') ^ y != z -> %s(t, t') w = inf\n", n, n)
		fmt.Fprintf(&b, "soft_%s: quad(x, playsFor, y, t) ^ quad(x, coach, z, t') -> %s(t', t) w = 0.7\n", n, n)
		fmt.Fprintf(&b, "body_%s: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ %s(t, t') -> y = z w = inf\n", n, n)
		fmt.Fprintf(&b, "bodyrev_%s: quad(x, coach, y, t) ^ quad(x, playsFor, z, t') ^ %s(t', t) -> y = z w = 1.5\n", n, n)
		fmt.Fprintf(&b, "const_%s: quad(x, playsFor, y, t) -> %s(t, [3,5]) w = 0.4\n", n, n)
		fmt.Fprintf(&b, "constrev_%s: quad(x, coach, y, t) -> %s([3,5], t) w = inf\n", n, n)
		fmt.Fprintf(&b, "worker_%s: quad(x, worksFor, y, t) ^ quad(x, coach, z, t') -> %s(t, t') w = 0.9\n", n, n)
	}
	return b.String()
}

// allenQuad draws a fact on a small chronon grid, so every basic
// relation (point intervals, shared and adjacent endpoints) turns up.
func allenQuad(rng *rand.Rand) rdf.Quad {
	pred := "playsFor"
	if rng.Intn(3) == 0 {
		pred = "coach"
	}
	s := int64(rng.Intn(9))
	return rdf.NewQuad(fmt.Sprintf("p%d", rng.Intn(3)), pred, fmt.Sprintf("c%d", rng.Intn(4)),
		temporal.Interval{Start: s, End: s + int64(rng.Intn(4))}, 0.6)
}

// TestAllenFilterMatchesOracle: with Allen conditions pushed into the
// store match, the grounder still produces exactly the network the
// naive interpreter enumerates — cold, and after add, remove and revive
// steps through the delta path, whose pinned seed atom changes the join
// order and so which operand a filter is tested from.
func TestAllenFilterMatchesOracle(t *testing.T) {
	prog := rulelang.MustParse(allenFilterProgram())
	for seed := int64(1); seed <= 2; seed++ {
		for _, workers := range []int{1, 3} {
			rng := rand.New(rand.NewSource(seed))
			st := store.New()
			for i := 0; i < 26; i++ {
				if _, err := st.Add(allenQuad(rng)); err != nil {
					t.Fatal(err)
				}
			}
			label := fmt.Sprintf("seed %d workers %d", seed, workers)
			g, cs := groundCold(t, st, prog, workers)
			checkAgainstOracle(t, label+" cold", g, cs, naiveGround(t, st, prog))

			epoch := st.Epoch()
			sync := func(step string) {
				syncStore(t, g, cs, prog, &epoch)
				checkAgainstOracle(t, label+" "+step, g, cs, naiveGround(t, st, prog))
			}
			var added []rdf.Quad
			for i := 0; i < 6; i++ {
				q := allenQuad(rng)
				if _, err := st.Add(q); err != nil {
					t.Fatal(err)
				}
				added = append(added, q)
			}
			sync("add")
			for i := 0; i < 6; i++ {
				if id := store.FactID(rng.Intn(st.IDBound())); st.Live(id) {
					st.Remove(st.Fact(id))
				}
			}
			st.Remove(added[0])
			sync("remove")
			if _, err := st.Add(added[0]); err != nil {
				t.Fatal(err)
			}
			sync("revive")
		}
	}
}

// TestAllenFilterPlacement pins where the compiler puts each filter: on
// the depth that first binds the condition's later variable, with a
// constraint head complemented and a left-hand operand turned round —
// and nowhere on a rule whose conditions can fail to evaluate.
func TestAllenFilterPlacement(t *testing.T) {
	g := New(store.New())
	overlaps := temporal.NewRelationSet(temporal.Overlaps)
	cases := []struct {
		rule  string
		depth int // -1: no filter anywhere
		slot  int32
		rels  temporal.RelationSet
	}{
		{"c: quad(x, p, y, t) ^ quad(x, p, z, t') ^ overlaps(t, t') -> y = z w = inf", 1, 0, overlaps},
		{"c: quad(x, p, y, t) ^ quad(x, p, z, t') ^ overlaps(t', t) -> y = z w = inf", 1, 0, overlaps.Inverse()},
		{"c: quad(x, p, y, t) ^ quad(x, p, z, t') -> overlaps(t, t') w = inf", 1, 0, temporal.FullSet &^ overlaps},
		{"c: quad(x, p, y, t) ^ quad(x, p, z, t') -> overlaps(t', t) w = inf", 1, 0, (temporal.FullSet &^ overlaps).Inverse()},
		{"c: quad(x, p, y, t) -> overlaps(t, [1,4]) w = 1", 0, -1, (temporal.FullSet &^ overlaps).Inverse()},
		{"c: quad(x, p, y, t) ^ quad(x, p, z, t') ^ overlaps(t, t') ^ disjoint(t, t') -> y = z w = inf", 1, 0, overlaps},
		{"c: quad(x, p, y, t) ^ quad(x, p, z, t') -> overlaps(t, t) w = inf", -1, 0, 0},
		{"c: quad(x, p, y, t) ^ quad(x, p, z, t') ^ start(t) > 3 -> overlaps(t, t') w = inf", -1, 0, 0},
		{"c: quad(x, p, y, t) ^ quad(x, p, z, t') ^ quad(x, q, w, u) ^ before(intersect(t, t'), u) -> overlaps(t, t') w = inf", -1, 0, 0},
	}
	for _, tc := range cases {
		prog := rulelang.MustParse(tc.rule)
		cr, err := g.compileRule(prog.Rules[0], -1)
		if err != nil {
			t.Fatal(err)
		}
		for d, q := range cr.quads {
			want := timeRel{}
			if d == tc.depth {
				want = timeRel{on: true, slot: tc.slot, rels: tc.rels}
				if tc.slot < 0 {
					want.iv = temporal.MustNew(1, 4)
				}
			}
			if q.rel != want {
				t.Errorf("%s\ndepth %d: filter %+v, want %+v", tc.rule, d, q.rel, want)
			}
		}
	}
}

// TestConstraintGroundsOnlyViolatingPairs gates the pushdown on the
// clustered benchmark data (60-spell players): a disjointness
// constraint must reach emission only for the pairs it violates — each
// found once in either order — not for every pair of a player's spells.
func TestConstraintGroundsOnlyViolatingPairs(t *testing.T) {
	ds := kgen.Clustered(kgen.ClusteredConfig{Clusters: 50, ClusterSize: 60, BridgeRate: 0.1, Seed: 2})
	st := store.New()
	if err := st.AddGraph(ds.Graph); err != nil {
		t.Fatal(err)
	}
	prog := rulelang.MustParse(kgen.ClusteredProgram)
	g := New(st)
	cs, err := g.GroundProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	clauses := map[string]int64{}
	for _, c := range cs.Clauses() {
		clauses[c.Rule]++
	}
	for _, rs := range g.TakeStats().Rules {
		t.Logf("%s: %d candidates, %d emitted, %d clauses", rs.Rule, rs.Candidates, rs.Emitted, clauses[rs.Rule])
		if rs.Emitted > 2*clauses[rs.Rule] {
			t.Errorf("%s: %d groundings reached emission for %d clauses, want at most %d",
				rs.Rule, rs.Emitted, clauses[rs.Rule], 2*clauses[rs.Rule])
		}
	}
}

// TestJoinTasksSplitByCandidates: a full join phase cuts tasks by
// depth-0 candidate count, not by rule count, so with as many rules as
// workers a heavy rule still spreads over the pool.
func TestJoinTasksSplitByCandidates(t *testing.T) {
	st := store.New()
	for i := 0; i < 200; i++ {
		st.Add(rdf.NewQuad(fmt.Sprintf("p%d", i%20), "playsFor", fmt.Sprintf("c%d", i),
			temporal.MustNew(int64(i%7), int64(i%7+3)), 0.8))
	}
	for i := 0; i < 10; i++ {
		st.Add(rdf.NewQuad(fmt.Sprintf("p%d", i), "coach", fmt.Sprintf("c%d", i),
			temporal.MustNew(int64(i), int64(i+2)), 0.8))
	}
	prog := rulelang.MustParse(`
heavy: quad(x, playsFor, y, t) ^ quad(x, playsFor, z, t') ^ y != z -> disjoint(t, t') w = inf
light: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf
`)
	g := New(st)
	g.Parallelism = 2
	tasks, err := g.joinTasks(prog.Rules)
	if err != nil {
		t.Fatal(err)
	}
	total, perRule := 0, map[string]int{}
	for i := range tasks {
		total += len(tasks[i].mainIDs) + len(tasks[i].derivedIDs)
		perRule[tasks[i].rule.Name]++
	}
	if total != 210 {
		t.Fatalf("tasks hold %d candidates, want 210", total)
	}
	if perRule["heavy"] < 2 {
		t.Errorf("heavy rule got %d tasks, want at least 2", perRule["heavy"])
	}
	for i := range tasks {
		if n := len(tasks[i].mainIDs) + len(tasks[i].derivedIDs); 2*n > total {
			t.Errorf("task %d (%s) holds %d of %d candidates, more than half", i, tasks[i].rule.Name, n, total)
		}
	}
	// The split leaves the output as the one-worker join's.
	g1, cs1 := groundCold(t, st, prog, 1)
	g2, cs2 := groundCold(t, st, prog, 2)
	if a, b := groundDump(g1, cs1), groundDump(g2, cs2); a != b {
		t.Error("parallelism 2 grounds differently from parallelism 1")
	}
}

// BenchmarkGroundColdDense times cold grounding of the clustered
// benchmark's cold-dense data (50 players × 60 spells) at parallelism 1
// and 2: where the Allen pushdown and the candidate-count split show.
func BenchmarkGroundColdDense(b *testing.B) {
	ds := kgen.Clustered(kgen.ClusteredConfig{Clusters: 50, ClusterSize: 60, BridgeRate: 0.1, Seed: 2})
	st := store.New()
	if err := st.AddGraph(ds.Graph); err != nil {
		b.Fatal(err)
	}
	prog := rulelang.MustParse(kgen.ClusteredProgram)
	for _, p := range []int{1, 2} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := New(st)
				g.Parallelism = p
				if _, err := g.GroundProgram(prog); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
