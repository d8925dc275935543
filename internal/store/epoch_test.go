package store

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/rdf"
	"repro/internal/temporal"
)

func quad(s, p, o string, start, end int64, conf float64) rdf.Quad {
	return rdf.NewQuad(s, p, o, temporal.MustNew(start, end), conf)
}

func TestEpochAdvancesPerMutation(t *testing.T) {
	st := New()
	if st.Epoch() != 0 {
		t.Fatalf("empty store epoch = %d, want 0", st.Epoch())
	}
	id, err := st.Add(quad("a", "p", "b", 1, 2, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch() != 1 {
		t.Fatalf("after add epoch = %d, want 1", st.Epoch())
	}
	// Duplicate add with lower confidence: no-op, no epoch.
	if _, err := st.Add(quad("a", "p", "b", 1, 2, 0.3)); err != nil {
		t.Fatal(err)
	}
	if st.Epoch() != 1 {
		t.Fatalf("no-op dup add advanced epoch to %d", st.Epoch())
	}
	// Higher confidence: update, epoch advances.
	if _, err := st.Add(quad("a", "p", "b", 1, 2, 0.9)); err != nil {
		t.Fatal(err)
	}
	if st.Epoch() != 2 {
		t.Fatalf("confidence raise epoch = %d, want 2", st.Epoch())
	}
	// Remove, then revive under the same id.
	rid, ok := st.Remove(quad("a", "p", "b", 1, 2, 0))
	if !ok || rid != id {
		t.Fatalf("remove: id %d ok %v, want %d true", rid, ok, id)
	}
	if st.Len() != 0 || st.Live(id) {
		t.Fatal("removed fact still live")
	}
	if _, ok := st.Remove(quad("a", "p", "b", 1, 2, 0)); ok {
		t.Fatal("double remove succeeded")
	}
	rid2, err := st.Add(quad("a", "p", "b", 1, 2, 0.4))
	if err != nil {
		t.Fatal(err)
	}
	if rid2 != id {
		t.Fatalf("revival changed id: %d -> %d", id, rid2)
	}
	if got := st.ReadView().FactCodes(id).Conf; got != 0.4 {
		t.Fatalf("revival kept old confidence %g", got)
	}
	if st.Len() != 1 || st.IDBound() != 1 {
		t.Fatalf("Len=%d IDBound=%d after revival, want 1/1", st.Len(), st.IDBound())
	}
}

func TestDeltaSinceBoundaryEpochs(t *testing.T) {
	st := New()
	q1 := quad("a", "p", "b", 1, 2, 0.5)
	q2 := quad("c", "p", "d", 1, 2, 0.5)
	q3 := quad("e", "p", "f", 1, 2, 0.5)
	id1, _ := st.Add(q1) // epoch 1
	e1 := st.Epoch()
	st.Add(q2)    // epoch 2
	st.Remove(q1) // epoch 3
	st.Add(q3)    // epoch 4
	eNow := st.Epoch()

	// Delta from the current epoch is empty.
	if d := st.DeltaSince(eNow); !d.Empty() {
		t.Fatalf("DeltaSince(now) = %+v, want empty", d)
	}
	// A future epoch is empty too.
	if d := st.DeltaSince(eNow + 10); !d.Empty() {
		t.Fatalf("DeltaSince(future) = %+v, want empty", d)
	}
	// From epoch 0: q1 was never live at 0 and is dead now — absent.
	d := st.DeltaSince(0)
	if len(d.Added) != 2 || len(d.Removed) != 0 || len(d.Updated) != 0 {
		t.Fatalf("DeltaSince(0) = %+v, want 2 adds", d)
	}
	// From e1 (right after q1's add): q1 shows as removed.
	d = st.DeltaSince(e1)
	if len(d.Added) != 2 || len(d.Removed) != 1 || d.Removed[0] != id1 {
		t.Fatalf("DeltaSince(e1) = %+v", d)
	}
	// Remove + revive across the window nets to Updated.
	st.Remove(q2)
	st.Add(q2)
	d = st.DeltaSince(eNow)
	if len(d.Updated) != 1 || len(d.Added) != 0 || len(d.Removed) != 0 {
		t.Fatalf("remove+revive delta = %+v, want 1 update", d)
	}
	// Add + remove inside the window nets to nothing.
	eBefore := st.Epoch()
	st.Add(quad("x", "p", "y", 1, 2, 0.5))
	st.Remove(quad("x", "p", "y", 1, 2, 0.5))
	if d := st.DeltaSince(eBefore); !d.Empty() {
		t.Fatalf("add+remove delta = %+v, want empty", d)
	}
}

func TestCompactLogKeepsDeltaCorrect(t *testing.T) {
	st := New()
	q1 := quad("a", "p", "b", 1, 2, 0.5)
	q2 := quad("c", "p", "d", 1, 2, 0.5)
	st.Add(q1)
	e1 := st.Epoch()
	st.Add(q2)
	st.Remove(q1)
	eNow := st.Epoch()

	st.CompactLog(eNow)
	// At or after the floor: the (empty) log answers.
	if d := st.DeltaSince(eNow); !d.Empty() {
		t.Fatalf("DeltaSince(now) after compaction = %+v", d)
	}
	// Below the floor: the full-scan fallback classifies by lifespan —
	// q2 added, q1 removed, nothing live at both points.
	d := st.DeltaSince(e1)
	if len(d.Added) != 1 || len(d.Removed) != 1 || len(d.Updated) != 0 {
		t.Fatalf("DeltaSince(e1) after compaction = %+v", d)
	}
	// New mutations land in the fresh log and answer precisely.
	st.Add(quad("e", "p", "f", 1, 2, 0.5))
	d = st.DeltaSince(eNow)
	if len(d.Added) != 1 || len(d.Removed) != 0 || len(d.Updated) != 0 {
		t.Fatalf("post-compaction delta = %+v", d)
	}
	// Facts live across the whole compacted window appear as
	// conservative updates on the fallback path.
	d = st.DeltaSince(e1 + 1) // q2 live at e1+1 and now; below the floor
	if len(d.Updated) != 1 {
		t.Fatalf("conservative update missing: %+v", d)
	}
}

func TestViewPinsEpoch(t *testing.T) {
	st := New()
	b, _ := st.Add(quad("a", "p", "b", 1, 2, 0.5))
	c, _ := st.Add(quad("a", "p", "c", 3, 4, 0.5))
	v := st.ReadView()
	cp, _ := codes(st, "a", "", "")

	// Mutations after the pin are invisible to the view.
	d, _ := st.Add(quad("a", "p", "d", 5, 6, 0.5))
	st.Remove(quad("a", "p", "b", 1, 2, 0))
	if v.Len() != 2 {
		t.Fatalf("view Len = %d, want 2", v.Len())
	}
	// The view keeps the fact removed after pinning and misses the one
	// added after it.
	if ids := v.MatchCodeIDs(cp); len(ids) != 2 || ids[0] != b || ids[1] != c {
		t.Fatalf("view sees %v, want [%d %d]", ids, b, c)
	}
	// The store itself sees current state.
	if st.Len() != 2 || st.Contains(quad("a", "p", "b", 1, 2, 0)) {
		t.Fatal("store state wrong after mutations")
	}
	// A fresh view sees the new state.
	if got := st.ReadView().MatchCodeIDs(cp); len(got) != 2 || got[0] != c || got[1] != d {
		t.Fatalf("fresh view sees %v, want [%d %d]", got, c, d)
	}
}

// TestConcurrentMatchDuringMutation drives readers over pinned views
// while a writer adds and removes facts. Run under -race: the store must
// stay memory-safe and each view must keep seeing exactly its pinned
// state.
func TestConcurrentMatchDuringMutation(t *testing.T) {
	st := New()
	const base = 200
	for i := 0; i < base; i++ {
		st.Add(quad(fmt.Sprintf("s%d", i%10), "p", fmt.Sprintf("o%d", i), int64(i), int64(i+5), 0.5))
	}
	v := st.ReadView()
	wantLen := v.Len()
	// Resolve the patterns before the writer starts: the dictionary is
	// read here without the store lock.
	bySubject := make([]CodePattern, 4)
	for r := range bySubject {
		bySubject[r], _ = codes(st, fmt.Sprintf("s%d", r), "", "")
	}
	byPredicate, _ := codes(st, "", "p", "")

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := 0
				v.MatchCodes(bySubject[r], func(FactID, FactCodes) bool {
					n++
					return true
				})
				if n != base/10 {
					t.Errorf("pinned view saw %d facts for subject, want %d", n, base/10)
					return
				}
				if v.Len() != wantLen {
					t.Errorf("pinned view Len changed: %d", v.Len())
					return
				}
				// Fresh views race with the writer but must not crash or
				// see torn state (count bounded by total adds).
				ids := st.ReadView().MatchCodeIDs(byPredicate)
				if len(ids) > base+100 {
					t.Errorf("implausible match count %d", len(ids))
					return
				}
			}
		}(r)
	}
	// Writer: interleave adds, removes and revivals.
	for i := 0; i < 100; i++ {
		q := quad(fmt.Sprintf("s%d", i%10), "p", fmt.Sprintf("extra%d", i), int64(i), int64(i+3), 0.7)
		if _, err := st.Add(q); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			st.Remove(q)
		}
		if i%7 == 0 {
			st.Remove(quad(fmt.Sprintf("s%d", i%10), "p", fmt.Sprintf("o%d", i), int64(i), int64(i+5), 0))
		}
	}
	close(stop)
	wg.Wait()
}

func TestTimeFilterEdgeIntervals(t *testing.T) {
	st := New()
	st.Add(quad("a", "p", "b", 10, 20, 0.5)) // the probe fact
	byPredicate, _ := codes(st, "", "p", "")
	cases := []struct {
		name string
		f    TimeFilter
		want int
	}{
		{"any", TimeFilter{}, 1},
		{"equals-exact", TimeFilter{Kind: TimeEquals, Interval: temporal.MustNew(10, 20)}, 1},
		{"equals-off-by-one", TimeFilter{Kind: TimeEquals, Interval: temporal.MustNew(10, 19)}, 0},
		// TimeAllen relates the reference interval to the candidate's:
		// [5,9] meets [10,20], [21,30] is met by it.
		{"allen-meets", TimeFilter{Kind: TimeAllen, Interval: temporal.MustNew(5, 9), Rels: temporal.NewRelationSet(temporal.Meets)}, 1},
		{"allen-metBy", TimeFilter{Kind: TimeAllen, Interval: temporal.MustNew(21, 30), Rels: temporal.NewRelationSet(temporal.MetBy)}, 1},
		{"allen-before-misses", TimeFilter{Kind: TimeAllen, Interval: temporal.MustNew(5, 9), Rels: temporal.NewRelationSet(temporal.Before)}, 0},
		{"allen-disjoint-point", TimeFilter{Kind: TimeAllen, Interval: temporal.MustNew(20, 20), Rels: temporal.DisjointSet}, 0},
		{"allen-empty-set", TimeFilter{Kind: TimeAllen, Interval: temporal.MustNew(10, 20)}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := st.ReadView()
			if got := len(v.MatchCodeIDs(CodePattern{Time: tc.f})); got != tc.want {
				t.Errorf("full scan matched %d, want %d", got, tc.want)
			}
			// Predicate-bound patterns scan the posting list instead; the
			// filter must agree with the full scan.
			cp := byPredicate
			cp.Time = tc.f
			if got := len(v.MatchCodeIDs(cp)); got != tc.want {
				t.Errorf("predicate scan matched %d, want %d", got, tc.want)
			}
		})
	}
	// Tombstoned facts match nothing.
	st.Remove(quad("a", "p", "b", 10, 20, 0))
	if got := len(st.ReadView().MatchCodeIDs(CodePattern{})); got != 0 {
		t.Errorf("matched %d after remove, want 0", got)
	}
}
