package ground

import (
	"runtime"
	"testing"

	"repro/internal/kgen"
	"repro/internal/logic"
	"repro/internal/rdf"
	"repro/internal/rulelang"
	"repro/internal/store"
	"repro/internal/temporal"
)

// syncStore feeds the store's changes since *epoch through the delta
// path — RetractFacts, ApplyUpdates, CloseDelta, GroundDelta — exactly as
// a session solve does.
func syncStore(t *testing.T, g *Grounder, cs *ClauseSet, prog *logic.Program, epoch *store.Epoch) {
	t.Helper()
	st := g.Store()
	d := st.DeltaSince(*epoch)
	*epoch = st.Epoch()
	if err := g.RetractFacts(cs, d.Removed); err != nil {
		t.Fatal(err)
	}
	delta := g.ApplyUpdates(cs, d.Added, d.Updated)
	derived, err := g.CloseDelta(prog, cs, delta)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.GroundDelta(prog, cs, append(delta, derived...)); err != nil {
		t.Fatal(err)
	}
}

// groundCold builds a grounder over st at the given parallelism and
// closes and grounds prog into a clause set.
func groundCold(t *testing.T, st *store.Store, prog *logic.Program, workers int) (*Grounder, *ClauseSet) {
	t.Helper()
	g := New(st)
	g.Parallelism = workers
	if _, err := g.Close(prog); err != nil {
		t.Fatal(err)
	}
	cs, err := g.GroundProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	return g, cs
}

// TestDerivedLogCompacted: toggling a premise retracts and revives its
// derived head every time; the derived store's change log must not keep
// a record of each toggle.
func TestDerivedLogCompacted(t *testing.T) {
	st := store.New()
	q := rdf.NewQuad("p", "playsFor", "c", temporal.MustNew(1, 2), 0.9)
	if _, err := st.Add(q); err != nil {
		t.Fatal(err)
	}
	prog := rulelang.MustParse("works: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5")
	g, cs := groundCold(t, st, prog, 1)
	epoch := st.Epoch()
	for i := 0; i < 200; i++ {
		if i%2 == 0 {
			st.Remove(q)
		} else if _, err := st.Add(q); err != nil {
			t.Fatal(err)
		}
		syncStore(t, g, cs, prog, &epoch)
	}
	d := g.DerivedStore()
	if lag := d.Epoch() - d.CompactedEpoch(); lag > 4 {
		t.Fatalf("derived store at epoch %d with compaction floor %d: %d uncompacted log epochs",
			d.Epoch(), d.CompactedEpoch(), lag)
	}
}

// TestGroundDeltaAllocs: a single-fact GroundDelta on the buffered arm
// (two workers, several seminaive tasks) allocates in proportion to what
// it emits — not a full buffer block per emitting task.
func TestGroundDeltaAllocs(t *testing.T) {
	st := store.New()
	if err := st.AddGraph(kgen.Clustered(kgen.ClusteredConfig{Clusters: 500}).Graph); err != nil {
		t.Fatal(err)
	}
	prog := rulelang.MustParse(kgen.ClusteredProgram)
	g, cs := groundCold(t, st, prog, 2)
	q := st.Fact(0)
	epoch := st.Epoch()
	const runs = 20
	var total uint64
	var ms runtime.MemStats
	for i := 0; i < runs; i++ {
		st.Remove(q)
		syncStore(t, g, cs, prog, &epoch)
		if _, err := st.Add(q); err != nil {
			t.Fatal(err)
		}
		d := st.DeltaSince(epoch)
		epoch = st.Epoch()
		delta := g.ApplyUpdates(cs, d.Added, d.Updated)
		if len(delta) != 1 {
			t.Fatalf("re-adding one fact yielded a delta of %d atoms", len(delta))
		}
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		if err := g.GroundDelta(prog, cs, delta); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		total += ms.TotalAlloc - before
	}
	avg := total / runs
	t.Logf("GroundDelta of one re-added fact: %.1f KiB per call", float64(avg)/1024)
	if avg > 64<<10 {
		t.Fatalf("GroundDelta of one re-added fact allocates %d KiB per call, want ≤ 64 KiB", avg>>10)
	}
}
