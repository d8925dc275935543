package store

import (
	"testing"

	"repro/internal/rdf"
	"repro/internal/temporal"
)

// Allocation regression gates for the two hot read paths the scale work
// rebuilt. CI's non-race "allocation gates" step enforces them: a change
// that reintroduces per-call maps or buffers fails here long before it
// shows up on a memory profile. Under -race they skip (see raceEnabled).

func skipAllocGateUnderRace(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
}

// TestMatchCodesAllocsSteadyState pins View.MatchCodes — the grounder's
// join step — to zero steady-state allocations: the match buffer comes
// from a pool and the codes reach the callback by value.
func TestMatchCodesAllocsSteadyState(t *testing.T) {
	skipAllocGateUnderRace(t)
	st := newFigure1Store(t)
	v := st.ReadView()
	cp, ok := codes(st, "CR", "coach", "")
	if !ok {
		t.Fatal("pattern terms not interned")
	}
	n := 0
	visit := func(FactID, FactCodes) bool { n++; return true }
	v.MatchCodes(cp, visit) // warm the buffer pool
	avg := testing.AllocsPerRun(200, func() {
		v.MatchCodes(cp, visit)
	})
	if n == 0 {
		t.Fatal("pattern matched no facts; gate is vacuous")
	}
	if avg > 0.1 {
		t.Errorf("View.MatchCodes allocates %.2f objects/run in steady state, want 0", avg)
	}
}

// TestDeltaSinceAllocsSingleUpdate pins the single-fact update read-out
// — the DeltaSince call the incremental engine makes after one add — to
// a constant few allocations (the touched-id slice and the delta
// bucket), not a per-call dedup map.
func TestDeltaSinceAllocsSingleUpdate(t *testing.T) {
	skipAllocGateUnderRace(t)
	st := newFigure1Store(t)
	before := st.Epoch()
	if _, err := st.Add(rdf.NewQuad("CR", "coach", "Parma", temporal.MustNew(2007, 2009), 0.4)); err != nil {
		t.Fatalf("Add: %v", err)
	}
	avg := testing.AllocsPerRun(200, func() {
		d := st.DeltaSince(before)
		if len(d.Added) != 1 {
			t.Fatalf("DeltaSince: %d added, want 1", len(d.Added))
		}
	})
	if avg > 4 {
		t.Errorf("single-fact DeltaSince allocates %.2f objects/run, want <= 4", avg)
	}
}
