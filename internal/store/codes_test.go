package store

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/rdf"
	"repro/internal/temporal"
)

// recordingJournal counts the records a store hands its journal.
type recordingJournal struct{ n int }

func (j *recordingJournal) Append(JournalRecord) { j.n++ }

// TestAddCodesRemoveCodes: the code-level mutators behave as Add and
// Remove do — a duplicate is deduplicated, a tombstoned statement
// revives under its original id, every effective change advances the
// epoch — and write no journal record, while Add through the same
// journal does.
func TestAddCodesRemoveCodes(t *testing.T) {
	st := New()
	j := &recordingJournal{}
	st.SetJournal(j)
	iv := temporal.MustNew(2000, 2003)
	live := func(want int) {
		t.Helper()
		var got int
		st.ReadView().MatchCodes(CodePattern{P: 8}, func(FactID, FactCodes) bool { got++; return true })
		if got != want || st.Len() != want {
			t.Fatalf("MatchCodes sees %d facts and Len is %d, want %d", got, st.Len(), want)
		}
	}

	id := st.AddCodes(7, 8, 9, iv, 0.5)
	if e := st.Epoch(); e != 1 {
		t.Fatalf("epoch %d after the first AddCodes, want 1", e)
	}
	if dup := st.AddCodes(7, 8, 9, iv, 0.4); dup != id || st.Epoch() != 1 {
		t.Fatalf("a duplicate with lower confidence got id %d at epoch %d, want %d at 1", dup, st.Epoch(), id)
	}
	if dup := st.AddCodes(7, 8, 9, iv, 0.9); dup != id || st.Epoch() != 2 {
		t.Fatalf("a duplicate with higher confidence got id %d at epoch %d, want %d at 2", dup, st.Epoch(), id)
	}
	if other := st.AddCodes(7, 8, 9, temporal.MustNew(2004, 2005), 1); other == id || st.Epoch() != 3 {
		t.Fatalf("another interval got id %d at epoch %d, want a fresh id at 3", other, st.Epoch())
	}
	live(2)

	if got, ok := st.RemoveCodes(7, 8, 9, iv); !ok || got != id || st.Epoch() != 4 {
		t.Fatalf("RemoveCodes = (%d, %v) at epoch %d, want (%d, true) at 4", got, ok, st.Epoch(), id)
	}
	if _, ok := st.RemoveCodes(7, 8, 9, iv); ok || st.Epoch() != 4 {
		t.Fatalf("removing a tombstoned statement reported a removal (epoch %d)", st.Epoch())
	}
	if _, ok := st.RemoveCodes(7, 8, 10, iv); ok {
		t.Fatal("removing an unknown statement reported a removal")
	}
	live(1)
	if revived := st.AddCodes(7, 8, 9, iv, 1); revived != id || st.Epoch() != 5 || !st.Live(id) {
		t.Fatalf("revival got id %d at epoch %d (live %v), want %d at 5", revived, st.Epoch(), st.Live(id), id)
	}
	live(2)
	if d := st.DeltaSince(3); len(d.Updated) != 1 || d.Updated[0] != id {
		t.Fatalf("DeltaSince across the remove and revival = %+v, want %d updated", d, id)
	}
	if j.n != 0 {
		t.Fatalf("the code-level mutators wrote %d journal records, want 0", j.n)
	}
	if _, err := st.Add(rdf.NewQuad("s", "p", "o", iv, 0.5)); err != nil {
		t.Fatal(err)
	}
	if j.n != 1 {
		t.Fatalf("Add wrote %d journal records, want 1", j.n)
	}
}

// TestInternTerm: interning is idempotent, TermCode sees the term, and a
// term no fact uses survives a snapshot round trip at its code.
func TestInternTerm(t *testing.T) {
	st := newFigure1Store(t)
	before := st.MemoryStats().Terms
	head := rdf.NewIRI("worksFor")
	if _, ok := st.TermCode(head); ok {
		t.Fatal("TermCode found a term nothing interned")
	}
	code := st.InternTerm(head)
	if again := st.InternTerm(head); again != code {
		t.Fatalf("InternTerm gave %d, then %d", code, again)
	}
	if got, ok := st.TermCode(head); !ok || got != code {
		t.Fatalf("TermCode = (%d, %v), want (%d, true)", got, ok, code)
	}
	if terms := st.Terms(); terms[code] != head {
		t.Fatalf("Terms()[%d] = %v, want %v", code, terms[code], head)
	}
	if n := st.MemoryStats().Terms; n != before+1 {
		t.Fatalf("MemoryStats counts %d terms, want %d", n, before+1)
	}
	known, _ := st.TermCode(rdf.NewIRI("CR"))
	if got := st.InternTerm(rdf.NewIRI("CR")); got != known {
		t.Fatalf("InternTerm of a data term gave %d, want its code %d", got, known)
	}

	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := loaded.TermCode(head); !ok || got != code {
		t.Fatalf("after a round trip TermCode = (%d, %v), want (%d, true)", got, ok, code)
	}
	if loaded.Len() != st.Len() {
		t.Fatalf("round trip holds %d facts, want %d", loaded.Len(), st.Len())
	}
}

// TestTermsPrefixStableDuringGrowth: a captured Terms prefix reads the
// same while Add and InternTerm grow the dictionary beside readers of
// the store's statistics — the contract the atom table and held
// Outcomes rely on. Run it with -race: every dictionary write must hold
// the store lock.
func TestTermsPrefixStableDuringGrowth(t *testing.T) {
	st := newFigure1Store(t)
	prefix := st.Terms()
	want := append([]rdf.Term(nil), prefix...)
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for n := 0; ; n++ {
			for i := 1; i < len(prefix); i++ {
				if prefix[i] != want[i] {
					done <- fmt.Errorf("read %d: prefix[%d] = %v, want %v", n, i, prefix[i], want[i])
					return
				}
			}
			st.MemoryStats()
			st.TermCode(rdf.NewIRI("CR"))
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
		}
	}()
	for i := 0; i < 2000; i++ {
		q := rdf.NewQuad(fmt.Sprintf("grow/s%d", i), "grow/p", fmt.Sprintf("grow/o%d", i),
			temporal.MustNew(1, int64(2+i)), 0.5)
		if _, err := st.Add(q); err != nil {
			t.Fatal(err)
		}
		st.InternTerm(rdf.NewIRI(fmt.Sprintf("grow/head%d", i)))
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := st.Terms(); len(got) != len(prefix)+3*2000+1 {
		t.Fatalf("dictionary holds %d codes, want %d", len(got), len(prefix)+3*2000+1)
	}
}
