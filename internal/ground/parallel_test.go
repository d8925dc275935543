package ground

import (
	"strings"
	"testing"

	"repro/internal/kgen"
	"repro/internal/logic"
	"repro/internal/rulelang"
	"repro/internal/store"
)

// footballFixture builds a mid-sized noisy store plus a program with
// both constraints and a forward-chaining inference rule, the shape that
// exercises every parallel code path (Close rounds, chunked joins,
// pending-head interning).
func footballFixture(t testing.TB) (*store.Store, *logic.Program) {
	t.Helper()
	ds := kgen.Football(kgen.FootballConfig{Players: 120, NoiseRatio: 0.4, Seed: 7})
	st := store.New()
	if err := st.AddGraph(ds.Graph); err != nil {
		t.Fatalf("load store: %v", err)
	}
	prog, err := rulelang.Parse(kgen.FootballProgram + `
pf1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5
pf2: quad(x, worksFor, y, t) ^ duration(t) >= 4 -> quad(x, type, Veteran, t) w = 0.8
`)
	if err != nil {
		t.Fatalf("parse program: %v", err)
	}
	return st, prog
}

// groundDump renders everything parallelism could perturb: the atom
// table (ids and keys, in id order) and the clause list (in emission
// order).
func groundDump(g *Grounder, cs *ClauseSet) string {
	var b strings.Builder
	for i := 0; i < g.Atoms().Len(); i++ {
		info := g.Atoms().Info(AtomID(i))
		b.WriteString(info.Key.String())
		if info.Evidence {
			b.WriteByte('*')
		}
		b.WriteByte('\n')
	}
	b.WriteString("--\n")
	for i := range cs.Clauses() {
		b.WriteString(cs.Clauses()[i].String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestParallelGroundingByteIdentical is the tentpole invariant: Close +
// GroundProgram produce byte-identical atom tables and clause sets at
// every parallelism level.
func TestParallelGroundingByteIdentical(t *testing.T) {
	st, prog := footballFixture(t)
	var baseline string
	var baseDerived int
	for _, p := range []int{1, 2, 4, 8} {
		g := New(st)
		g.Parallelism = p
		derived, err := g.Close(prog)
		if err != nil {
			t.Fatalf("parallelism %d: Close: %v", p, err)
		}
		cs, err := g.GroundProgram(prog)
		if err != nil {
			t.Fatalf("parallelism %d: GroundProgram: %v", p, err)
		}
		dump := groundDump(g, cs)
		if p == 1 {
			baseline, baseDerived = dump, derived
			if derived == 0 {
				t.Fatal("fixture derived no atoms; inference rules not exercised")
			}
			if cs.Len() == 0 {
				t.Fatal("fixture emitted no clauses")
			}
			continue
		}
		if derived != baseDerived {
			t.Errorf("parallelism %d: derived %d atoms, sequential derived %d", p, derived, baseDerived)
		}
		if dump != baseline {
			t.Errorf("parallelism %d: grounding output differs from sequential (%d vs %d bytes)",
				p, len(dump), len(baseline))
		}
	}
}

// TestParallelismZeroMeansAllCores: the default (zero) setting must
// behave like any explicit worker count.
func TestParallelismZeroMeansAllCores(t *testing.T) {
	st, prog := footballFixture(t)
	seq := New(st)
	seq.Parallelism = 1
	if _, err := seq.Close(prog); err != nil {
		t.Fatal(err)
	}
	csSeq, err := seq.GroundProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	def := New(st)
	if _, err := def.Close(prog); err != nil {
		t.Fatal(err)
	}
	csDef, err := def.GroundProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	if groundDump(seq, csSeq) != groundDump(def, csDef) {
		t.Error("default parallelism output differs from sequential")
	}
}
