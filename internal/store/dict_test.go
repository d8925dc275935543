package store

import (
	"bytes"
	"testing"
	"unsafe"

	"repro/internal/rdf"
)

// FuzzDictRoundTrip drives the hash-with-spill dictionary with
// adversarial term pairs: interning must be idempotent (Encode twice →
// same code), Lookup must agree with Encode, Decode must return the
// exact term, and re-encoding the terms in code order — which is what
// snapshot Load does — must reassign identical codes.
func FuzzDictRoundTrip(f *testing.F) {
	f.Add(uint8(0), "s", "", "", uint8(1), "42", "xsd:int", "")
	f.Add(uint8(1), "hello", "", "en", uint8(1), "hello", "", "en")
	f.Add(uint8(0), "ab", "c", "", uint8(0), "a", "bc", "")
	f.Add(uint8(2), "", "", "", uint8(2), "", "", "")
	f.Fuzz(func(t *testing.T, k1 uint8, v1, d1, l1 string, k2 uint8, v2, d2, l2 string) {
		terms := []rdf.Term{
			{Kind: rdf.TermKind(k1 % 3), Value: v1, Datatype: d1, Lang: l1},
			{Kind: rdf.TermKind(k2 % 3), Value: v2, Datatype: d2, Lang: l2},
			rdf.NewIRI(v1 + v2),
		}
		dict := newDict()
		ids := make([]TermID, len(terms))
		for i, tm := range terms {
			ids[i] = dict.Encode(tm)
			if ids[i] == NoTerm {
				t.Fatalf("Encode(%v) returned NoTerm", tm)
			}
		}
		for i, tm := range terms {
			if got := dict.Encode(tm); got != ids[i] {
				t.Fatalf("re-Encode(%v) = %d, first Encode gave %d", tm, got, ids[i])
			}
			got, ok := dict.Lookup(tm)
			if !ok || got != ids[i] {
				t.Fatalf("Lookup(%v) = (%d, %v), want (%d, true)", tm, got, ok, ids[i])
			}
			if back := dict.Decode(ids[i]); back != tm {
				t.Fatalf("Decode(%d) = %v, want %v", ids[i], back, tm)
			}
		}
		// Distinct terms must have distinct codes.
		for i, tm := range terms {
			for j := range terms[:i] {
				if tm != terms[j] && ids[i] == ids[j] {
					t.Fatalf("distinct terms %v and %v share code %d", tm, terms[j], ids[i])
				}
			}
		}
		// Snapshot stability: Load re-encodes the persisted terms in
		// code order into a fresh dictionary; every term must get the
		// code it had before.
		reloaded := newDict()
		for id := TermID(1); int(id) <= dict.Len(); id++ {
			if got := reloaded.Encode(dict.Decode(id)); got != id {
				t.Fatalf("reload assigned code %d to term %v, want %d", got, dict.Decode(id), id)
			}
		}
	})
}

// TestStoreOwnsTermStrings: the parser slices a quad's terms out of its
// input line, so a dictionary that kept those strings would pin a whole
// line per distinct term. The store's dictionary copies a term's strings
// when it first encodes it — also after a snapshot round trip — while a
// Dict with ownership off (as Load runs it over freshly read strings)
// shares the strings it is handed.
func TestStoreOwnsTermStrings(t *testing.T) {
	g, err := rdf.ParseGraphString(`<http://ex/s> <http://ex/p> "v"@en [1,2] 0.5`)
	if err != nil {
		t.Fatal(err)
	}
	q := g[0]
	same := func(a, b string) bool { return unsafe.StringData(a) == unsafe.StringData(b) }
	owns := func(name string, st *Store) {
		t.Helper()
		id, ok := st.dict.Lookup(q.Object)
		if !ok {
			t.Fatalf("%s: object term not interned", name)
		}
		if got := st.dict.Decode(id); same(got.Value, q.Object.Value) || same(got.Lang, q.Object.Lang) {
			t.Fatalf("%s: the store's dictionary shares the input's strings", name)
		}
	}

	st := New()
	if err := st.AddGraph(g); err != nil {
		t.Fatal(err)
	}
	owns("add", st)

	var buf bytes.Buffer
	if err := New().Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.AddGraph(g); err != nil {
		t.Fatal(err)
	}
	owns("add after load", loaded)

	d := newDict()
	d.own = false
	if got := d.Decode(d.Encode(q.Object)); !same(got.Value, q.Object.Value) {
		t.Fatal("a non-owning Dict copied the strings it was handed")
	}
}
