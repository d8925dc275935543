package store

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/rdf"
	"repro/internal/temporal"
)

func figure1Graph() rdf.Graph {
	return rdf.Graph{
		rdf.NewQuad("CR", "coach", "Chelsea", temporal.MustNew(2000, 2004), 0.9),
		rdf.NewQuad("CR", "coach", "Leicester", temporal.MustNew(2015, 2017), 0.7),
		rdf.NewQuad("CR", "playsFor", "Palermo", temporal.MustNew(1984, 1986), 0.5),
		{Subject: rdf.NewIRI("CR"), Predicate: rdf.NewIRI("birthDate"), Object: rdf.Integer(1951),
			Interval: temporal.MustNew(1951, 2017), Confidence: 1.0},
		rdf.NewQuad("CR", "coach", "Napoli", temporal.MustNew(2001, 2003), 0.6),
	}
}

func newFigure1Store(t testing.TB) *Store {
	t.Helper()
	st := New()
	if err := st.AddGraph(figure1Graph()); err != nil {
		t.Fatalf("AddGraph: %v", err)
	}
	return st
}

// codes resolves IRI names into a code pattern through the store's
// dictionary; "" leaves a position wildcard. ok is false when a bound name
// was never interned, so the pattern can match nothing — the
// short-circuit MatchCodes leaves to its caller.
func codes(st *Store, s, p, o string) (cp CodePattern, ok bool) {
	ok = true
	code := func(name string) TermID {
		if name == "" {
			return NoTerm
		}
		id, found := st.dict.Lookup(rdf.NewIRI(name))
		ok = ok && found
		return id
	}
	return CodePattern{S: code(s), P: code(p), O: code(o)}, ok
}

func TestDictRoundTrip(t *testing.T) {
	d := newDict()
	terms := []rdf.Term{
		rdf.NewIRI("a"), rdf.NewLiteral("a"), rdf.NewBlank("a"),
		rdf.NewTypedLiteral("1", rdf.XSDInteger), rdf.NewLangLiteral("1", "en"),
	}
	ids := make([]TermID, len(terms))
	for i, tm := range terms {
		ids[i] = d.Encode(tm)
	}
	// All distinct.
	seen := map[TermID]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatal("duplicate id for distinct terms")
		}
		seen[id] = true
	}
	// Idempotent and decodable.
	for i, tm := range terms {
		if d.Encode(tm) != ids[i] {
			t.Error("Encode not idempotent")
		}
		if d.Decode(ids[i]) != tm {
			t.Error("Decode mismatch")
		}
	}
	if d.Len() != len(terms) {
		t.Errorf("Len = %d, want %d", d.Len(), len(terms))
	}
	if _, ok := d.Lookup(rdf.NewIRI("missing")); ok {
		t.Error("Lookup of unseen term should fail")
	}
}

func TestDictDecodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Decode(0) should panic")
		}
	}()
	newDict().Decode(0)
}

func TestAddAndFact(t *testing.T) {
	st := newFigure1Store(t)
	if st.Len() != 5 {
		t.Fatalf("Len = %d, want 5", st.Len())
	}
	for i, want := range figure1Graph() {
		if got := st.Fact(FactID(i)); got != want {
			t.Errorf("Fact(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestAddRejectsInvalid(t *testing.T) {
	st := New()
	if _, err := st.Add(rdf.Quad{}); err == nil {
		t.Error("zero quad should be rejected")
	}
}

func TestAddDeduplicatesKeepsMaxConfidence(t *testing.T) {
	st := New()
	q := rdf.NewQuad("a", "p", "b", temporal.MustNew(1, 2), 0.4)
	id1, _ := st.Add(q)
	q.Confidence = 0.8
	id2, _ := st.Add(q)
	if id1 != id2 {
		t.Fatal("duplicate statement should return original id")
	}
	if st.Len() != 1 {
		t.Fatalf("Len = %d, want 1", st.Len())
	}
	if got := st.ReadView().FactCodes(id1).Conf; got != 0.8 {
		t.Errorf("Confidence = %g, want max 0.8", got)
	}
	q.Confidence = 0.3
	st.Add(q)
	if got := st.ReadView().FactCodes(id1).Conf; got != 0.8 {
		t.Errorf("Confidence lowered to %g", got)
	}
}

func TestContains(t *testing.T) {
	st := newFigure1Store(t)
	if !st.Contains(figure1Graph()[0]) {
		t.Error("Contains should find fact 0")
	}
	if st.Contains(rdf.NewQuad("CR", "coach", "Juventus", temporal.MustNew(2000, 2004), 0.9)) {
		t.Error("Contains found a missing fact")
	}
}

func TestMatchPatterns(t *testing.T) {
	st := newFigure1Store(t)
	v := st.ReadView()
	tests := []struct {
		name    string
		s, p, o string
		time    TimeFilter
		want    int
	}{
		{name: "all", want: 5},
		{name: "by predicate", p: "coach", want: 3},
		{name: "by subject", s: "CR", want: 5},
		{name: "by object", o: "Chelsea", want: 1},
		{name: "s+p", s: "CR", p: "coach", want: 3},
		{name: "p+o", p: "coach", o: "Napoli", want: 1},
		{name: "s+o", s: "CR", o: "Palermo", want: 1},
		{name: "s+p+o", s: "CR", p: "coach", o: "Chelsea", want: 1},
		{name: "unknown term", s: "nobody", want: 0},
		{name: "time equals", time: TimeFilter{Kind: TimeEquals, Interval: temporal.MustNew(2015, 2017)}, want: 1},
	}
	for _, tc := range tests {
		cp, ok := codes(st, tc.s, tc.p, tc.o)
		if !ok {
			if tc.want != 0 {
				t.Errorf("%s: a pattern term is not interned", tc.name)
			}
			continue
		}
		cp.Time = tc.time
		got := len(v.MatchCodeIDs(cp))
		if got != tc.want {
			t.Errorf("%s: MatchCodeIDs = %d facts, want %d", tc.name, got, tc.want)
		}
		n := 0
		v.MatchCodes(cp, func(FactID, FactCodes) bool { n++; return true })
		if n != got {
			t.Errorf("%s: MatchCodes visited %d facts, MatchCodeIDs returned %d", tc.name, n, got)
		}
	}
}

func TestMatchEarlyStop(t *testing.T) {
	st := newFigure1Store(t)
	calls := 0
	st.ReadView().MatchCodes(CodePattern{}, func(FactID, FactCodes) bool {
		calls++
		return calls < 2
	})
	if calls != 2 {
		t.Errorf("MatchCodes visited %d facts after early stop, want 2", calls)
	}
}

func TestEncodedAccessors(t *testing.T) {
	st := newFigure1Store(t)
	s, p, o := st.EncodedTriple(0)
	if st.dict.Decode(s).Value != "CR" || st.dict.Decode(p).Value != "coach" || st.dict.Decode(o).Value != "Chelsea" {
		t.Error("EncodedTriple decode mismatch")
	}
	if st.Interval(0) != temporal.MustNew(2000, 2004) {
		t.Error("Interval mismatch")
	}
	if st.ReadView().FactCodes(0).Conf != 0.9 {
		t.Error("Confidence mismatch")
	}
}

func TestGraphMaterialise(t *testing.T) {
	st := newFigure1Store(t)
	g := st.Graph()
	if len(g) != 5 {
		t.Fatalf("Graph len = %d", len(g))
	}
	for i, q := range figure1Graph() {
		if g[i] != q {
			t.Errorf("Graph[%d] mismatch", i)
		}
	}
}

func TestStats(t *testing.T) {
	st := newFigure1Store(t)
	stats := st.Stats()
	if stats.Facts != 5 {
		t.Errorf("Facts = %d", stats.Facts)
	}
	if stats.Span != temporal.MustNew(1951, 2017) {
		t.Errorf("Span = %v", stats.Span)
	}
	if len(stats.Predicates) != 3 {
		t.Fatalf("Predicates = %v", stats.Predicates)
	}
	// Sorted by count descending: coach(3) first.
	if stats.Predicates[0].Predicate != "coach" || stats.Predicates[0].Count != 3 {
		t.Errorf("top predicate = %+v", stats.Predicates[0])
	}
	if stats.Predicates[0].Subjects != 1 {
		t.Errorf("coach subjects = %d", stats.Predicates[0].Subjects)
	}
	wantMean := (0.9 + 0.7 + 0.6) / 3
	if got := stats.Predicates[0].MeanConfidence; got < wantMean-1e-9 || got > wantMean+1e-9 {
		t.Errorf("coach mean confidence = %g, want %g", got, wantMean)
	}
	if got := New().Stats(); got.Facts != 0 || len(got.Predicates) != 0 {
		t.Errorf("empty stats = %+v", got)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	st := newFigure1Store(t)
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if back.Len() != st.Len() {
		t.Fatalf("Len = %d, want %d", back.Len(), st.Len())
	}
	for i := 0; i < st.Len(); i++ {
		if back.Fact(FactID(i)) != st.Fact(FactID(i)) {
			t.Errorf("fact %d mismatch", i)
		}
	}
	// Indexes must work after load.
	if cp, ok := codes(back, "", "coach", ""); !ok || len(back.ReadView().MatchCodeIDs(cp)) != 3 {
		t.Errorf("loaded store does not match 3 coach facts")
	}
}

func TestSnapshotErrors(t *testing.T) {
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Error("empty snapshot should fail")
	}
	if _, err := Load(bytes.NewReader([]byte("XXXX"))); err == nil {
		t.Error("bad magic should fail")
	}
	// Truncated body.
	st := newFigure1Store(t)
	var buf bytes.Buffer
	st.Save(&buf)
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := Load(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated snapshot should fail")
	}
	// Every proper prefix, and every single flipped byte, of a valid
	// snapshot is rejected.
	valid := buf.Bytes()
	for n := 0; n < len(valid); n++ {
		if _, err := Load(bytes.NewReader(valid[:n])); err == nil {
			t.Errorf("snapshot truncated to %d of %d bytes loaded", n, len(valid))
		}
	}
	for i := range valid {
		flipped := bytes.Clone(valid)
		flipped[i] ^= 0xff
		if _, err := Load(bytes.NewReader(flipped)); err == nil {
			t.Errorf("snapshot with byte %d flipped loaded", i)
		}
	}
}

// TestSnapshotRoundTripProperty: any randomly generated store survives a
// save/load cycle byte-for-byte in content.
func TestSnapshotRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		st := New()
		for i := 0; i < int(n%40); i++ {
			s := rng.Int63n(100)
			q := rdf.Quad{
				Subject:    rdf.NewIRI(string(rune('a' + rng.Intn(26)))),
				Predicate:  rdf.NewIRI(string(rune('p' + rng.Intn(4)))),
				Object:     rdf.Integer(rng.Int63n(50)),
				Interval:   temporal.Interval{Start: s, End: s + rng.Int63n(20)},
				Confidence: (float64(rng.Intn(100)) + 1) / 100,
			}
			if _, err := st.Add(q); err != nil {
				return false
			}
		}
		var buf bytes.Buffer
		if err := st.Save(&buf); err != nil {
			return false
		}
		back, err := Load(&buf)
		if err != nil || back.Len() != st.Len() {
			return false
		}
		for i := 0; i < st.Len(); i++ {
			if back.Fact(FactID(i)) != st.Fact(FactID(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkStoreAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	quads := make([]rdf.Quad, 4096)
	for i := range quads {
		s := rng.Int63n(1000)
		quads[i] = rdf.Quad{
			Subject:    rdf.NewIRI("player" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))),
			Predicate:  rdf.NewIRI("playsFor"),
			Object:     rdf.NewIRI("team" + string(rune('a'+i%32))),
			Interval:   temporal.Interval{Start: s, End: s + 5},
			Confidence: 0.9,
		}
	}
	b.ResetTimer()
	st := New()
	for i := 0; i < b.N; i++ {
		st.Add(quads[i%len(quads)])
	}
}

func BenchmarkStoreMatchByPredicate(b *testing.B) {
	st := benchStore(b, 20000)
	cp, ok := codes(st, "", "playsFor", "")
	if !ok {
		b.Fatal("playsFor not interned")
	}
	v := st.ReadView()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = v.MatchCodeIDs(cp)
	}
}

func benchStore(b *testing.B, n int) *Store {
	b.Helper()
	rng := rand.New(rand.NewSource(2))
	st := New()
	for i := 0; i < n; i++ {
		s := rng.Int63n(1000)
		q := rdf.Quad{
			Subject:    rdf.Integer(int64(i)),
			Predicate:  rdf.NewIRI("playsFor"),
			Object:     rdf.NewIRI("team" + string(rune('a'+i%32))),
			Interval:   temporal.Interval{Start: s, End: s + rng.Int63n(30)},
			Confidence: 0.9,
		}
		// Integer subject is a literal — use an IRI instead.
		q.Subject = rdf.NewIRI("p" + q.Object.Value + string(rune('0'+i%10)) + string(rune('0'+(i/10)%10)) + string(rune('0'+(i/100)%10)))
		if _, err := st.Add(q); err != nil {
			b.Fatal(err)
		}
	}
	return st
}
