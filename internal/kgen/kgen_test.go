package kgen

import (
	"fmt"
	"testing"

	"repro/internal/ground"
	"repro/internal/rdf"
	"repro/internal/rulelang"
	"repro/internal/store"
)

func TestFootballScaleMatchesPaper(t *testing.T) {
	ds := Football(FootballConfig{})
	counts := map[string]int{}
	for _, q := range ds.Graph {
		counts[q.Predicate.Value]++
	}
	// Paper: >13K playsFor, >6K birthDate.
	if counts["playsFor"] < 13000 {
		t.Errorf("playsFor = %d, want > 13000", counts["playsFor"])
	}
	if counts["birthDate"] < 6000 {
		t.Errorf("birthDate = %d, want > 6000", counts["birthDate"])
	}
	if ds.NoiseCount() != 0 {
		t.Errorf("default config should be clean, got %d noisy facts", ds.NoiseCount())
	}
	if err := ds.Graph.Validate(); err != nil {
		t.Errorf("generated graph invalid: %v", err)
	}
}

func TestFootballDeterministic(t *testing.T) {
	a := Football(FootballConfig{Players: 50, NoiseRatio: 0.5, Seed: 7})
	b := Football(FootballConfig{Players: 50, NoiseRatio: 0.5, Seed: 7})
	if len(a.Graph) != len(b.Graph) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Graph), len(b.Graph))
	}
	for i := range a.Graph {
		if a.Graph[i] != b.Graph[i] {
			t.Fatalf("fact %d differs", i)
		}
	}
	c := Football(FootballConfig{Players: 50, NoiseRatio: 0.5, Seed: 8})
	same := len(a.Graph) == len(c.Graph)
	if same {
		identical := true
		for i := range a.Graph {
			if a.Graph[i] != c.Graph[i] {
				identical = false
				break
			}
		}
		if identical {
			t.Error("different seeds produced identical datasets")
		}
	}
}

func TestFootballNoiseRatio(t *testing.T) {
	ds := Football(FootballConfig{Players: 2000, NoiseRatio: 1.0, Seed: 3})
	clean, noisy := ds.CleanCount(), ds.NoiseCount()
	ratio := float64(noisy) / float64(clean)
	// "as many erroneous temporal facts as the correct ones": ratio ≈ 1.
	if ratio < 0.85 || ratio > 1.15 {
		t.Errorf("noise ratio = %.3f, want ≈ 1.0 (clean=%d noisy=%d)", ratio, clean, noisy)
	}
}

func TestFootballNoiseViolatesConstraints(t *testing.T) {
	ds := Football(FootballConfig{Players: 300, NoiseRatio: 0.8, Seed: 5})
	st := store.New()
	if err := st.AddGraph(ds.Graph); err != nil {
		t.Fatal(err)
	}
	prog := rulelang.MustParse(FootballProgram)
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	// Grounding the constraints over the noisy data must surface
	// violations (every noise category violates one constraint).
	gr := newGrounder(t, st)
	cs, err := gr.GroundProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Len() == 0 {
		t.Error("noisy dataset grounds zero violated constraints")
	}
	// A clean dataset ideally grounds none; random team collisions can
	// create rare accidental overlaps, so allow a tiny residue.
	clean := Football(FootballConfig{Players: 300, Seed: 5})
	st2 := store.New()
	if err := st2.AddGraph(clean.Graph); err != nil {
		t.Fatal(err)
	}
	gr2 := newGrounder(t, st2)
	cs2, err := gr2.GroundProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	if cs2.Len() > cs.Len()/10 {
		t.Errorf("clean dataset grounds %d violations vs %d noisy", cs2.Len(), cs.Len())
	}
}

func TestWikidataCardinalities(t *testing.T) {
	ds := Wikidata(WikidataConfig{Scale: 0.01, Seed: 2})
	counts := map[string]int{}
	for _, q := range ds.Graph {
		counts[q.Predicate.Value]++
	}
	// At scale 0.01 expect ≈ 40000 playsFor, 200 spouse, 230 memberOf,
	// 60 educatedAt, 45 occupation (clean counts; noise adds a few).
	within := func(pred string, lo, hi int) {
		if counts[pred] < lo || counts[pred] > hi {
			t.Errorf("%s = %d, want in [%d,%d]", pred, counts[pred], lo, hi)
		}
	}
	within("playsFor", 30000, 55000)
	within("spouse", 180, 260)
	within("memberOf", 200, 290)
	within("educatedAt", 50, 80)
	within("occupation", 40, 50)
	if err := ds.Graph.Validate(); err != nil {
		t.Errorf("wikidata graph invalid: %v", err)
	}
	if ds.Profile != "wikidata" {
		t.Errorf("profile = %q", ds.Profile)
	}
}

func TestWikidataNoiseLabelled(t *testing.T) {
	ds := Wikidata(WikidataConfig{Scale: 0.005, NoiseRatio: 0.3, Seed: 4})
	if ds.NoiseCount() == 0 {
		t.Fatal("no noise injected at ratio 0.3")
	}
	// Every noise key refers to a generated fact.
	keys := make(map[rdf.FactKey]bool, len(ds.Graph))
	for _, q := range ds.Graph {
		keys[q.Fact()] = true
	}
	for k := range ds.Noise {
		if !keys[k] {
			t.Errorf("noise label %v has no generated fact", k)
		}
	}
}

// TestExpectedFactsTracksGenerators: the size estimates the server
// bounds generator uploads with stay within 15% of what the generators
// actually produce, defaults and noise beyond 1 included.
func TestExpectedFactsTracksGenerators(t *testing.T) {
	near := func(name string, got int, want float64) {
		if r := float64(got) / want; r < 0.85 || r > 1.15 {
			t.Errorf("%s: generated %d facts, estimate %.0f", name, got, want)
		}
	}
	for _, c := range []FootballConfig{{Players: 400, NoiseRatio: 0.3}, {Players: 2000}, {Players: 300, NoiseRatio: 3, Seed: 7}, {}} {
		near(fmt.Sprintf("football %+v", c), len(Football(c).Graph), c.ExpectedFacts())
	}
	for _, c := range []WikidataConfig{{Scale: 0.001}, {Scale: 0.01, NoiseRatio: 5, Seed: 3}} {
		near(fmt.Sprintf("wikidata %+v", c), len(Wikidata(c).Graph), c.ExpectedFacts())
	}
}

func TestWikidataProgramParses(t *testing.T) {
	prog := rulelang.MustParse(WikidataProgram)
	if len(prog.Rules) != 4 {
		t.Errorf("WikidataProgram has %d rules", len(prog.Rules))
	}
	for _, r := range prog.Rules {
		if !r.Hard() {
			t.Errorf("rule %s should be hard", r.Name)
		}
	}
}

func TestClusteredDeterministic(t *testing.T) {
	a := Clustered(ClusteredConfig{Clusters: 40, ClusterSize: 5, BridgeRate: 0.4, Seed: 3})
	b := Clustered(ClusteredConfig{Clusters: 40, ClusterSize: 5, BridgeRate: 0.4, Seed: 3})
	if len(a.Graph) != len(b.Graph) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Graph), len(b.Graph))
	}
	for i := range a.Graph {
		if a.Graph[i] != b.Graph[i] {
			t.Fatalf("fact %d differs", i)
		}
	}
}

// TestClusteredComponentStructure grounds ClusteredProgram over a
// bridge-free dataset and checks the clause graph splits into exactly
// one conflict component per cluster; with bridges, strictly fewer.
func TestClusteredComponentStructure(t *testing.T) {
	const clusters = 30
	components := func(bridgeRate float64) int {
		ds := Clustered(ClusteredConfig{Clusters: clusters, ClusterSize: 6, BridgeRate: bridgeRate, Seed: 11})
		st := store.New()
		if err := st.AddGraph(ds.Graph); err != nil {
			t.Fatal(err)
		}
		gr := newGrounder(t, st)
		prog := rulelang.MustParse(ClusteredProgram)
		cs, err := gr.GroundProgram(prog)
		if err != nil {
			t.Fatal(err)
		}
		if cs.Len() == 0 {
			t.Fatal("clustered dataset grounds no conflicts")
		}
		n := 0
		for _, c := range cs.Components(ground.CanonicalAtoms(gr.Atoms())) {
			if len(c.Atoms) > 1 {
				n++ // count clause-connected components, not singletons
			}
		}
		return n
	}
	if got := components(0); got != clusters {
		t.Errorf("bridge-free: %d conflict components, want %d", got, clusters)
	}
	if got := components(1.0); got >= clusters {
		t.Errorf("fully bridged: %d conflict components, want < %d", got, clusters)
	}
}

func TestClusteredProgramParses(t *testing.T) {
	prog := rulelang.MustParse(ClusteredProgram)
	if len(prog.Rules) != 2 {
		t.Errorf("ClusteredProgram has %d rules, want 2", len(prog.Rules))
	}
	ds := Clustered(ClusteredConfig{Clusters: 20, ClusterSize: 6, BridgeRate: 0.5, Seed: 2})
	if ds.NoiseCount() == 0 {
		t.Error("clustered dataset injected no labelled noise")
	}
	if err := ds.Graph.Validate(); err != nil {
		t.Errorf("clustered graph invalid: %v", err)
	}
	if ds.Profile != "clustered" {
		t.Errorf("profile = %q", ds.Profile)
	}
}

func TestPoissonishMean(t *testing.T) {
	ds := Football(FootballConfig{Players: 1, Seed: 9}) // exercise generator paths
	_ = ds
}

func BenchmarkFootballGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Football(FootballConfig{Players: 6500, NoiseRatio: 1, Seed: int64(i + 1)})
	}
}

func BenchmarkWikidataGenerateScale01(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Wikidata(WikidataConfig{Scale: 0.01, Seed: int64(i + 1)})
	}
}

// newGrounder builds a grounding engine over a store.
func newGrounder(t testing.TB, st *store.Store) *ground.Grounder {
	t.Helper()
	return ground.New(st)
}
