// Benchmark harness regenerating every table and figure of the TeCoRe
// demo paper's evaluation (README "Tests and benchmarks"):
//
//	E1  Figures 1→7   running example (both solvers)
//	E2  Figure 8      debugging statistics at 243K facts
//	E3  Section 3     nRockIt vs nPSL runtime on FootballDB
//	E4  Section 1/3   1:1 noisy setting, precision/recall
//	E5  Section 1     derived-fact confidence threshold sweep
//	E6  Section 4     Wikidata per-relation scalability
//	E8  (ablation)    cutting-plane inference vs full grounding
//	E10 (ablation)    greedy baseline vs MAP quality
//
// The quality shapes of E3, E4 and E10 are also asserted at small size
// by tier-1 tests (TestPaperShapes, TestNoisyFootballRecovery,
// TestGreedyBaselineNeverBeatsMAP).
//
// Macro benchmarks take seconds per iteration; run with -benchtime=1x
// for a single timed pass:
//
//	go test -bench=. -benchmem -benchtime=1x
package tecore_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	tecore "repro"
	"repro/internal/ground"
	"repro/internal/mln"
	"repro/internal/server"
	"repro/internal/store"
)

// --- E1: running example (Figures 1, 4, 6 → 7) ---

func BenchmarkE1_RunningExample(b *testing.B) {
	for _, solver := range []tecore.Solver{tecore.SolverMLN, tecore.SolverPSL} {
		b.Run(solver.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := tecore.NewSession()
				if err := s.LoadGraphText(figure1); err != nil {
					b.Fatal(err)
				}
				if err := s.LoadProgramText(figure4and6); err != nil {
					b.Fatal(err)
				}
				res, err := s.Solve(tecore.SolveOptions{Solver: solver})
				if err != nil {
					b.Fatal(err)
				}
				if res.Stats.RemovedFacts != 1 {
					b.Fatalf("removed %d facts, want 1 (Napoli)", res.Stats.RemovedFacts)
				}
			}
		})
	}
}

// --- E2: Figure 8 — debugging statistics at the demo's scale ---
// Paper: 19,734 conflicting facts in a utkg of 243,157 temporal facts
// (≈8.1%). The Wikidata-profile generator's default noise rate is tuned
// to that fraction; "conflicting facts" counts the members of conflict
// clusters (both sides of each violated constraint grounding).

func BenchmarkE2_DebuggingStats(b *testing.B) {
	// Scale 0.0633 yields ≈243K facts with the profile's mean spells;
	// the noise rate is calibrated to Figure 8's 8.1% conflicting facts.
	ds := tecore.GenerateWikidata(tecore.WikidataConfig{Scale: 0.0633, NoiseRatio: 0.039, Seed: 1})
	b.Logf("dataset: %d facts (paper: 243,157)", len(ds.Graph))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := tecore.NewSession()
		if err := s.LoadGraph(ds.Graph); err != nil {
			b.Fatal(err)
		}
		if err := s.LoadProgramText(tecore.WikidataProgram); err != nil {
			b.Fatal(err)
		}
		res, err := s.Solve(tecore.SolveOptions{Solver: tecore.SolverPSL})
		if err != nil {
			b.Fatal(err)
		}
		conflicting := 0
		for _, cl := range collect(res.Clusters.Each) {
			conflicting += len(cl.Keys)
		}
		b.ReportMetric(float64(len(ds.Graph)), "facts")
		b.ReportMetric(float64(conflicting), "conflicting")
		b.ReportMetric(float64(res.Stats.RemovedFacts), "removed")
		b.ReportMetric(100*float64(conflicting)/float64(len(ds.Graph)), "conflict_%")
	}
}

// --- E3: Section 3 — nRockIt vs nPSL on FootballDB ---
// Paper: nRockIt 12,181 ms vs nPSL 6,129 ms (average of 10 runs) on the
// FootballDB utkg. Absolute times differ on our substrate; the shape to
// reproduce is PSL ≈ 2× faster with the same removal decisions.

func BenchmarkE3_MLNvsPSL_FootballDB(b *testing.B) {
	ds := tecore.GenerateFootball(tecore.FootballConfig{Players: 6500, NoiseRatio: 0.05, Seed: 1})
	b.Logf("dataset: %d facts (paper: >13K playsFor + >6K birthDate)", len(ds.Graph))
	for _, solver := range []tecore.Solver{tecore.SolverMLN, tecore.SolverPSL} {
		b.Run(solver.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := tecore.NewSession()
				if err := s.LoadGraph(ds.Graph); err != nil {
					b.Fatal(err)
				}
				if err := s.LoadProgramText(tecore.FootballProgram); err != nil {
					b.Fatal(err)
				}
				res, err := s.Solve(tecore.SolveOptions{Solver: solver})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Stats.RemovedFacts), "removed")
				b.ReportMetric(float64(res.Output.Runtime.Milliseconds()), "solver_ms")
			}
		})
	}
}

// --- E4: the highly noisy setting (1:1 noise), precision/recall ---

func BenchmarkE4_NoisyDebugging(b *testing.B) {
	ds := tecore.GenerateFootball(tecore.FootballConfig{Players: 1500, NoiseRatio: 1.0, Seed: 2})
	b.Logf("dataset: %d facts, %d injected noise", len(ds.Graph), ds.NoiseCount())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := tecore.NewSession()
		if err := s.LoadGraph(ds.Graph); err != nil {
			b.Fatal(err)
		}
		if err := s.LoadProgramText(tecore.FootballProgram); err != nil {
			b.Fatal(err)
		}
		res, err := s.Solve(tecore.SolveOptions{Solver: tecore.SolverMLN})
		if err != nil {
			b.Fatal(err)
		}
		tp, fp := 0, 0
		for _, f := range collect(res.Removed.Each) {
			if ds.Noise[f.Quad.Fact()] {
				tp++
			} else {
				fp++
			}
		}
		b.ReportMetric(float64(tp)/float64(tp+fp), "precision")
		b.ReportMetric(float64(tp)/float64(ds.NoiseCount()), "recall")
		b.ReportMetric(float64(res.Stats.RemovedFacts), "removed")
	}
}

// --- E5: derived-fact confidence threshold sweep ---

func BenchmarkE5_ThresholdSweep(b *testing.B) {
	ds := tecore.GenerateFootball(tecore.FootballConfig{Players: 300, Seed: 3})
	rules := tecore.FootballProgram + `
f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5
f2: quad(x, playsFor, y, t) ^ duration(t) >= 4 -> quad(x, type, Veteran, t) w = 0.8
`
	for _, threshold := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		b.Run(fmt.Sprintf("threshold=%.1f", threshold), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := tecore.NewSession()
				if err := s.LoadGraph(ds.Graph); err != nil {
					b.Fatal(err)
				}
				if err := s.LoadProgramText(rules); err != nil {
					b.Fatal(err)
				}
				res, err := s.Solve(tecore.SolveOptions{Solver: tecore.SolverMLN, Threshold: threshold})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Stats.InferredFacts), "inferred")
				b.ReportMetric(float64(res.Stats.ThresholdFiltered), "filtered")
			}
		})
	}
}

// --- E6: Wikidata per-relation scalability (Section 4 cardinalities) ---
// One sub-benchmark per relation at the paper's relative sizes (scaled);
// runtime should be ordered by relation cardinality and near-linear for
// the PSL backend.

func BenchmarkE6_WikidataRelations(b *testing.B) {
	ds := tecore.GenerateWikidata(tecore.WikidataConfig{Scale: 0.01, Seed: 4})
	perRelation := map[string]tecore.Graph{}
	for _, q := range ds.Graph {
		p := q.Predicate.Value
		perRelation[p] = append(perRelation[p], q)
	}
	constraints := map[string]string{
		"playsFor":   "c: quad(x, playsFor, y, t) ^ quad(x, playsFor, z, t') ^ y != z -> disjoint(t, t') w = inf",
		"spouse":     "c: quad(x, spouse, y, t) ^ quad(x, spouse, z, t') ^ y != z -> disjoint(t, t') w = inf",
		"memberOf":   "c: quad(x, memberOf, y, t) ^ start(t) < 1900 -> false w = inf",
		"educatedAt": "c: quad(x, educatedAt, y, t) ^ quad(x, educatedAt, z, t') ^ y != z -> disjoint(t, t') w = inf",
		"occupation": "c: quad(x, occupation, y, t) ^ quad(x, occupation, z, t') ^ overlap(t, t') -> y = z w = inf",
	}
	for _, rel := range []string{"playsFor", "spouse", "memberOf", "educatedAt", "occupation"} {
		g := perRelation[rel]
		b.Run(fmt.Sprintf("%s_%d", rel, len(g)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := tecore.NewSession()
				if err := s.LoadGraph(g); err != nil {
					b.Fatal(err)
				}
				if err := s.LoadProgramText(constraints[rel]); err != nil {
					b.Fatal(err)
				}
				res, err := s.Solve(tecore.SolveOptions{Solver: tecore.SolverPSL})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(len(g)), "facts")
				b.ReportMetric(float64(res.Stats.RemovedFacts), "removed")
			}
		})
	}
}

// --- E8: cutting-plane inference ablation ---
// RockIt's scalability device: ground only violated formulas lazily.
// Compare the rule-clause counts and runtime of the session's
// per-component MaxSAT over every grounding ("full") with the
// whole-network cutting-plane oracle's MaxSAT over the violated ones
// ("cpi"), run on a fresh grounder, on a conflict-sparse dataset.

func BenchmarkE8_CuttingPlaneAblation(b *testing.B) {
	ds := tecore.GenerateFootball(tecore.FootballConfig{Players: 2000, NoiseRatio: 0.02, Seed: 5})
	prog, err := tecore.ParseRules(tecore.FootballProgram)
	if err != nil {
		b.Fatal(err)
	}
	solve := map[string]func() (*mln.Result, error){
		"full": func() (*mln.Result, error) {
			s := tecore.NewSession()
			if err := s.LoadGraph(ds.Graph); err != nil {
				return nil, err
			}
			if err := s.LoadProgramText(tecore.FootballProgram); err != nil {
				return nil, err
			}
			res, err := s.Solve(tecore.SolveOptions{Solver: tecore.SolverMLN})
			if err != nil {
				return nil, err
			}
			return res.Output.MLN, nil
		},
		"cpi": func() (*mln.Result, error) {
			st := store.New()
			if err := st.AddGraph(ds.Graph); err != nil {
				return nil, err
			}
			g := ground.New(st)
			if _, err := g.Close(prog); err != nil {
				return nil, err
			}
			cs, err := g.GroundProgram(prog)
			if err != nil {
				return nil, err
			}
			return mln.CuttingPlane(g.Atoms(), cs, mln.Options{})
		},
	}
	for _, mode := range []string{"full", "cpi"} {
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := solve[mode]()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.GroundClauses), "ground_clauses")
				b.ReportMetric(float64(res.Rounds), "rounds")
			}
		})
	}
}

// --- Parallel scaling: the E6 workload across worker pool sizes ---
// The solve pipeline (grounding, per-component solves, ADMM sweeps) fans
// out across a bounded worker pool with byte-identical results; this
// benchmark measures the wall-clock effect on the largest E6 relation
// for both backends. parallel=1 is the sequential path, parallel=0 all cores.

func BenchmarkParallelismScaling(b *testing.B) {
	ds := tecore.GenerateWikidata(tecore.WikidataConfig{Scale: 0.01, Seed: 4})
	var largest tecore.Graph
	perRelation := map[string]tecore.Graph{}
	for _, q := range ds.Graph {
		p := q.Predicate.Value
		perRelation[p] = append(perRelation[p], q)
		if len(perRelation[p]) > len(largest) {
			largest = perRelation[p]
		}
	}
	rel := largest[0].Predicate.Value
	program := fmt.Sprintf(
		"c: quad(x, <%s>, y, t) ^ quad(x, <%s>, z, t') ^ y != z -> disjoint(t, t') w = inf", rel, rel)
	b.Logf("relation %s: %d facts", rel, len(largest))
	for _, solver := range []tecore.Solver{tecore.SolverPSL, tecore.SolverMLN} {
		for _, parallel := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/parallel=%d", solver, parallel), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					s := tecore.NewSession()
					if err := s.LoadGraph(largest); err != nil {
						b.Fatal(err)
					}
					if err := s.LoadProgramText(program); err != nil {
						b.Fatal(err)
					}
					res, err := s.Solve(tecore.SolveOptions{Solver: solver, Parallelism: parallel})
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(res.Stats.RemovedFacts), "removed")
				}
			})
		}
	}
}

// --- Incremental solving: single-fact update vs full re-solve ---
// The stateful session grounds once; each update flows through the
// store's epoch delta (seminaive re-grounding of affected rules only)
// and warm-starts the solver from the previous solution. full/ measures
// the from-scratch cost a stateless client pays per update; update/
// measures the delta path on a session that toggles one fact per
// iteration; the delta path is expected ≥5× faster.

func BenchmarkIncrementalUpdate(b *testing.B) {
	ds := tecore.GenerateFootball(tecore.FootballConfig{Players: 2000, NoiseRatio: 0.05, Seed: 9})
	b.Logf("dataset: %d facts", len(ds.Graph))
	probe := tecore.NewQuad("player_42", "playsFor", "bench_club",
		tecore.MustInterval(1995, 1997), 0.7)
	for _, solver := range []tecore.Solver{tecore.SolverPSL, tecore.SolverMLN} {
		b.Run("full/"+solver.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := tecore.NewSession()
				if err := s.LoadGraph(ds.Graph); err != nil {
					b.Fatal(err)
				}
				if err := s.LoadProgramText(tecore.FootballProgram); err != nil {
					b.Fatal(err)
				}
				if i%2 == 0 {
					if err := s.AddFact(probe); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := s.Solve(tecore.SolveOptions{Solver: solver}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("update/"+solver.String(), func(b *testing.B) {
			s := tecore.NewSession()
			if err := s.LoadGraph(ds.Graph); err != nil {
				b.Fatal(err)
			}
			if err := s.LoadProgramText(tecore.FootballProgram); err != nil {
				b.Fatal(err)
			}
			if _, err := s.Solve(tecore.SolveOptions{Solver: solver}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%2 == 0 {
					if err := s.AddFact(probe); err != nil {
						b.Fatal(err)
					}
				} else {
					s.RemoveFact(probe)
				}
				res, err := s.Solve(tecore.SolveOptions{Solver: solver})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Incremental {
					b.Fatal("update solve did not take the delta path")
				}
			}
		})
	}
}

// --- Component-decomposed solving ---
// The clustered workload splits into one conflict component per cluster
// (a few merged by bridges). cold solves them with per-component engines
// in parallel; update additionally reuses cached component solutions so
// a single-fact toggle re-solves only the component it dirtied.

func BenchmarkComponentSolve(b *testing.B) {
	ds := tecore.GenerateClustered(tecore.ClusteredConfig{
		Clusters: 150, ClusterSize: 6, BridgeRate: 0.1, Seed: 11})
	probe := tecore.NewQuad("player/00001", "playsFor", "club/00001/probe",
		tecore.MustInterval(1991, 1993), 0.55)
	b.Logf("dataset: %d facts in 150 clusters", len(ds.Graph))
	newSession := func(b *testing.B) *tecore.Session {
		s := tecore.NewSession()
		if err := s.LoadGraph(ds.Graph); err != nil {
			b.Fatal(err)
		}
		if err := s.LoadProgramText(tecore.ClusteredProgram); err != nil {
			b.Fatal(err)
		}
		return s
	}
	opts := tecore.SolveOptions{Solver: tecore.SolverMLN}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := newSession(b)
			res, err := s.Solve(opts)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Stats.Components.Count), "components")
		}
	})
	b.Run("update", func(b *testing.B) {
		s := newSession(b)
		if _, err := s.Solve(opts); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%2 == 0 {
				if err := s.AddFact(probe); err != nil {
					b.Fatal(err)
				}
			} else {
				s.RemoveFact(probe)
			}
			res, err := s.Solve(opts)
			if err != nil {
				b.Fatal(err)
			}
			if !res.Incremental {
				b.Fatal("update solve did not take the delta path")
			}
			b.ReportMetric(float64(res.Stats.Components.Reused), "reused")
		}
	})
}

// BenchmarkRepairStage isolates the conflict-resolution read-out stage
// of incremental single-fact re-solves on the clustered workload: the
// component-incremental pass re-analyses only the dirtied component and
// replays the rest from the repair cache. The reported metric is the
// repair stage's own timing, not the whole solve.
func BenchmarkRepairStage(b *testing.B) {
	ds := tecore.GenerateClustered(tecore.ClusteredConfig{
		Clusters: 150, ClusterSize: 6, BridgeRate: 0.1, Seed: 11})
	probe := tecore.NewQuad("player/00001", "playsFor", "club/00001/probe",
		tecore.MustInterval(1991, 1993), 0.55)
	opts := tecore.SolveOptions{Solver: tecore.SolverMLN}
	s := tecore.NewSession()
	if err := s.LoadGraph(ds.Graph); err != nil {
		b.Fatal(err)
	}
	if err := s.LoadProgramText(tecore.ClusteredProgram); err != nil {
		b.Fatal(err)
	}
	if _, err := s.Solve(opts); err != nil {
		b.Fatal(err)
	}
	var repairNS float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			if err := s.AddFact(probe); err != nil {
				b.Fatal(err)
			}
		} else {
			s.RemoveFact(probe)
		}
		res, err := s.Solve(opts)
		if err != nil {
			b.Fatal(err)
		}
		rs := res.Stats.Repair
		if rs == nil {
			b.Fatal("solve reported no repair stage stats")
		}
		repairNS += float64(rs.Total.Nanoseconds())
		if rs.Reused == 0 {
			b.Fatal("component repair reused nothing on an incremental update")
		}
	}
	b.ReportMetric(repairNS/float64(b.N), "repair-ns/op")
}

// BenchmarkOutcomeStage isolates the Outcome production stage of
// incremental component re-solves: the live delta-patched outcome on
// single-fact update toggles of a warm clustered session, which splices
// one component of ~150 into the maintained lists instead of rebuilding
// them.
func BenchmarkOutcomeStage(b *testing.B) {
	ds := tecore.GenerateClustered(tecore.ClusteredConfig{
		Clusters: 150, ClusterSize: 6, BridgeRate: 0.1, Seed: 11})
	probe := tecore.NewQuad("player/00001", "playsFor", "club/00001/probe",
		tecore.MustInterval(1991, 1993), 0.55)
	opts := tecore.SolveOptions{Solver: tecore.SolverMLN}
	s := tecore.NewSession()
	if err := s.LoadGraph(ds.Graph); err != nil {
		b.Fatal(err)
	}
	if err := s.LoadProgramText(tecore.ClusteredProgram); err != nil {
		b.Fatal(err)
	}
	if _, err := s.Solve(opts); err != nil {
		b.Fatal(err)
	}
	var outcomeNS float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			if err := s.AddFact(probe); err != nil {
				b.Fatal(err)
			}
		} else {
			s.RemoveFact(probe)
		}
		res, err := s.Solve(opts)
		if err != nil {
			b.Fatal(err)
		}
		ocs := res.Stats.Outcome
		if ocs == nil || ocs.Mode != tecore.OutcomeLive {
			b.Fatalf("solve reported outcome stats %+v, want mode %s", ocs, tecore.OutcomeLive)
		}
		outcomeNS += float64(ocs.Total.Nanoseconds())
		if ocs.Reused == 0 {
			b.Fatal("live outcome reused nothing on an incremental update")
		}
	}
	b.ReportMetric(outcomeNS/float64(b.N), "outcome-ns/op")
}

// --- Concurrent session serving: the HTTP session API under load ---
// K sessions, each its own clustered dataset, all applying one batch
// toggle + component re-solve per iteration concurrently; bench/'s
// mixed-rw and stream-durable workloads measure the same path against
// the real server process.
func BenchmarkServeConcurrentSessions(b *testing.B) {
	const nSessions = 4
	srv := server.NewWithConfig(server.Config{MaxQueuedSolves: 2 * nSessions})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: nSessions + 2}}
	post := func(path string, body, out any) error {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		resp, err := client.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("POST %s: status %d", path, resp.StatusCode)
		}
		if out != nil {
			return json.NewDecoder(resp.Body).Decode(out)
		}
		return nil
	}
	solve := &server.SessionSolveRequest{Solver: "mln"}
	ids := make([]string, nSessions)
	for i := range ids {
		ds := tecore.GenerateClustered(tecore.ClusteredConfig{
			Clusters: 40, ClusterSize: 6, BridgeRate: 0.1, Seed: int64(20 + i)})
		var sb strings.Builder
		if err := tecore.WriteGraph(&sb, ds.Graph); err != nil {
			b.Fatal(err)
		}
		var info server.SessionInfo
		if err := post("/api/sessions", server.CreateSessionRequest{
			TQuads: sb.String(), Rules: tecore.ClusteredProgram}, &info); err != nil {
			b.Fatal(err)
		}
		if err := post("/api/sessions/"+info.ID+"/solve", solve, nil); err != nil {
			b.Fatal(err)
		}
		ids[i] = info.ID
	}
	probe := "player/00001 playsFor club/00001/probe [1991,1993] 0.55"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := server.BatchRequest{Solve: solve}
		if i%2 == 0 {
			req.Add = probe
		} else {
			req.Remove = probe
		}
		var wg sync.WaitGroup
		errs := make([]error, len(ids))
		for j, id := range ids {
			wg.Add(1)
			go func(j int, id string) {
				defer wg.Done()
				errs[j] = post("/api/sessions/"+id+"/batch", req, nil)
			}(j, id)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(nSessions), "sessions")
}

// --- Extension: constraint-suggestion mining cost ---
// Not a paper table; measures the Section-4 "automatic suggestion"
// extension at FootballDB scale.

func BenchmarkSuggestMiningFootball(b *testing.B) {
	ds := tecore.GenerateFootball(tecore.FootballConfig{Players: 6500, NoiseRatio: 0.1, Seed: 6})
	s := tecore.NewSession()
	if err := s.LoadGraph(ds.Graph); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sugs, err := tecore.SuggestConstraints(s, tecore.SuggestOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(sugs)), "suggestions")
	}
}

// --- E10 (ablation): greedy baseline vs MAP quality ---
// Greedy repair keeps facts strongest-first; MAP optimises globally.
// Compare removed confidence mass (lower is better) and wall clock on
// the noisy football profile.

func BenchmarkE10_GreedyVsMAP(b *testing.B) {
	ds := tecore.GenerateFootball(tecore.FootballConfig{Players: 1500, NoiseRatio: 0.5, Seed: 8})
	for _, solverName := range []string{"greedy", "mln"} {
		solver, err := tecore.ParseSolver(solverName)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(solverName, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := tecore.NewSession()
				if err := s.LoadGraph(ds.Graph); err != nil {
					b.Fatal(err)
				}
				if err := s.LoadProgramText(tecore.FootballProgram); err != nil {
					b.Fatal(err)
				}
				res, err := s.Solve(tecore.SolveOptions{Solver: solver})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Stats.RemovedWeight, "removed_weight")
				b.ReportMetric(float64(res.Stats.RemovedFacts), "removed")
			}
		})
	}
}
