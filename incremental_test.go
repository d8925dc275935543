package tecore_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	tecore "repro"
	"repro/internal/baseline"
	"repro/internal/ground"
	"repro/internal/mln"
	"repro/internal/repair"
	"repro/internal/store"
	"repro/internal/translate"
)

// The incremental engine's contract: after any sequence of fact adds,
// removes, confidence updates and solves, a Session's delta-path Solve
// returns the same Resolution a brand-new session over the same live
// graph computes from scratch. These tests drive randomized mutation
// sequences against both and compare canonicalised results at every
// step, at parallelism 1 and N.

// canonResolution renders the solver-order-independent content of a
// Resolution: statistics (minus runtimes), the kept/removed/inferred
// fact sets with explanations, and the conflict clusters. Atom ids and
// iteration orders legitimately differ between a long-lived incremental
// engine and a fresh grounder, so everything is sorted by statement key.
// confDigits bounds the confidence precision compared; pass a negative
// value to omit confidences entirely (the warm-ADMM test checks them
// separately with a numeric tolerance instead of string rounding).
func canonResolution(r *tecore.Resolution, confDigits int) string {
	var b strings.Builder
	st := r.Stats
	st.Runtime = 0
	st.Solver = ""
	// Component, repair-stage and outcome-stage statistics legitimately
	// differ between the whole-network reference and the session pipeline
	// (and between cold and cached component solves); the MAP state and
	// read-out they describe must not.
	st.Components = nil
	st.Repair = nil
	st.Outcome = nil
	st.Ground = nil
	st.Plan = nil
	fmt.Fprintf(&b, "stats: %+v\n", st)
	section := func(label string, fs []tecore.Fact) {
		lines := make([]string, 0, len(fs))
		for _, f := range fs {
			ex := make([]string, 0, len(f.Explanations))
			for _, e := range f.Explanations {
				ex = append(ex, e.String())
			}
			sort.Strings(ex)
			conf := ""
			if confDigits >= 0 {
				conf = fmt.Sprintf(" conf=%.*f", confDigits, f.Quad.Confidence)
			}
			lines = append(lines, fmt.Sprintf("%s %s%s derived=%v expl=%v",
				label, f.Quad.Fact(), conf, f.Derived, ex))
		}
		sort.Strings(lines)
		for _, l := range lines {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	section("kept", collect(r.Kept.Each))
	section("removed", collect(r.Removed.Each))
	section("inferred", collect(r.Inferred.Each))
	clusters := make([]string, 0, r.Clusters.Len())
	for _, cl := range collect(r.Clusters.Each) {
		keys := make([]string, 0, len(cl.Keys))
		for _, k := range cl.Keys {
			keys = append(keys, k.String())
		}
		sort.Strings(keys)
		clusters = append(clusters, strings.Join(keys, " | "))
	}
	sort.Strings(clusters)
	for _, c := range clusters {
		b.WriteString("cluster ")
		b.WriteString(c)
		b.WriteByte('\n')
	}
	return b.String()
}

// factPool builds overlapping coaching/playing spells that exercise the
// running example's rule shapes: inference (playsFor ⇒ worksFor) plus a
// hard disjointness constraint with real conflicts.
func factPool(subjects, clubs int) []tecore.Quad {
	var pool []tecore.Quad
	for s := 0; s < subjects; s++ {
		subj := fmt.Sprintf("P%d", s)
		for c := 0; c < clubs; c++ {
			club := fmt.Sprintf("Club%d", c)
			start := int64(2000 + 3*c)
			pool = append(pool,
				tecore.NewQuad(subj, "coach", club, tecore.MustInterval(start, start+4), 0.5+0.1*float64(c%5)),
				tecore.NewQuad(subj, "playsFor", club, tecore.MustInterval(start-10, start-8), 0.6+0.1*float64((c+s)%4)),
			)
		}
	}
	return pool
}

const incrementalProgram = `
f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5
c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf
`

// cascadeProgram chains rules (f2 consumes f1's derived worksFor heads
// through a two-atom body), so incremental solves exercise multi-round
// CloseDelta, the seminaive stratification over several body positions,
// and delete/rederive across derivation chains: removing a playsFor
// fact must cascade through worksFor into livesIn unless an alternative
// derivation survives.
const cascadeProgram = `
f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5
f2: quad(x, worksFor, y, t) ^ quad(y, locatedIn, z, t') ^ overlaps(t, t') -> quad(x, livesIn, z, intersect(t, t')) w = 1.6
c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf
`

// cascadePool adds the locatedIn layer f2 joins against.
func cascadePool(subjects, clubs int) []tecore.Quad {
	pool := factPool(subjects, clubs)
	for c := 0; c < clubs; c++ {
		club := fmt.Sprintf("Club%d", c)
		city := fmt.Sprintf("City%d", c%2)
		pool = append(pool,
			tecore.NewQuad(club, "locatedIn", city, tecore.MustInterval(1980, 2020), 0.9))
	}
	return pool
}

// runIncrementalVsFresh drives nSteps random mutations + solves and
// fails on the first divergence between the incremental session and a
// from-scratch solve over the same live graph.
func runIncrementalVsFresh(t *testing.T, pool []tecore.Quad, opts tecore.SolveOptions, seed int64, nSteps int) {
	runIncrementalVsFreshProgram(t, incrementalProgram, pool, opts, seed, nSteps, 17)
}

func runIncrementalVsFreshAt(t *testing.T, pool []tecore.Quad, opts tecore.SolveOptions, seed int64, nSteps int, confDigits int) {
	runIncrementalVsFreshProgram(t, incrementalProgram, pool, opts, seed, nSteps, confDigits)
}

func runIncrementalVsFreshProgram(t *testing.T, program string, pool []tecore.Quad, opts tecore.SolveOptions, seed int64, nSteps int, confDigits int) {
	t.Helper()
	runTwoWaysProgram(t, program, pool, opts, opts, seed, nSteps, confDigits)
}

// runTwoWaysProgram drives nSteps random mutations against a long-lived
// incremental session solved with incOpts and, at every step, a
// brand-new session over the same live graph solved with freshOpts,
// failing on the first divergence: incOpts == freshOpts is the
// incremental-vs-fresh contract.
func runTwoWaysProgram(t *testing.T, program string, pool []tecore.Quad, incOpts, freshOpts tecore.SolveOptions, seed int64, nSteps int, confDigits int) {
	t.Helper()
	runTwoWaysWithBase(t, program, nil, pool, incOpts, freshOpts, seed, nSteps, confDigits, nil)
}

// runTwoWaysWithBase is runTwoWaysProgram over a session that also holds
// the base facts, loaded first and never mutated, handing each
// incremental Resolution to check when it is non-nil.
func runTwoWaysWithBase(t *testing.T, program string, base, pool []tecore.Quad, incOpts, freshOpts tecore.SolveOptions, seed int64, nSteps int, confDigits int,
	check func(t *testing.T, step int, res *tecore.Resolution)) {
	t.Helper()
	runAgainstReference(t, program, base, pool, incOpts, check, func(t *testing.T, g tecore.Graph) *tecore.Resolution {
		fresh := tecore.NewSession()
		if err := fresh.LoadGraph(g); err != nil {
			t.Fatal(err)
		}
		if err := fresh.LoadProgramText(program); err != nil {
			t.Fatal(err)
		}
		res, err := fresh.Solve(freshOpts)
		if err != nil {
			t.Fatalf("fresh solve: %v", err)
		}
		return res
	}, seed, nSteps, confDigits)
}

// runVsOracle is runTwoWaysProgram with wholeNetworkReference under
// oracleOpts as the reference, which never runs Session.Solve: against
// the MLN kernel that is the component-equivalence contract, against
// the greedy kernel the session-vs-oracle contract.
func runVsOracle(t *testing.T, program string, pool []tecore.Quad, incOpts, oracleOpts tecore.SolveOptions, seed int64, nSteps int, confDigits int) {
	t.Helper()
	runAgainstReference(t, program, nil, pool, incOpts, nil, func(t *testing.T, g tecore.Graph) *tecore.Resolution {
		return wholeNetworkReference(t, program, g, oracleOpts)
	}, seed, nSteps, confDigits)
}

// runAgainstReference drives nSteps random mutations of pool against a
// long-lived incremental session holding the base facts, solved with
// incOpts, and compares it at every step with reference over the same
// live graph. check, when non-nil, sees each incremental Resolution.
func runAgainstReference(t *testing.T, program string, base, pool []tecore.Quad, incOpts tecore.SolveOptions,
	check func(t *testing.T, step int, res *tecore.Resolution),
	reference func(t *testing.T, g tecore.Graph) *tecore.Resolution, seed int64, nSteps int, confDigits int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	inc := tecore.NewSession()
	if err := inc.LoadProgramText(program); err != nil {
		t.Fatal(err)
	}
	if err := inc.LoadGraph(base); err != nil {
		t.Fatal(err)
	}
	live := make(map[int]bool)
	// Start from a third of the pool.
	for i := range pool {
		if i%3 == 0 {
			if err := inc.AddFact(pool[i]); err != nil {
				t.Fatal(err)
			}
			live[i] = true
		}
	}
	for step := 0; step < nSteps; step++ {
		// Mutate: a couple of random adds/removes/updates per step.
		for m := 0; m < 1+rng.Intn(3); m++ {
			i := rng.Intn(len(pool))
			switch op := rng.Intn(4); {
			case op < 2: // add (possibly re-add / revive)
				q := pool[i]
				if rng.Intn(2) == 0 {
					q.Confidence = 0.5 + 0.4*rng.Float64() // confidence update path
				}
				if err := inc.AddFact(q); err != nil {
					t.Fatal(err)
				}
				live[i] = true
			case op < 3: // remove (possibly a no-op)
				inc.RemoveFact(pool[i])
				delete(live, i)
			default: // remove + immediate revive in the same window
				if live[i] {
					inc.RemoveFact(pool[i])
					if err := inc.AddFact(pool[i]); err != nil {
						t.Fatal(err)
					}
				}
			}
		}

		incRes, err := inc.Solve(incOpts)
		if err != nil {
			t.Fatalf("step %d: incremental solve: %v", step, err)
		}
		if step > 0 && !incRes.Incremental {
			t.Fatalf("step %d: solve did not take the delta path", step)
		}
		if check != nil {
			check(t, step, incRes)
		}

		freshRes := reference(t, inc.Store().Graph())
		got, want := canonResolution(incRes, confDigits), canonResolution(freshRes, confDigits)
		if got != want {
			t.Fatalf("step %d: incremental result diverged from from-scratch solve\nincremental:\n%s\nfresh:\n%s", step, got, want)
		}
		if confDigits < 0 {
			if err := confsClose(incRes, freshRes, 5e-3); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
}

// wholeNetworkReference is the independent whole-network oracle: a
// fresh store and grounder closed under the program and fully grounded,
// one cutting-plane MaxSAT (mln.CuttingPlane, the MLN solver, which must
// prove its optimum) or one
// greedy sweep (baseline.Solve, the greedy solver) over that clause set,
// and the whole-graph repair.Resolve read-out. It shares no engine, plan, cache, kernel
// state or live outcome with Session.Solve.
func wholeNetworkReference(t *testing.T, program string, g tecore.Graph, opts tecore.SolveOptions) *tecore.Resolution {
	t.Helper()
	prog, err := tecore.ParseRules(program)
	if err != nil {
		t.Fatal(err)
	}
	st := store.New()
	if err := st.AddGraph(g); err != nil {
		t.Fatal(err)
	}
	gr := ground.New(st)
	gr.Parallelism = opts.Parallelism
	if _, err := gr.Close(prog); err != nil {
		t.Fatal(err)
	}
	out := &translate.Output{Solver: opts.Solver, Grounder: gr}
	if out.Clauses, err = gr.GroundProgram(prog); err != nil {
		t.Fatal(err)
	}
	switch opts.Solver {
	case translate.SolverGreedy:
		out.Truth = baseline.Solve(gr.Atoms(), out.Clauses).Truth
	case translate.SolverMLN:
		if out.MLN, err = mln.CuttingPlane(gr.Atoms(), out.Clauses, mln.Options{}); err != nil {
			t.Fatal(err)
		}
		if !out.MLN.HardSatisfied {
			t.Fatal("reference: no assignment satisfies the hard constraints")
		}
		if !out.MLN.Optimal {
			t.Fatal("reference: the whole-network MaxSAT was not solved exactly")
		}
		out.Truth = out.MLN.Truth
	default:
		t.Fatalf("no whole-network reference for %v", opts.Solver)
	}
	oc, err := repair.Resolve(out, repair.Options{Threshold: opts.Threshold})
	if err != nil {
		t.Fatal(err)
	}
	return &tecore.Resolution{Outcome: oc, Output: out}
}

// confsClose compares the two resolutions' fact confidences by
// statement key within tol.
func confsClose(a, b *tecore.Resolution, tol float64) error {
	collect := func(r *tecore.Resolution) map[string]float64 {
		m := make(map[string]float64)
		for _, fs := range []tecore.FactList{r.Kept, r.Removed, r.Inferred} {
			for _, f := range collect(fs.Each) {
				m[f.Quad.Fact().String()] = f.Quad.Confidence
			}
		}
		return m
	}
	am, bm := collect(a), collect(b)
	for k, av := range am {
		bv, ok := bm[k]
		if !ok {
			return fmt.Errorf("fact %s missing from fresh result", k)
		}
		if d := av - bv; d > tol || d < -tol {
			return fmt.Errorf("fact %s confidence differs: %g vs %g", k, av, bv)
		}
	}
	return nil
}

func TestIncrementalMatchesFreshMLNExact(t *testing.T) {
	// Small pool: the ground network stays within the exact MaxSAT
	// engine, where the warm-started search provably returns the same
	// optimum as a cold one.
	pool := factPool(2, 3)
	for _, par := range []int{1, 0} {
		t.Run(fmt.Sprintf("parallel=%d", par), func(t *testing.T) {
			runIncrementalVsFresh(t, pool,
				tecore.SolveOptions{Solver: tecore.SolverMLN, Parallelism: par}, 7, 12)
		})
	}
}

func TestIncrementalMatchesFreshMLNLocalSearchCold(t *testing.T) {
	// A 50-atom clique, too wide for bucket elimination and too large
	// for the branch-and-bound, takes the stochastic local-search path.
	// With ColdStart the incremental side must hand it a byte-identical
	// canonical problem, making even the random walk reproduce exactly.
	pool := factPool(4, 6)
	for _, par := range []int{1, 0} {
		t.Run(fmt.Sprintf("parallel=%d", par), func(t *testing.T) {
			opts := tecore.SolveOptions{Solver: tecore.SolverMLN, Parallelism: par, ColdStart: true}
			runTwoWaysWithBase(t, incrementalProgram, localClique("Q", 50, 11), pool, opts, opts, 11, 8, 17, requireLocal)
		})
	}
}

// requireLocal fails a step whose solve ran no component by local
// search.
func requireLocal(t *testing.T, step int, res *tecore.Resolution) {
	t.Helper()
	if cs := res.Stats.Components; cs.Engines["local"] == 0 {
		t.Fatalf("step %d: no component went to local search: %+v", step, cs.Engines)
	}
}

func TestIncrementalMatchesFreshPSLCold(t *testing.T) {
	pool := factPool(3, 4)
	for _, par := range []int{1, 0} {
		t.Run(fmt.Sprintf("parallel=%d", par), func(t *testing.T) {
			runIncrementalVsFresh(t, pool,
				tecore.SolveOptions{Solver: tecore.SolverPSL, Parallelism: par, ColdStart: true}, 13, 8)
		})
	}
}

func TestIncrementalMatchesFreshCascade(t *testing.T) {
	// Rule cascades: f2 consumes f1's derived heads via a two-atom body.
	// Small pool keeps the network in the exact engine, so warm starts
	// stay provably identical; mutations on playsFor facts force the
	// delete/rederive pass to walk derivation chains.
	pool := cascadePool(2, 2)
	for _, par := range []int{1, 0} {
		t.Run(fmt.Sprintf("mln/parallel=%d", par), func(t *testing.T) {
			runIncrementalVsFreshProgram(t, cascadeProgram, pool,
				tecore.SolveOptions{Solver: tecore.SolverMLN, Parallelism: par}, 23, 12, 17)
		})
	}
	// Larger cascade beside a 50-atom clique that goes to the stochastic
	// local-search path, cold.
	t.Run("mln/local-cold", func(t *testing.T) {
		opts := tecore.SolveOptions{Solver: tecore.SolverMLN, ColdStart: true}
		runTwoWaysWithBase(t, cascadeProgram, localClique("Q", 50, 29), cascadePool(4, 5), opts, opts, 29, 8, 17, requireLocal)
	})
	t.Run("psl/cold", func(t *testing.T) {
		runIncrementalVsFreshProgram(t, cascadeProgram, cascadePool(3, 3),
			tecore.SolveOptions{Solver: tecore.SolverPSL, ColdStart: true}, 31, 8, 17)
	})
}

func TestIncrementalMatchesFreshPSLWarm(t *testing.T) {
	// Warm-started ADMM (restarted from the previous solve's primal and
	// dual iterates) converges to the same unique optimum of the
	// strictly convex HL-MRF, but only to within the residual tolerance
	// Eps = 1e-4, so confidences are compared numerically at 5e-3.
	// Everything discrete — kept/removed/inferred sets, clusters,
	// statistics — must still match exactly.
	pool := factPool(3, 4)
	runIncrementalVsFreshAt(t, pool,
		tecore.SolveOptions{Solver: tecore.SolverPSL}, 17, 8, -1)
}

// greedyProgram is componentProgram with a hard inference rule: the
// greedy baseline chains hard implications only, so this is the variant
// under which its sweep derives facts (and drops premises whose
// derivation a constraint forbids).
const greedyProgram = `
f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = inf
c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf
star: quad(x, coach, y, t) ^ quad(z, coach, y, t') ^ x != z -> disjoint(t, t') w = inf
`

// TestWholeNetworkKernelSessionsMatchOracle: greedy solves run inside
// the session pipeline — the engine's maintained grounder and clause
// set, the maintained plan, the per-component sweep and its cache,
// component repair and the live outcome — and must match the
// independent whole-network oracle (one baseline.Solve over a fresh
// grounding) at every step of a randomized add/remove/revive stream, at
// parallelism 1 and N: both sweep the live atoms and clauses in
// canonical order however the session interned them. The
// derived-conflict streams pin the implication walk: which of two
// conflicting derivations survives is decided by the order the sweep
// walks the implications in, and walking a long-lived session's clause
// slots in slot order, which follows its history, kept a different
// premise than a fresh grounding did (pool seed 17 diverged at step 16).
func TestWholeNetworkKernelSessionsMatchOracle(t *testing.T) {
	for _, par := range []int{1, 0} {
		opts := tecore.SolveOptions{Solver: translate.SolverGreedy, Parallelism: par}
		t.Run(fmt.Sprintf("greedy/parallel=%d", par), func(t *testing.T) {
			runVsOracle(t, greedyProgram, componentPool(4, 3, 173), opts, opts, 179, 12, 17)
		})
		for seed := int64(1); seed <= 30; seed++ {
			t.Run(fmt.Sprintf("greedy-derived-conflict/parallel=%d/seed=%d", par, seed), func(t *testing.T) {
				runVsOracle(t, derivedConflictProgram, derivedConflictPool(seed), opts, opts, seed*7, 30, 17)
			})
		}
	}
}

// derivedConflictProgram derives worksFor from playsFor by a hard rule
// and forbids two overlapping worksFor spells at different clubs, so two
// evidence facts conflict only through their derivations: the greedy
// sweep keeps both and the implication walk decides which survives.
const derivedConflictProgram = `
f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = inf
c: quad(x, worksFor, y, t) ^ quad(x, worksFor, z, t') ^ y != z -> disjoint(t, t') w = inf
`

// derivedConflictPool builds 4 subjects × 4 playsFor spells, each spell
// starting the year before the previous one ends.
func derivedConflictPool(seed int64) []tecore.Quad {
	rng := rand.New(rand.NewSource(seed))
	var pool []tecore.Quad
	for s := 0; s < 4; s++ {
		start := int64(2000)
		for c := 0; c < 4; c++ {
			end := start + 2 + int64(rng.Intn(3))
			pool = append(pool, tecore.NewQuad(fmt.Sprintf("P%d", s), "playsFor", fmt.Sprintf("Club_%d", c),
				tecore.MustInterval(start, end), 0.5+0.45*rng.Float64()))
			start = end - 1
		}
	}
	return pool
}
