package core

import (
	"context"
	"fmt"
	"runtime/pprof"
	"time"

	"repro/internal/baseline"
	"repro/internal/engine"
	"repro/internal/ground"
	"repro/internal/mln"
	"repro/internal/psl"
	"repro/internal/rdf"
	"repro/internal/repair"
	"repro/internal/store"
	"repro/internal/translate"
)

// withStage runs f under a pprof "stage" label, so CPU profiles
// collected through the server's -pprof listener attribute samples to
// the pipeline stage (ground / solve / repair) that burned them.
func withStage(stage string, f func() error) error {
	var err error
	pprof.Do(context.Background(), pprof.Labels("stage", stage), func(context.Context) {
		err = f()
	})
	return err
}

// attachGroundStats drains the grounder's per-solve statistics into the
// outcome; a solve that did no grounding work (an empty delta) leaves
// Stats.Ground nil.
func attachGroundStats(oc *repair.Outcome, g *ground.Grounder) {
	if gs := g.TakeStats(); gs.Total > 0 || len(gs.Rules) > 0 {
		oc.Stats.Ground = gs
	}
}

// solveEngine is the session's cached incremental solve state: a
// grounder and clause set kept alive across solves, the store epoch they
// reflect, and the previous solve's state for warm-starting the kernel
// and chaining its change-set scope. The grounder and clause set depend
// only on the store and program — switching solvers reuses them and only
// resets the warm data.
type solveEngine struct {
	g           *ground.Grounder
	cs          *ground.ClauseSet
	epoch       store.Epoch
	progVersion int

	warmSolver translate.Solver
	warmTruth  []bool // previous MAP state by atom id
	// warmPSL is the previous PSL solve's state (values, truth, iterate
	// tables by clause slot); each PSL solve updates it in place and
	// hands the same Warm back.
	warmPSL *psl.Warm

	// Per-component solution caches, one per kernel, keyed by (component
	// key, generation, membership); entries survive solver switches
	// because they are only consulted — and only valid — for components
	// whose generation is unchanged.
	compMLN    *mln.ComponentCache
	compGreedy *mln.ComponentCache
	compPSL    *psl.ComponentCache
	// compOptsKey fingerprints the backend options the component caches
	// were built under: a cached solution computed under different
	// engine tuning (exact limit, weights, seeds, ...) is not the
	// solution the requested options would produce, so an options
	// change drops all three caches. Parallelism is excluded — results are
	// identical at every worker count.
	compOptsKey string

	// compRepair is the session's read-out record per component — the
	// cached repair read-out — and the live outcome those records sum to,
	// so a solve re-repairs and re-splices only the components whose
	// subproblem or truth moved. Unlike the solver caches it is keyed per
	// (solver kernel, read-out options): a read-out computed from PSL soft
	// values or under a different threshold is not the one the requested
	// solve would produce, so repairKey changes drop it (the per-entry
	// truth check in repair covers solver-side divergence within one
	// key).
	compRepair *repair.ComponentCache
	repairKey  string

	// planner maintains the component solve plan (canonical order +
	// partition) across solves, patching it from the grounder's atom
	// journal and the union-find's change log instead of rebuilding it
	// per solve.
	planner *engine.Planner
}

// AddFact inserts a single quad; the next Solve consumes it through the
// delta path.
func (s *Session) AddFact(q rdf.Quad) error {
	_, err := s.st.Add(q)
	return err
}

// RemoveFact retracts the exact temporal statement (confidence ignored),
// reporting whether a live fact was removed.
func (s *Session) RemoveFact(q rdf.Quad) bool {
	_, ok := s.st.Remove(q)
	return ok
}

// syncEngine reconciles the cached engine with a store delta:
// retraction first (delete/rederive), then evidence updates, seminaive
// forward chaining, and delta grounding into the persistent clause set.
func (s *Session) syncEngine(eng *solveEngine, parallelism int, d store.Delta) error {
	epoch := s.st.Epoch()
	eng.g.Parallelism = parallelism
	if err := eng.g.RetractFacts(eng.cs, d.Removed); err != nil {
		return err
	}
	delta := eng.g.ApplyUpdates(eng.cs, d.Added, d.Updated)
	derived, err := eng.g.CloseDelta(s.prog, delta)
	if err != nil {
		return err
	}
	// Revived derived atoms may hold stale component links from before
	// their retraction; touching them forces the lazy resplit to regroup
	// their components from live clauses.
	for _, a := range derived {
		eng.cs.TouchAtom(a)
	}
	if err := eng.g.GroundDelta(s.prog, eng.cs, append(delta, derived...)); err != nil {
		return err
	}
	eng.epoch = epoch
	return nil
}

// solve is Solve after option defaulting. On the first solve (or after
// a program change) it grounds from scratch and caches the engine;
// afterwards it reconciles the store delta with
// RetractFacts/ApplyUpdates/CloseDelta/GroundDelta. Either way it syncs
// the component plan, runs the solver kernel over the maintained clause
// set and reads the result out per component onto the live outcome.
func (s *Session) solve(opts SolveOptions) (*Resolution, error) {
	solver, topts := opts.Solver, opts.Advanced
	if err := translate.ValidateFor(solver, s.prog); err != nil {
		return nil, err
	}
	start := time.Now()

	eng := s.engine
	incremental := eng != nil && eng.progVersion == s.progVersion
	if !incremental {
		epoch := s.st.Epoch()
		err := withStage("ground", func() error {
			g := ground.New(s.st)
			g.Parallelism = opts.Parallelism
			if _, err := g.Close(s.prog); err != nil {
				return err
			}
			cs, err := g.GroundProgram(s.prog)
			if err != nil {
				return err
			}
			eng = &solveEngine{g: g, cs: cs, epoch: epoch, progVersion: s.progVersion}
			return nil
		})
		if err != nil {
			return nil, err
		}
		s.engine = eng
	} else if d := s.st.DeltaSince(eng.epoch); !d.Empty() {
		if err := withStage("ground", func() error { return s.syncEngine(eng, opts.Parallelism, d) }); err != nil {
			// The engine may be partially mutated (atoms interned but not
			// grounded); drop it so the next solve re-grounds from
			// scratch instead of silently solving an incomplete network.
			s.engine = nil
			return nil, err
		}
	}

	// The log before the engine's epoch can no longer be queried by the
	// engine; compacting bounds memory on long-lived streaming sessions
	// (DeltaSince falls back to a full scan for older epochs).
	s.st.CompactLog(eng.epoch)

	var warmTruth []bool
	var warmPSL *psl.Warm
	if !opts.ColdStart && eng.warmSolver == solver {
		warmTruth, warmPSL = eng.warmTruth, eng.warmPSL
	}

	mlnOpts, pslOpts := topts.MLN, topts.PSL
	mlnOpts.Parallelism, pslOpts.Parallelism = 0, 0
	if key := fmt.Sprintf("%+v|%+v", mlnOpts, pslOpts); key != eng.compOptsKey {
		eng.compMLN, eng.compGreedy, eng.compPSL = nil, nil, nil
		eng.compOptsKey = key
	}

	// One shared decomposition per solve: the solver stage and the repair
	// read-out both consume it, so every stage sees the identical
	// partition (and the partition cost is paid once). The plan is
	// delta-maintained on the engine — the sync cost is proportional to
	// the delta and the components it dirtied.
	if eng.planner == nil {
		eng.planner = engine.NewPlanner()
	}
	plan, planStats := eng.planner.Sync(eng.g.Atoms(), eng.cs)

	out := &translate.Output{Solver: solver, Grounder: eng.g, Clauses: eng.cs}
	var nextPSL *psl.Warm
	solveErr := withStage("solve", func() error {
		switch solver {
		case translate.SolverMLN, translate.SolverGreedy:
			cache, kernel := &eng.compMLN, mln.Kernel(nil)
			if solver == translate.SolverGreedy {
				cache, kernel = &eng.compGreedy, baseline.SolveComponent
			}
			if opts.ColdStart || *cache == nil {
				*cache = mln.NewComponentCache()
			}
			res, err := mln.SolveComponents(eng.g, eng.cs, topts.MLN, warmTruth, *cache, plan, kernel)
			if err != nil {
				return err
			}
			out.MLN, out.Truth = res, res.Truth
			if solver == translate.SolverMLN && !res.HardSatisfied {
				return fmt.Errorf("core: MLN solver found no assignment satisfying the hard constraints")
			}
		case translate.SolverPSL:
			if opts.ColdStart || eng.compPSL == nil {
				eng.compPSL = psl.NewComponentCache()
			}
			res, next, err := psl.MAPGroundComponents(eng.g, eng.cs, topts.PSL, warmPSL, eng.compPSL, plan)
			if err != nil {
				return err
			}
			out.PSL, out.Truth, out.SoftValues, nextPSL = res, res.Truth, res.Values, next
		default:
			return fmt.Errorf("core: unknown solver %v", solver)
		}
		return nil
	})
	if solveErr != nil {
		return nil, solveErr
	}
	out.Runtime = time.Since(start)
	eng.warmSolver, eng.warmTruth, eng.warmPSL = solver, out.Truth, nextPSL

	// The read-out decomposes along the same plan onto the session's
	// read-out cache: a delta re-repairs only the components whose
	// subproblem or truth moved, and the live outcome splices only their
	// contributions. The cache is dropped on ColdStart and whenever the
	// solver kernel, its tuning, or the read-out options change — a cached
	// unit embeds threshold-filtered facts and solver-specific confidences
	// (PSL soft values can shift under new engine tuning without the
	// discrete truth, which the per-entry check covers, moving at all).
	ropts := repair.Options{Threshold: opts.Threshold, Parallelism: opts.Parallelism}
	rkey := fmt.Sprintf("%v|%v|%s", solver, ropts.Threshold, eng.compOptsKey)
	if opts.ColdStart || eng.compRepair == nil || rkey != eng.repairKey {
		eng.compRepair = repair.NewComponentCache()
		eng.repairKey = rkey
	}
	var run *repair.ComponentRun
	err := withStage("repair", func() (err error) {
		run, err = repair.BeginComponents(out, ropts, plan, eng.compRepair)
		return err
	})
	if err != nil {
		return nil, err
	}
	// Patching the live outcome is its own pipeline stage, profiled apart
	// from the per-component repair analysis; it cannot fail, so the
	// stage's error is always nil.
	var oc *repair.Outcome
	var delta *repair.OutcomeDelta
	_ = withStage("outcome", func() error {
		oc, delta = run.Finish()
		return nil
	})
	oc.Stats.Plan = &planStats
	attachGroundStats(oc, eng.g)
	return &Resolution{Outcome: oc, Output: out, Incremental: incremental, Delta: delta}, nil
}
