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
// reflect, the maintained component plan, and the solver kernel's own
// state. The grounder, clause set and plan depend only on the store and
// program, so every solver shares them; the kernel state belongs to one
// solver.
type solveEngine struct {
	g           *ground.Grounder
	cs          *ground.ClauseSet
	epoch       store.Epoch
	progVersion int

	// planner maintains the component solve plan across solves,
	// patching it from the clause set's change log instead of rebuilding
	// it per solve.
	planner *engine.Planner

	kernel *kernelState
}

// kernelState is what one solver kernel carries from solve to solve:
// its per-component solution cache (MLN and greedy share the MaxSAT
// record type, PSL keeps ADMM iterates), its previous answer for warm
// starts and change-set passes, and the read-out cache — the repair
// record per component and the live outcome they sum to — built from
// those answers. A solve under another solver, or with ColdStart,
// replaces the whole record, so it answers as a fresh session would. A
// solve under another threshold replaces only the read-out cache: the
// kernel's answer does not depend on it.
type kernelState struct {
	solver translate.Solver

	// mlnCache is set under MLN and greedy, pslCache under PSL.
	mlnCache *mln.ComponentCache
	truth    []bool // previous MLN or greedy MAP state by atom id
	pslCache *psl.ComponentCache
	// pslWarm is the previous PSL state (values, truth, iterate tables
	// by clause slot); each PSL solve updates it in place.
	pslWarm *psl.Warm

	readout   *repair.ComponentCache
	threshold float64 // the threshold readout was built under
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
	derived, err := eng.g.CloseDelta(s.prog, eng.cs, delta)
	if err != nil {
		return err
	}
	if err := eng.g.GroundDelta(s.prog, eng.cs, append(delta, derived...)); err != nil {
		return err
	}
	eng.epoch = epoch
	return nil
}

// Solve runs MAP inference and conflict resolution over the session.
//
// Every solver runs one pipeline on the session's cached engine —
// ground, sync the component plan, run the solver kernel, repair per
// conflict component, patch the live outcome. On the first solve (or
// after a program change) it grounds from scratch and caches the
// engine; afterwards it reconciles the store delta with
// RetractFacts/ApplyUpdates/CloseDelta/GroundDelta. The kernel is the
// one choice: MaxSAT (MLN), ADMM (PSL) or the greedy sweep, each run
// per component at its package defaults. Every kernel keeps the prior
// solution, warm-starts from it where it can, and touches only the
// components the delta dirtied. Stats.Plan, Stats.Components and
// Resolution.Delta are set on every solve.
func (s *Session) Solve(opts SolveOptions) (*Resolution, error) {
	solver := opts.Solver
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

	k := eng.kernel
	if opts.ColdStart || k == nil || k.solver != solver {
		k = &kernelState{solver: solver}
		if solver == translate.SolverPSL {
			k.pslCache = psl.NewComponentCache()
		} else {
			k.mlnCache = mln.NewComponentCache()
		}
		eng.kernel = k
	}
	if k.readout == nil || k.threshold != opts.Threshold {
		k.readout, k.threshold = repair.NewComponentCache(), opts.Threshold
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
	solveErr := withStage("solve", func() error {
		switch solver {
		case translate.SolverMLN, translate.SolverGreedy:
			kernel := mln.Kernel(nil)
			if solver == translate.SolverGreedy {
				kernel = baseline.SolveComponent
			}
			mopts := mln.Options{Parallelism: opts.Parallelism}
			mopts.MaxSAT.NodeLimit = s.budget.nodeLimit
			res, err := mln.SolveComponents(eng.g, eng.cs, mopts, k.truth, k.mlnCache, plan, kernel)
			if err != nil {
				return err
			}
			// The cache has settled on this state even if it is infeasible.
			out.MLN, out.Truth, k.truth = res, res.Truth, res.Truth
			if solver == translate.SolverMLN && !res.HardSatisfied {
				return fmt.Errorf("core: MLN solver found no assignment satisfying the hard constraints")
			}
		case translate.SolverPSL:
			popts := psl.Options{Parallelism: opts.Parallelism, MaxIter: s.budget.pslMaxIter}
			res, next, err := psl.MAPGroundComponents(eng.g, eng.cs, popts, k.pslWarm, k.pslCache, plan)
			if err != nil {
				return err
			}
			out.PSL, out.Truth, out.SoftValues, k.pslWarm = res, res.Truth, res.Values, next
		default:
			return fmt.Errorf("core: unknown solver %v", solver)
		}
		return nil
	})
	if solveErr != nil {
		return nil, solveErr
	}
	out.Runtime = time.Since(start)

	// The read-out decomposes along the same plan onto the kernel's
	// read-out cache: a delta re-repairs only the components whose
	// subproblem or truth moved, and the live outcome splices only their
	// contributions.
	ropts := repair.Options{Threshold: opts.Threshold, Parallelism: opts.Parallelism}
	var run *repair.ComponentRun
	err := withStage("repair", func() (err error) {
		run, err = repair.BeginComponents(out, ropts, plan, k.readout)
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
