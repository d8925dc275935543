// Command tecore is the command-line interface to the TeCoRe system:
// validate rule programs, inspect dataset statistics, and run temporal
// conflict resolution over uncertain temporal knowledge graphs.
//
// Usage:
//
//	tecore stats    -data g.tq
//	tecore validate -rules r.tcr [-solver mln|psl]
//	tecore infer    -data g.tq -rules r.tcr [-solver mln|psl|greedy]
//	                [-threshold 0.3] [-parallel N]
//	                [-v] [-explain-plan] [-incremental]
//	                [-out consistent.tq] [-removed removed.tq]
//
// With -incremental, infer enters a REPL that accepts add/remove/solve
// commands on stdin and re-solves incrementally after each update. Every
// solver partitions the ground network into independent conflict
// components solved — and conflict-resolved — separately (and, in the
// REPL, cached per component across re-solves, for the solver stage and
// the repair read-out alike); -v prints the plan, component, repair and
// outcome stage summaries.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	tecore "repro"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "stats":
		err = runStats(os.Args[2:])
	case "validate":
		err = runValidate(os.Args[2:])
	case "infer":
		err = runInfer(os.Args[2:])
	case "help", "-h", "--help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "tecore: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tecore: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  tecore stats    -data <tquads file>
  tecore validate -rules <rules file> [-solver mln|psl]
  tecore infer    -data <tquads file> -rules <rules file>
                  [-solver mln|psl|greedy] [-threshold t] [-parallel N]
                  [-v] [-explain-plan] [-incremental] [-data-dir DIR]
                  [-out consistent.tq] [-removed removed.tq]

  infer -incremental reads add/remove/solve commands from stdin and
  re-solves only the delta after each update: only the conflict
  components the delta dirtied are re-solved. With -data-dir
  the session is durable: updates are journaled, the checkpoint command
  compacts the journal, and a later run with the same -data-dir
  restores the session (snapshot + WAL replay) instead of loading
  -data.`)
}

func loadGraph(path string) (tecore.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return tecore.ParseGraph(f)
}

func runStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	data := fs.String("data", "", "TQuads dataset file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *data == "" {
		return fmt.Errorf("stats: -data is required")
	}
	g, err := loadGraph(*data)
	if err != nil {
		return err
	}
	s := tecore.NewSession()
	if err := s.LoadGraph(g); err != nil {
		return err
	}
	preds := s.Predicates()
	m := s.Store().MemoryStats()
	fmt.Printf("facts: %d\npredicates: %d\n", s.Store().Len(), len(preds))
	fmt.Printf("memory: %d terms, %.1f MiB (facts %.1f + postings %.1f + dict %.1f), %.1f B/fact\n",
		m.Terms, float64(m.TotalBytes)/(1<<20), float64(m.FactBytes)/(1<<20),
		float64(m.PostingBytes)/(1<<20), float64(m.DictBytes)/(1<<20), m.BytesPerFact)
	for _, p := range preds {
		fmt.Printf("  %-24s %8d facts  %6d subjects  span %v  mean conf %.3f\n",
			p.Predicate, p.Count, p.Subjects, p.Span, p.MeanConfidence)
	}
	return nil
}

func runValidate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	rules := fs.String("rules", "", "rules/constraints file")
	solverName := fs.String("solver", "", "optional solver expressivity check (mln or psl)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *rules == "" {
		return fmt.Errorf("validate: -rules is required")
	}
	src, err := os.ReadFile(*rules)
	if err != nil {
		return err
	}
	prog, err := tecore.ParseRules(string(src))
	if err != nil {
		return err
	}
	if *solverName != "" {
		solver, err := tecore.ParseSolver(*solverName)
		if err != nil {
			return err
		}
		s := tecore.NewSession()
		for _, r := range prog.Rules {
			if err := s.AddRule(r); err != nil {
				return err
			}
		}
		// Solve on an empty store exercises the translator's validation.
		if _, err := s.Solve(tecore.SolveOptions{Solver: solver}); err != nil {
			return err
		}
	}
	fmt.Printf("ok: %d rules (%d inference, %d constraints)\n",
		len(prog.Rules), len(prog.InferenceRules()), len(prog.Constraints()))
	return nil
}

func runInfer(args []string) error {
	fs := flag.NewFlagSet("infer", flag.ExitOnError)
	data := fs.String("data", "", "TQuads dataset file")
	rules := fs.String("rules", "", "rules/constraints file")
	solverName := fs.String("solver", "mln", "solver: mln (nRockIt), psl (nPSL) or greedy (baseline)")
	threshold := fs.Float64("threshold", 0, "drop derived facts below this confidence")
	parallel := fs.Int("parallel", 0, "worker pool size for the solve pipeline (0 = all cores, 1 = sequential)")
	verbose := fs.Bool("v", false, "print the plan, component (count, sizes, engines, cache hits), repair and outcome stage summaries")
	explain := fs.Bool("explain", false, "print each removed fact with the constraint grounding that removed it")
	explainPlan := fs.Bool("explain-plan", false, "print the grounding stage's join plans: per rule, the chosen atom order and its candidate/emitted counts")
	incremental := fs.Bool("incremental", false, "REPL mode: read add/remove/solve commands from stdin and re-solve incrementally")
	dataDir := fs.String("data-dir", "", "durable session directory: updates are journaled there and a later run restores the session (snapshot + WAL replay)")
	outPath := fs.String("out", "", "write the consistent expanded KG here")
	removedPath := fs.String("removed", "", "write the removed (conflicting) facts here")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *rules == "" || (*data == "" && *dataDir == "") {
		return fmt.Errorf("infer: -rules and one of -data/-data-dir are required")
	}
	solver, err := tecore.ParseSolver(*solverName)
	if err != nil {
		return err
	}
	src, err := os.ReadFile(*rules)
	if err != nil {
		return err
	}
	var s *tecore.Session
	if *dataDir != "" {
		// Durable session: restore whatever the directory holds; the
		// -data file only seeds a fresh (empty) session, so re-running
		// the same command line resumes instead of double-loading.
		if s, err = tecore.OpenSession(*dataDir); err != nil {
			return err
		}
		defer s.Close()
		if rs := s.RecoveryStats(); rs != nil && (rs.SnapshotLoaded || rs.ReplayedRecords > 0) {
			fmt.Fprintf(os.Stderr, "restored %d facts at epoch %d from %s (snapshot epoch %d + %d replayed records)\n",
				s.Store().Len(), rs.Epoch, *dataDir, rs.Watermark, rs.ReplayedRecords)
		} else if *data != "" {
			g, err := loadGraph(*data)
			if err != nil {
				return err
			}
			if err := s.LoadGraph(g); err != nil {
				return err
			}
		}
	} else {
		s = tecore.NewSession()
		g, err := loadGraph(*data)
		if err != nil {
			return err
		}
		if err := s.LoadGraph(g); err != nil {
			return err
		}
	}
	if err := s.LoadProgramText(string(src)); err != nil {
		return err
	}
	opts := tecore.SolveOptions{
		Solver:      solver,
		Threshold:   *threshold,
		Parallelism: *parallel,
	}
	if *incremental {
		res, err := runIncrementalREPL(s, opts, *verbose, os.Stdin, os.Stdout)
		if err != nil {
			return err
		}
		if res != nil {
			return writeResolution(res, *explain, *outPath, *removedPath)
		}
		var unmet []string
		if *explain {
			unmet = append(unmet, "-explain")
		}
		if *outPath != "" {
			unmet = append(unmet, "-out")
		}
		if *removedPath != "" {
			unmet = append(unmet, "-removed")
		}
		if len(unmet) > 0 {
			return fmt.Errorf("infer: the session ran no solve, so %s cannot be honoured", strings.Join(unmet, ", "))
		}
		return nil
	}
	res, err := s.Solve(opts)
	if err != nil {
		return err
	}

	st := res.Stats
	fmt.Printf("solver:            %s\n", st.Solver)
	fmt.Printf("total facts:       %d\n", st.TotalFacts)
	fmt.Printf("kept facts:        %d\n", st.KeptFacts)
	fmt.Printf("conflicting facts: %d (removed, weight %.2f)\n", st.RemovedFacts, st.RemovedWeight)
	fmt.Printf("inferred facts:    %d (threshold filtered %d)\n", st.InferredFacts, st.ThresholdFiltered)
	fmt.Printf("conflict clusters: %d\n", st.ConflictClusters)
	fmt.Printf("runtime:           %v\n", st.Runtime)
	if *verbose {
		printPlanSummary(os.Stdout, st.Plan)
		printComponentSummary(os.Stdout, st.Components)
		printRepairSummary(os.Stdout, st.Repair)
		printOutcomeSummary(os.Stdout, st.Outcome)
	}
	if *explainPlan {
		if st.Ground != nil {
			printGroundSummary(os.Stdout, st.Ground)
		} else {
			fmt.Println("grounding:         no grounding stage on this path")
		}
	}
	if len(st.RuleViolations) > 0 {
		fmt.Println("residual violations:")
		names := make([]string, 0, len(st.RuleViolations))
		for n := range st.RuleViolations {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("  %-20s %d\n", n, st.RuleViolations[n])
		}
	}

	return writeResolution(res, *explain, *outPath, *removedPath)
}

// writeResolution serves infer's output flags from a solve: -explain
// prints each removed fact with the constraints it violates, -out and
// -removed write the consistent expanded KG and the removed facts.
func writeResolution(res *tecore.Resolution, explain bool, outPath, removedPath string) error {
	if explain {
		fmt.Println("removed facts:")
		res.Removed.Each(func(f tecore.Fact) bool {
			fmt.Printf("  %s\n", f.Quad.Compact())
			for _, ex := range f.Explanations {
				fmt.Printf("    violates %s\n", ex)
			}
			return true
		})
	}
	if outPath != "" {
		if err := writeGraphFile(outPath, res.ConsistentGraph()); err != nil {
			return err
		}
	}
	if removedPath != "" {
		var rg tecore.Graph
		res.Removed.Each(func(f tecore.Fact) bool {
			rg = append(rg, f.Quad)
			return true
		})
		if err := writeGraphFile(removedPath, rg); err != nil {
			return err
		}
	}
	return nil
}

// printPlanSummary renders the solve-plan stage: whether the component
// partition was patched in place from the delta ("maintained") or built
// from scratch ("rebuilt", the engine's first solve only),
// the atoms that entered and left the live set, the components
// re-listed and retired, and the sync time.
func printPlanSummary(w io.Writer, ps *tecore.PlanStats) {
	fmt.Fprintf(w, "plan:              %s (%d atoms, %d components)", ps.Mode, ps.Atoms, ps.Components)
	if ps.Mode == "maintained" {
		fmt.Fprintf(w, " — %d inserted, %d removed; %d patched, %d dropped",
			ps.InsertedAtoms, ps.RemovedAtoms,
			ps.PatchedComponents, ps.DroppedComponents)
	}
	fmt.Fprintf(w, " in %v\n", ps.Sync)
}

// printComponentSummary renders the component-decomposed solve
// statistics: component count and sizes, the engine each component ran
// on, and the solved/reused (cache hit) split of incremental re-solves.
func printComponentSummary(w io.Writer, cs *tecore.ComponentStats) {
	fmt.Fprintf(w, "components:        %d (largest %d atoms; %d solved, %d reused",
		cs.Count, cs.Largest, cs.Solved, cs.Reused)
	if cs.Fallbacks > 0 {
		fmt.Fprintf(w, ", %d exact→local fallbacks", cs.Fallbacks)
	}
	fmt.Fprintln(w, ")")
	fmt.Fprintf(w, "  sizes:  %s\n", formatTallies(cs.SizeHistogram))
	fmt.Fprintf(w, "  engines: %s\n", formatTallies(cs.Engines))
}

// printRepairSummary renders the conflict-resolution read-out stage:
// the per-component repaired/reused split and the stage timings.
func printRepairSummary(w io.Writer, rs *tecore.RepairStats) {
	fmt.Fprintf(w, "repair:            %s (%d components; %d repaired, %d reused) in %v (analysis %v, merge %v)\n",
		rs.Mode, rs.Components, rs.Repaired, rs.Reused, rs.Total, rs.Analysis, rs.Merge)
}

// printOutcomeSummary renders the Outcome production stage: the
// patched/reused component split of the live outcome and the
// index/merge timings.
func printOutcomeSummary(w io.Writer, ocs *tecore.OutcomeStats) {
	fmt.Fprintf(w, "outcome:           %s (%d patched, %d reused) in %v (index %v, merge %v)\n",
		ocs.Mode, ocs.Patched, ocs.Reused, ocs.Total, ocs.Index, ocs.Merge)
}

// printGroundSummary renders the grounding stage's join plans: per
// rule, the body-atom evaluation order the planner chose (indices into
// the rule body as written) and the actual candidate/emitted counts.
func printGroundSummary(w io.Writer, gs *tecore.GroundStats) {
	fmt.Fprintf(w, "grounding:         %v (%d rules)\n", gs.Total, len(gs.Rules))
	for i := range gs.Rules {
		rs := &gs.Rules[i]
		fmt.Fprintf(w, "  %-20s order %v — %d candidates, %d groundings in %v (%d tasks)\n",
			rs.Rule, rs.Order, rs.Candidates, rs.Emitted, rs.Time, rs.Tasks)
	}
}

// formatTallies renders a tally map as "k=v, k=v" in sorted key order.
func formatTallies(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, m[k]))
	}
	return strings.Join(parts, ", ")
}

func writeGraphFile(path string, g tecore.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := tecore.WriteGraph(f, g); err != nil {
		return err
	}
	return f.Close()
}
