package main

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	tecore "repro"
)

// runIncrementalREPL drives the stateful session from a line-oriented
// command stream: fact updates accumulate in the epoch-versioned store
// and each solve consumes only the delta, warm-starting the solver from
// the previous solution.
//
// Commands (one per line; # starts a comment):
//
//	add <tquad>       insert a fact, e.g. add CR coach Napoli [2001,2003] 0.6
//	remove <tquad>    retract a fact (confidence ignored)
//	batch <op>; ...   apply several ops as one atomic delta, e.g.
//	                  batch remove CR coach Napoli [2001,2003] 0.6; add CR coach Leeds [2003,2004] 0.5
//	solve             re-solve and print statistics
//	stats             print store statistics without solving
//	checkpoint        durable sessions: snapshot the store and truncate
//	                  the journal, so the next restore skips the replay
//	quit              exit (EOF works too)
//
// With verbose set (tecore infer -v), each solve also prints the
// component summary — count, largest, engine tallies and the cache-hit
// split that shows how much of the graph the re-solve skipped. It
// returns the last successful solve's resolution, nil if none ran.
func runIncrementalREPL(s *tecore.Session, opts tecore.SolveOptions, verbose bool, in io.Reader, out io.Writer) (*tecore.Resolution, error) {
	commands := "add/remove/batch/solve/stats/quit"
	if s.Durable() {
		commands = "add/remove/batch/solve/stats/checkpoint/quit"
	}
	fmt.Fprintf(out, "tecore incremental session: %d facts loaded; commands: %s\n",
		s.Store().Len(), commands)
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	var last *tecore.Resolution
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cmd, rest, _ := strings.Cut(line, " ")
		switch strings.ToLower(cmd) {
		case "add", "remove":
			g, err := tecore.ParseGraphString(rest)
			if err != nil {
				fmt.Fprintf(out, "error: %v\n", err)
				continue
			}
			if strings.EqualFold(cmd, "add") {
				if _, err := s.ApplyBatch(g, nil); err != nil {
					fmt.Fprintf(out, "error: %v\n", err)
					continue
				}
				fmt.Fprintf(out, "ok: %d fact(s) asserted, %d live\n", len(g), s.Store().Len())
			} else {
				br, _ := s.ApplyBatch(nil, g) // a removal cannot fail validation
				fmt.Fprintf(out, "ok: %d fact(s) removed, %d live\n", br.Removed, s.Store().Len())
			}
		case "batch":
			add, remove, err := parseBatchOps(rest)
			if err != nil {
				fmt.Fprintf(out, "error: %v\n", err)
				continue
			}
			br, err := s.ApplyBatch(add, remove)
			if err != nil {
				fmt.Fprintf(out, "error: %v\n", err)
				continue
			}
			fmt.Fprintf(out, "ok: batch applied — %d added, %d removed, %d updated, %d live\n",
				br.Added, br.Removed, br.Updated, s.Store().Len())
		case "solve":
			res, err := s.Solve(opts)
			if err != nil {
				fmt.Fprintf(out, "error: %v\n", err)
				continue
			}
			last = res
			mode := "full"
			if res.Incremental {
				mode = "incremental"
			}
			st := res.Stats
			fmt.Fprintf(out, "solved (%s, %s): kept %d / removed %d / inferred %d, %d conflict cluster(s), %v\n",
				mode, st.Solver, st.KeptFacts, st.RemovedFacts, st.InferredFacts,
				st.ConflictClusters, st.Runtime)
			// +A/-R: atoms that entered and left the live set.
			fmt.Fprintf(out, "plan: %s (+%d/-%d atoms, %d patched, %d dropped, %v)\n",
				st.Plan.Mode, st.Plan.InsertedAtoms, st.Plan.RemovedAtoms,
				st.Plan.PatchedComponents, st.Plan.DroppedComponents, st.Plan.Sync)
			fmt.Fprintf(out, "components: %d (%d solved, %d reused from cache)\n",
				st.Components.Count, st.Components.Solved, st.Components.Reused)
			if verbose {
				printComponentSummary(out, st.Components)
			}
			fmt.Fprintf(out, "repair: %d repaired, %d reused from cache (%v)\n",
				st.Repair.Repaired, st.Repair.Reused, st.Repair.Total)
			fmt.Fprintf(out, "outcome: %d patched, %d reused (%s, %v)\n",
				st.Outcome.Patched, st.Outcome.Reused, st.Outcome.Mode, st.Outcome.Total)
			d := res.Delta
			fmt.Fprintf(out, "delta: kept +%d/-%d, removed +%d/-%d, inferred +%d/-%d, clusters +%d/-%d\n",
				d.AddedKept.Len(), d.RemovedKept.Len(), d.AddedRemoved.Len(), d.RemovedRemoved.Len(),
				d.AddedInferred.Len(), d.RemovedInferred.Len(), d.AddedClusters.Len(), d.RemovedClusters.Len())
			if verbose {
				printRepairSummary(out, st.Repair)
				printOutcomeSummary(out, st.Outcome)
			}
		case "stats":
			fmt.Fprintf(out, "facts: %d live (epoch %d), rules: %d\n",
				s.Store().Len(), s.Store().Epoch(), len(s.Program().Rules))
			m := s.Store().MemoryStats()
			fmt.Fprintf(out, "memory: %d terms, %.1f MiB (facts %.1f + postings %.1f + dict %.1f), %.1f B/fact\n",
				m.Terms, float64(m.TotalBytes)/(1<<20), float64(m.FactBytes)/(1<<20),
				float64(m.PostingBytes)/(1<<20), float64(m.DictBytes)/(1<<20), m.BytesPerFact)
		case "checkpoint":
			if err := s.Checkpoint(); err != nil {
				fmt.Fprintf(out, "error: %v\n", err)
				continue
			}
			fmt.Fprintf(out, "ok: checkpointed %d fact(s) at epoch %d in %s\n",
				s.Store().Len(), s.Store().Epoch(), s.DataDir())
		case "quit", "exit":
			return last, nil
		default:
			fmt.Fprintf(out, "error: unknown command %q (%s)\n", cmd, commands)
		}
	}
	return last, sc.Err()
}

// parseBatchOps splits a batch command's ";"-separated operations into
// the quads to assert and to retract.
func parseBatchOps(src string) (add, remove []tecore.Quad, err error) {
	for _, part := range strings.Split(src, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		op, rest, _ := strings.Cut(part, " ")
		g, perr := tecore.ParseGraphString(rest)
		if perr != nil {
			return nil, nil, fmt.Errorf("batch %s: %w", op, perr)
		}
		switch strings.ToLower(op) {
		case "add":
			add = append(add, g...)
		case "remove":
			remove = append(remove, g...)
		default:
			return nil, nil, fmt.Errorf("batch: unknown op %q (add/remove)", op)
		}
	}
	return add, remove, nil
}
