package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ground"
	"repro/internal/kgen"
	"repro/internal/logic"
	"repro/internal/mln"
	"repro/internal/psl"
	"repro/internal/rdf"
	"repro/internal/repair"
	"repro/internal/rulelang"
	"repro/internal/store"
	"repro/internal/translate"
	"repro/internal/wal"
)

// The in-process replay is the second half of the traced run. It feeds
// the inputs the server received to each layer's public functions, one
// span per call, so that every layer has its own numbers measured from
// outside the program:
//
//	layers  each layer once, cold, by direct call
//	wal     the store's commits journaled through wal.Log, fsync per commit
//	op      the workload's op through core.Session, as the server runs it
//
// Inside core.Session.Solve the orchestration is the program's own, so
// its stages are laid out inside the core.solve span from the durations
// Resolution.Stats reports; what they leave uncovered is core's residual.

// replayUpdates is the least number of update ops the replay makes, so
// the cold workloads too have samples behind their update-path medians.
const replayUpdates = 200

// replayResult is what the replay measured.
type replayResult struct {
	values  map[string]float64
	samples map[string]int
	// opMS is the in-process duration of each replayed op of the
	// workload's kind; opsRoot the span they hang under.
	opMS    []float64
	opsRoot int
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// time runs f under a span and returns the span's duration.
func (t *tracer) time(name string, op int, f func() error) (time.Duration, error) {
	id := t.begin(name, op)
	err := f()
	return t.end(id), err
}

// stages are the durations one Solve reported about itself.
type stages struct {
	ground, plan, solver, repair, outcome time.Duration
	patched                               int
	solverReuse, repairReuse              float64
}

func (s stages) sum() time.Duration { return s.ground + s.plan + s.solver + s.repair + s.outcome }

func stagesOf(res *core.Resolution) stages {
	var s stages
	st := res.Stats
	if st.Ground != nil {
		s.ground = st.Ground.Total
	}
	if st.Plan != nil {
		s.plan = st.Plan.Sync
		s.patched = st.Plan.PatchedComponents
	}
	// Stats.Runtime runs from the start of Solve to the end of the
	// solver stage, so what grounding and planning leave of it is the
	// solver's: the MAP call and the violation count it makes after
	// stopping its own clock.
	s.solver = st.Runtime - s.ground - s.plan
	if st.Repair != nil {
		s.repair = st.Repair.Total
		if st.Repair.Components > 0 {
			s.repairReuse = float64(st.Repair.Reused) / float64(st.Repair.Components)
		}
	}
	if st.Outcome != nil {
		// Repair.Total runs to the end of the read-out and so covers
		// the outcome stage; split the two.
		s.outcome = st.Outcome.Total
		s.repair -= s.outcome
	}
	if c := st.Components; c != nil && c.Count > 0 {
		s.solverReuse = float64(c.Reused) / float64(c.Count)
	}
	return s
}

// solveSpanned runs one Solve under a core.solve span and lays the
// stages it reported end to end inside it.
func solveSpanned(tr *tracer, sess *core.Session, op int, opts core.SolveOptions) (stages, time.Duration, error) {
	id := tr.begin("core.solve", op)
	t0 := time.Now()
	res, err := sess.Solve(opts)
	d := tr.end(id)
	if err != nil {
		return stages{}, d, err
	}
	s := stagesOf(res)
	at := t0
	for _, st := range []struct {
		name string
		d    time.Duration
	}{
		{"ground.ground", s.ground},
		{"engine.plan", s.plan},
		{opts.Solver.String() + ".solve", s.solver},
		{"repair.analysis", s.repair},
		{"repair.outcome", s.outcome},
	} {
		tr.add(st.name, op, id, at, st.d)
		at = at.Add(st.d)
	}
	return s, d, nil
}

// timedJournal forwards to the wal.Log and times each Append, which the
// store calls under its write lock.
type timedJournal struct {
	l  *wal.Log
	ns []float64
}

func (j *timedJournal) Append(rec store.JournalRecord) {
	t0 := time.Now()
	j.l.Append(rec)
	j.ns = append(j.ns, float64(time.Since(t0)))
}

func replay(cfg runConfig, data *dataset, tr *tracer, updates int) (*replayResult, error) {
	r := &replayResult{values: map[string]float64{}, samples: map[string]int{}}
	if updates < cfg.count(replayUpdates, 8) {
		updates = cfg.count(replayUpdates, 8)
	}
	if err := r.layers(data, tr); err != nil {
		return nil, fmt.Errorf("replay layers: %w", err)
	}
	if err := r.wal(cfg, data, tr, updates); err != nil {
		return nil, fmt.Errorf("replay wal: %w", err)
	}
	if err := r.ops(cfg, data, tr, updates); err != nil {
		return nil, fmt.Errorf("replay ops: %w", err)
	}
	return r, nil
}

// layers calls each layer of the cold pipeline once, directly.
func (r *replayResult) layers(data *dataset, tr *tracer) error {
	v, par := r.values, childProcs()
	root := tr.begin("layers", 0)
	defer tr.end(root)

	var g rdf.Graph
	d, err := tr.time("rdf.parse", 0, func() (err error) { g, err = rdf.ParseGraphString(data.tquads); return })
	if err != nil {
		return err
	}
	v["rdf.parse_ms"] = ms(d)
	v["rdf.parse_facts_per_s"] = float64(len(g)) / d.Seconds()

	var prog *logic.Program
	d, err = tr.time("rulelang.parse", 0, func() (err error) { prog, err = rulelang.Parse(kgen.ClusteredProgram); return })
	if err != nil {
		return err
	}
	v["rulelang.parse_ms"] = ms(d)

	st := store.New()
	if d, err = tr.time("store.add_graph", 0, func() error { return st.AddGraph(g) }); err != nil {
		return err
	}
	v["store.add_graph_ms"] = ms(d)
	_, _ = tr.time("store.memory_stats", 0, func() error { v["store.bytes_per_fact"] = st.MemoryStats().BytesPerFact; return nil })
	var snap bytes.Buffer
	if d, err = tr.time("store.save", 0, func() error { return st.Save(&snap) }); err != nil {
		return err
	}
	v["store.save_ms"] = ms(d)
	v["store.save_bytes_per_fact"] = float64(snap.Len()) / float64(st.Len())
	if d, err = tr.time("store.load", 0, func() error { _, err := store.Load(bytes.NewReader(snap.Bytes())); return err }); err != nil {
		return err
	}
	v["store.load_ms"] = ms(d)

	gr := ground.New(st)
	gr.Parallelism = par
	var cs *ground.ClauseSet
	d, err = tr.time("ground.cold", 0, func() error {
		if _, err := gr.Close(prog); err != nil {
			return err
		}
		var err error
		if cs, err = gr.GroundProgram(prog); err != nil {
			return err
		}
		cs.EnableAtomIndex()
		cs.EnableComponentIndex()
		return nil
	})
	if err != nil {
		return err
	}
	v["ground.cold_ms"] = ms(d)
	v["ground.atoms"] = float64(gr.Atoms().Len())
	v["ground.clauses"] = float64(cs.Len())
	var candidates, emitted int64
	for _, rs := range gr.TakeStats().Rules {
		candidates += rs.Candidates
		emitted += rs.Emitted
	}
	if emitted > 0 {
		v["ground.candidates_per_emitted"] = float64(candidates) / float64(emitted)
	} else {
		v["ground.candidates_per_emitted"] = 0
	}

	var plan *engine.Plan
	d, _ = tr.time("engine.plan_build", 0, func() error { plan = engine.NewPlan(gr.Atoms(), cs); return nil })
	v["engine.plan_build_ms"] = ms(d)
	v["engine.components"] = float64(len(plan.Comps))

	var mres *mln.Result
	d, err = tr.time("mln.cold_solve", 0, func() (err error) {
		mres, err = mln.MAPGroundComponents(gr, cs, mln.Options{ComponentSolve: true, Parallelism: par}, nil, mln.NewComponentCache(), plan)
		return
	})
	if err != nil {
		return err
	}
	v["mln.cold_solve_ms"] = ms(d)
	v["mln.exact_components"] = float64(mres.Components.Engines["exact"])
	v["mln.local_components"] = float64(mres.Components.Engines["local"])
	v["mln.fallbacks"] = float64(mres.Components.Fallbacks)

	var oc *repair.Outcome
	d, err = tr.time("repair.cold", 0, func() (err error) {
		out := &translate.Output{Solver: translate.SolverMLN, Grounder: gr, Clauses: cs, MLN: mres, Truth: mres.Truth}
		oc, err = repair.ResolveComponents(out, prog, repair.Options{Parallelism: par}, plan, repair.NewComponentCache())
		return
	})
	if err != nil {
		return err
	}
	v["repair.cold_ms"] = ms(d)
	v["repair.analysis_ms"] = ms(oc.Stats.Repair.Analysis)

	d, err = tr.time("psl.cold_solve", 0, func() error {
		_, _, err := psl.MAPGroundComponents(gr, cs, psl.Options{ComponentSolve: true, Parallelism: par}, nil, psl.NewComponentCache(), plan)
		return err
	})
	v["psl.cold_solve_ms"] = ms(d)
	return err
}

// wal journals the upload and then single-fact commits through a
// wal.Log with one fsync per commit, closes it and recovers it.
func (r *replayResult) wal(cfg runConfig, data *dataset, tr *tracer, updates int) error {
	v := r.values
	root := tr.begin("wal", 0)
	defer tr.end(root)
	dir, err := os.MkdirTemp(cfg.workDir, "wal-")
	if err != nil {
		return err
	}

	st := store.New()
	var l *wal.Log
	if _, err = tr.time("wal.attach", 0, func() (err error) { l, err = wal.Attach(dir, st, wal.Options{}); return }); err != nil {
		return err
	}
	j := &timedJournal{l: l}
	st.SetJournal(j)
	// The upload goes through the journal, so the log alone rebuilds
	// the store and wal.Open below replays all of it.
	if err := st.AddGraph(data.quads); err != nil {
		return err
	}
	if err := l.Sync(); err != nil {
		return err
	}
	j.ns = j.ns[:0]
	tog := newToggles(len(data.quads), cfg.seed)
	commitUS := make([]float64, 0, updates)
	syncUS := make([]float64, 0, updates)
	for op := 0; op < updates; op++ {
		add, remove := tog.pickQuads(1, data.quads)
		appended := len(j.ns)
		d, err := tr.time("store.commit", op, func() error {
			for _, q := range remove {
				st.Remove(q)
			}
			for _, q := range add {
				if _, err := st.Add(q); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		inAppend := 0.0
		for _, ns := range j.ns[appended:] {
			inAppend += ns
		}
		commitUS = append(commitUS, us(d)-inAppend/1e3)
		if d, err = tr.time("wal.sync", op, l.Sync); err != nil {
			return err
		}
		syncUS = append(syncUS, us(d))
	}
	appendUS := make([]float64, len(j.ns))
	for i, ns := range j.ns {
		appendUS[i] = ns / 1e3
	}
	v["store.commit_p50_us"] = percentile(commitUS, 50)
	v["wal.append_p50_us"] = percentile(appendUS, 50)
	v["wal.sync_p50_us"] = percentile(syncUS, 50)
	v["wal.sync_p99_us"] = percentile(syncUS, 99)
	r.samples["store.commit_p50_us"] = len(commitUS)
	r.samples["wal.append_p50_us"] = len(appendUS)
	r.samples["wal.sync_p50_us"] = len(syncUS)
	r.samples["wal.sync_p99_us"] = len(syncUS)
	if err := l.Close(); err != nil {
		return err
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		return err
	}
	var logBytes int64
	for _, s := range segs {
		fi, err := os.Stat(s)
		if err != nil {
			return err
		}
		logBytes += fi.Size()
	}
	v["wal.bytes_per_record"] = float64(logBytes) / float64(len(data.quads)+updates)

	var l2 *wal.Log
	d, err := tr.time("wal.open", 0, func() (err error) { l2, _, err = wal.Open(dir, wal.Options{}); return })
	if err != nil {
		return err
	}
	v["wal.open_replay_ms"] = ms(d)
	v["wal.replay_mb_per_s"] = float64(l2.Stats().ReplayedBytes) / 1e6 / d.Seconds()
	if d, err = tr.time("wal.checkpoint", 0, l2.Checkpoint); err != nil {
		return err
	}
	v["wal.checkpoint_ms"] = ms(d)
	return l2.Close()
}

// ops replays the workload's op through core.Session the way the server
// handlers call it: the upload and first solve (the cold op), then the
// update op with the workload's solver, then with the other solver, and
// last a checkpoint and a reopen of the session's directory.
func (r *replayResult) ops(cfg runConfig, data *dataset, tr *tracer, updates int) error {
	v, s, par := r.values, cfg.spec, childProcs()
	primary, err := translate.ParseSolver(s.Solver)
	if err != nil {
		return err
	}
	secondary := translate.SolverPSL
	if primary == translate.SolverPSL {
		secondary = translate.SolverMLN
	}
	opts := core.SolveOptions{Solver: primary, ComponentSolve: true, Parallelism: par}

	coldOps := 1
	if s.Cold {
		coldOps = 3
	}
	coldRoot := tr.begin("ops", 0)
	var sess *core.Session
	var dir string
	var coldMS []float64
	var cold stages
	var coldSolve time.Duration
	for op := 0; op < coldOps; op++ {
		if sess != nil {
			sess.Close()
		}
		if dir, err = os.MkdirTemp(cfg.workDir, "session-"); err != nil {
			return err
		}
		id := tr.begin("op", op)
		sess = core.NewSession()
		var g rdf.Graph
		if _, err = tr.time("rdf.parse", op, func() (err error) { g, err = rdf.ParseGraphString(data.tquads); return }); err != nil {
			return err
		}
		if _, err = tr.time("store.add_graph", op, func() error { return sess.LoadGraph(g) }); err != nil {
			return err
		}
		if _, err = tr.time("rulelang.parse", op, func() error { return sess.LoadProgramText(kgen.ClusteredProgram) }); err != nil {
			return err
		}
		if s.Durable {
			if _, err = tr.time("wal.attach", op, func() error { return sess.EnableDurability(filepath.Join(dir, "s")) }); err != nil {
				return err
			}
			if _, err = tr.time("wal.sync", op, sess.Sync); err != nil {
				return err
			}
		}
		if cold, coldSolve, err = solveSpanned(tr, sess, op, opts); err != nil {
			return err
		}
		coldMS = append(coldMS, ms(tr.end(id)))
	}
	tr.end(coldRoot)
	defer sess.Close()
	v["core.solve_cold_ms"] = ms(coldSolve)
	v["core.residual_share"] = float64(coldSolve-cold.sum()) / float64(coldSolve)
	v["repair.outcome_index_ms"] = ms(cold.outcome)

	// Update ops: the same seeded toggles the HTTP phase sends.
	tog := newToggles(len(data.quads), cfg.seed)
	batch := s.Batch
	if batch == 0 {
		batch = 1
	}
	type series struct{ op, apply, solve, ground, plan, solver, repair, outcome, patched, solverReuse, repairReuse []float64 }
	run := func(root string, n int, solver translate.Solver) (series, int, error) {
		var x series
		opts.Solver = solver
		rootID := tr.begin(root, 0)
		defer tr.end(rootID)
		for op := 0; op < n; op++ {
			add, remove := tog.pickQuads(batch, data.quads)
			id := tr.begin("op", op)
			d, err := tr.time("core.apply_batch", op, func() error { _, err := sess.ApplyBatch(add, remove); return err })
			if err != nil {
				return x, rootID, err
			}
			x.apply = append(x.apply, us(d))
			if sess.Durable() {
				if _, err := tr.time("wal.sync", op, sess.Sync); err != nil {
					return x, rootID, err
				}
			}
			st, d, err := solveSpanned(tr, sess, op, opts)
			if err != nil {
				return x, rootID, err
			}
			x.op = append(x.op, ms(tr.end(id)))
			x.solve = append(x.solve, us(d))
			x.ground = append(x.ground, us(st.ground))
			x.plan = append(x.plan, us(st.plan))
			x.solver = append(x.solver, us(st.solver))
			x.repair = append(x.repair, us(st.repair))
			x.outcome = append(x.outcome, us(st.outcome))
			x.patched = append(x.patched, float64(st.patched))
			x.solverReuse = append(x.solverReuse, st.solverReuse)
			x.repairReuse = append(x.repairReuse, st.repairReuse)
		}
		return x, rootID, nil
	}
	p, updRoot, err := run("ops", updates, primary)
	if err != nil {
		return err
	}
	v["core.apply_batch_p50_us"] = percentile(p.apply, 50)
	v["core.solve_update_p50_us"] = percentile(p.solve, 50)
	v["ground.delta_p50_us"] = percentile(p.ground, 50)
	v["engine.plan_sync_p50_us"] = percentile(p.plan, 50)
	v["engine.patched_components_per_op"] = mean(p.patched)
	v["repair.update_p50_us"] = percentile(p.repair, 50)
	v["repair.outcome_patch_p50_us"] = percentile(p.outcome, 50)
	v["repair.reuse_ratio"] = mean(p.repairReuse)
	for _, name := range []string{"core.apply_batch_p50_us", "core.solve_update_p50_us", "ground.delta_p50_us",
		"engine.plan_sync_p50_us", "repair.update_p50_us", "repair.outcome_patch_p50_us"} {
		r.samples[name] = updates
	}

	// The other solver on the same session: its first solve is cold
	// for it (and drops the read-out cache), the updates after it are
	// its update path.
	opts.Solver = secondary
	if _, _, err := solveSpanned(tr, sess, 0, opts); err != nil {
		return err
	}
	q, _, err := run("other-solver", updates/2, secondary)
	if err != nil {
		return err
	}
	m, ps := p, q
	if primary == translate.SolverPSL {
		m, ps = q, p
	}
	v["mln.update_solve_p50_us"] = percentile(m.solver, 50)
	v["mln.reuse_ratio"] = mean(m.solverReuse)
	v["psl.update_solve_p50_ms"] = percentile(ps.solver, 50) / 1e3
	v["psl.reuse_ratio"] = mean(ps.solverReuse)
	r.samples["mln.update_solve_p50_us"] = len(m.solver)
	r.samples["psl.update_solve_p50_ms"] = len(ps.solver)

	if !sess.Durable() {
		if err := sess.EnableDurability(filepath.Join(dir, "s")); err != nil {
			return err
		}
	}
	d, err := tr.time("core.checkpoint", 0, sess.Checkpoint)
	if err != nil {
		return err
	}
	v["core.checkpoint_ms"] = ms(d)
	if err := sess.Close(); err != nil {
		return err
	}
	var reopened *core.Session
	d, err = tr.time("core.open_session", 0, func() (err error) {
		if reopened, err = core.OpenSession(filepath.Join(dir, "s")); err != nil {
			return err
		}
		return reopened.LoadProgramText(kgen.ClusteredProgram)
	})
	if err != nil {
		return err
	}
	v["core.open_session_ms"] = ms(d)
	if err := reopened.Close(); err != nil {
		return err
	}

	if s.Cold {
		r.opMS, r.opsRoot = coldMS, coldRoot
	} else {
		r.opMS, r.opsRoot = p.op, updRoot
	}
	return nil
}
