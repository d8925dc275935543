package ground

import (
	"fmt"
	"time"

	"repro/internal/logic"
	"repro/internal/par"
	"repro/internal/rdf"
	"repro/internal/store"
)

// Grounder instantiates rules against evidence. Construct one per
// (store, program) pair: New interns every input fact as an evidence
// atom, Close forward-chains the inference rules to materialise derivable
// head atoms, and GroundProgram / GroundViolated emit clauses.
//
// Grounding runs on a bounded worker pool (see the package comment for
// the two-phase enumerate/merge discipline that keeps output identical
// at every worker count).
type Grounder struct {
	main     *store.Store
	mainView store.View
	derived  *store.Store
	// derivedView is refreshed at the start of every parallel phase (a
	// sequential point), after which the derived store is not mutated
	// until the next merge phase.
	derivedView store.View

	atoms *AtomTable

	// MaxRounds bounds forward-chaining iterations; rule cascades deeper
	// than this report an error rather than looping (head time
	// expressions can otherwise generate unboundedly many intervals).
	// Rounds are Jacobi-style — each materialises one cascade depth —
	// so the bound is the deepest rule chain supported.
	MaxRounds int

	// Parallelism bounds the grounding worker pool: 0 means GOMAXPROCS,
	// 1 forces sequential execution. Output is byte-identical at every
	// setting.
	Parallelism int

	// maps translate term codes between the store dictionaries and the
	// atom table's; synced by refreshViews at sequential points.
	maps codeMaps

	// Grounding statistics accumulated since the last TakeStats.
	statTotal time.Duration
	statRules map[string]*RuleGroundStats
}

// New prepares a grounder over the given evidence store. Live facts are
// interned as evidence atoms in fact-id order; tombstoned facts are
// skipped.
func New(main *store.Store) *Grounder {
	g := &Grounder{
		main:      main,
		mainView:  main.ReadView(),
		derived:   store.New(),
		atoms:     NewAtomTable(),
		MaxRounds: 32,
	}
	for i := 0; i < main.IDBound(); i++ {
		id := store.FactID(i)
		if !main.Live(id) {
			continue
		}
		q := main.Fact(id)
		g.atoms.InternEvidence(q.Fact(), q.Confidence, id)
	}
	return g
}

// Store exposes the evidence store the grounder was built over.
func (g *Grounder) Store() *store.Store { return g.main }

// Atoms exposes the atom table.
func (g *Grounder) Atoms() *AtomTable { return g.atoms }

// DerivedStore exposes the store of forward-chained facts.
func (g *Grounder) DerivedStore() *store.Store { return g.derived }

// joinTask is one unit of parallel grounding work: a compiled rule
// restricted to a contiguous chunk of the depth-0 candidate facts.
// Splitting at depth 0 lets a program with fewer rules than workers
// still saturate the pool;
// because chunks are contiguous and merged in order, chunk boundaries
// never affect output. Candidates are carried as compact fact ids —
// main-store ids first, then derived — and decoded by the worker, so a
// chunk costs 8 bytes per candidate rather than a materialised quad.
type joinTask struct {
	rule       *logic.Rule
	cr         *compiledRule
	mainIDs    []store.FactID
	derivedIDs []store.FactID
	// seedAtoms, when set, replaces the store scan as the depth-0
	// candidate source — the seminaive delta passes seed the join
	// directly from the (small) delta instead of the full indexes, and
	// the atoms' interned codes need no decoding.
	seedAtoms []AtomID
	// mode restricts which atoms each body position may bind during the
	// seminaive delta passes; nil for full grounding.
	mode *deltaMode

	// Per-task profiling, written by the task's worker and folded into
	// the grounder's stats at the next sequential point.
	elapsed time.Duration
	emitted int64
}

// Restriction kinds of a seminaive pass, per body-atom position.
const (
	bindAny   int8 = iota // no restriction
	bindDelta             // position must bind a delta atom
	bindOld               // position must bind a non-delta atom
)

// deltaMode parameterises one seminaive join pass: the delta atom set
// and the per-body-position restriction. Stratifying positions as
// (old..., delta, any...) enumerates every grounding containing at least
// one delta atom exactly once — by its first delta position — so clause
// weights are never double-counted.
type deltaMode struct {
	set  map[AtomID]bool
	kind []int8 // indexed by body-atom position
}

func (m *deltaMode) admits(bodyPos int, id AtomID) bool {
	if m == nil {
		return true
	}
	switch m.kind[bodyPos] {
	case bindDelta:
		return m.set[id]
	case bindOld:
		return !m.set[id]
	}
	return true
}

// joinTasks plans the task list for one parallel phase over the given
// rules. It also refreshes both store views — callers must not mutate
// either store until the phase's merge completes.
func (g *Grounder) joinTasks(rules []*logic.Rule, workers int) ([]joinTask, error) {
	g.refreshViews()
	chunksPer := 1
	if workers > 1 && len(rules) > 0 && len(rules) < workers {
		// Oversplit to roughly two tasks per worker so one heavy rule
		// cannot strand the pool.
		chunksPer = (2*workers + len(rules) - 1) / len(rules)
	}
	tasks := make([]joinTask, 0, len(rules)*chunksPer)
	for _, r := range rules {
		order, est, err := g.planSelective(r, -1)
		if err != nil {
			return nil, err
		}
		cr, err := g.compileRule(r, order, est)
		if err != nil {
			return nil, err
		}
		g.notePlan(r.Name, order, est)
		t := joinTask{rule: r, cr: cr}
		// Materialise the depth-0 candidate ids: main-store matches
		// first, then derived, mirroring the per-depth visit order of the
		// join. A pattern miss (constant absent from that store) means no
		// candidates there at all.
		fr := logic.NewFrame(cr.sm)
		if cp, ok := codePatternAt(&cr.quads[0], fr, g.maps.atomToMain); ok {
			t.mainIDs = g.mainView.MatchCodeIDs(cp)
		}
		if g.derivedView.Len() > 0 {
			if cp, ok := codePatternAt(&cr.quads[0], fr, g.maps.atomToDerived); ok {
				t.derivedIDs = g.derivedView.MatchCodeIDs(cp)
			}
		}
		tasks = splitTask(tasks, t, chunksPer)
	}
	return tasks, nil
}

// splitTask appends t to tasks, cut into up to chunksPer contiguous
// windows over its main++derived depth-0 candidates. Because chunks are
// contiguous and merged in order, chunk boundaries never affect output.
func splitTask(tasks []joinTask, t joinTask, chunksPer int) []joinTask {
	mainIDs, derivedIDs := t.mainIDs, t.derivedIDs
	total := len(mainIDs) + len(derivedIDs)
	chunks := chunksPer
	if chunks > total {
		chunks = total
	}
	if chunks <= 1 {
		return append(tasks, t)
	}
	for c := 0; c < chunks; c++ {
		lo := c * total / chunks
		hi := (c + 1) * total / chunks
		ct := t
		ct.mainIDs, ct.derivedIDs = nil, nil
		// Cut the [lo, hi) window out of the main++derived
		// concatenation.
		if lo < len(mainIDs) {
			mhi := hi
			if mhi > len(mainIDs) {
				mhi = len(mainIDs)
			}
			ct.mainIDs = mainIDs[lo:mhi]
		}
		if hi > len(mainIDs) {
			dlo := lo - len(mainIDs)
			if dlo < 0 {
				dlo = 0
			}
			ct.derivedIDs = derivedIDs[dlo : hi-len(mainIDs)]
		}
		tasks = append(tasks, ct)
	}
	return tasks
}

// Close forward-chains the program's inference rules until fixpoint,
// interning every derivable head atom. It returns the number of derived
// atoms added. Clauses are not emitted here; call GroundProgram after.
//
// Each round evaluates every rule against the store state at the start
// of the round (Jacobi-style), so rules can run concurrently; a head
// derived in round k becomes matchable in round k+1. The fixpoint is the
// same as chaining rules one at a time, and the round-start snapshot
// makes the intern order — and therefore every atom id — independent of
// the worker count.
func (g *Grounder) Close(prog *logic.Program) (int, error) {
	rules := prog.InferenceRules()
	if len(rules) == 0 {
		return 0, nil
	}
	start := time.Now()
	defer func() { g.statTotal += time.Since(start) }()
	workers := par.Workers(g.Parallelism)
	total := 0
	for round := 0; ; round++ {
		if round >= g.MaxRounds {
			return total, fmt.Errorf("ground: forward chaining exceeded %d rounds; rule cascade may be unbounded", g.MaxRounds)
		}
		tasks, err := g.joinTasks(rules, workers)
		if err != nil {
			return total, err
		}
		if workers == 1 || len(tasks) <= 1 {
			// Single worker: intern heads at first emission instead of
			// buffering candidate keys. The views were pinned by joinTasks,
			// so a head interned mid-round stays unmatchable until the next
			// round — the Jacobi semantics the parallel merge provides — and
			// first-emission order is exactly the merge's intern order.
			added := 0
			for i := range tasks {
				err := g.runJoin(&tasks[i], nil, func(env *compiledEnv, _ []AtomID) error {
					state, _, key := env.resolveHeadAtom()
					if state != headStatePending {
						return nil
					}
					g.atoms.Intern(key)
					if _, err := g.derived.Add(rdf.Quad{
						Subject: key.S, Predicate: key.P, Object: key.O,
						Interval: key.Interval, Confidence: 1,
					}); err != nil {
						return fmt.Errorf("ground: derived fact %v: %w", key, err)
					}
					added++
					return nil
				})
				if err != nil {
					return total, err
				}
			}
			g.noteTaskStats(tasks)
			total += added
			if added == 0 {
				return total, nil
			}
			continue
		}
		// Enumerate phase: collect candidate head keys per task. Workers
		// only read — resolveHeadAtom reports pending only for keys not
		// interned before this round; the merge re-checks for keys
		// produced by several tasks.
		newKeys := make([][]rdf.FactKey, len(tasks))
		errs := make([]error, len(tasks))
		par.Do(len(tasks), workers, func(i int) {
			t := &tasks[i]
			errs[i] = g.runJoin(t, nil, func(env *compiledEnv, _ []AtomID) error {
				if state, _, key := env.resolveHeadAtom(); state == headStatePending {
					newKeys[i] = append(newKeys[i], key)
				}
				return nil
			})
		})
		// Merge phase: intern fresh heads in task order.
		g.noteTaskStats(tasks)
		added := 0
		for i := range tasks {
			if errs[i] != nil {
				return total, errs[i]
			}
			for _, key := range newKeys[i] {
				if _, seen := g.atoms.Lookup(key); seen {
					continue
				}
				g.atoms.Intern(key)
				if _, err := g.derived.Add(rdf.Quad{
					Subject: key.S, Predicate: key.P, Object: key.O,
					Interval: key.Interval, Confidence: 1,
				}); err != nil {
					return total, fmt.Errorf("ground: derived fact %v: %w", key, err)
				}
				added++
			}
		}
		total += added
		if added == 0 {
			return total, nil
		}
	}
}

// GroundProgram grounds every rule and constraint, emitting the full
// ground clause set (call Close first so rule cascades are complete).
func (g *Grounder) GroundProgram(prog *logic.Program) (*ClauseSet, error) {
	return g.ground(prog.Rules, nil, false)
}

// GroundViolated grounds only the clauses violated under the given truth
// assignment: body atoms are matched against currently-true atoms and a
// clause is emitted only when its head fails. This is the cutting-plane
// primitive used by the MLN solver.
func (g *Grounder) GroundViolated(prog *logic.Program, truth func(AtomID) bool) (*ClauseSet, error) {
	return g.ground(prog.Rules, truth, true)
}

// Head resolution states of a pending clause.
const (
	headNone     uint8 = iota // condition or falsum head: body literals only
	headResolved              // head atom already interned; id is in lits
	headPending               // head atom needs interning at merge time
)

// pendingClause is one grounding enumerated during the parallel phase:
// body literals are fully resolved, a head atom that is not yet interned
// is carried as its fact key so the sequential merge can intern it in
// deterministic order. The key is behind a pointer — it is rare (Close
// interns every derivable head first) and inlining it tripled the size
// of every buffered grounding.
type pendingClause struct {
	lits     []Lit
	headKind uint8
	headKey  *rdf.FactKey
}

// shardBlockSize bounds one contiguous shard allocation. Appending
// millions of groundings to a single ever-regrown slice re-zeroes
// gigabytes of fresh large spans — that zeroing, not the joins,
// dominated cold-grounding profiles at 10⁶ facts. Fixed blocks are each
// allocated once at full size and never copied.
const shardBlockSize = 8192

// clauseShard buffers one task's groundings as a list of fixed-size
// blocks.
type clauseShard struct{ blocks [][]pendingClause }

func (s *clauseShard) add(pc pendingClause) {
	n := len(s.blocks)
	if n == 0 || len(s.blocks[n-1]) == cap(s.blocks[n-1]) {
		s.blocks = append(s.blocks, make([]pendingClause, 0, shardBlockSize))
		n++
	}
	s.blocks[n-1] = append(s.blocks[n-1], pc)
}

// ground joins every rule across the worker pool, emitting clause shards
// that the merge phase combines in rule order. With onlyViolated,
// satisfied groundings are skipped (and truth filters body matches).
func (g *Grounder) ground(rules []*logic.Rule, truth func(AtomID) bool, onlyViolated bool) (*ClauseSet, error) {
	start := time.Now()
	defer func() { g.statTotal += time.Since(start) }()
	workers := par.Workers(g.Parallelism)
	tasks, err := g.joinTasks(rules, workers)
	if err != nil {
		return nil, err
	}
	hint := 0
	if !onlyViolated {
		// Full grounding yields on the order of one-to-two clauses per
		// atom; cutting-plane calls (onlyViolated) yield far fewer and
		// should not pay for a network-sized index.
		hint = g.atoms.Len() + g.atoms.Len()/2
	}
	cs := NewClauseSetSized(hint)
	if err := g.groundTasks(tasks, truth, onlyViolated, cs); err != nil {
		return nil, err
	}
	return cs, nil
}

// groundTasks runs the enumerate/merge phases for a prepared task list,
// merging emitted clauses into cs (which may already hold clauses from
// earlier solves on the incremental path).
func (g *Grounder) groundTasks(tasks []joinTask, truth func(AtomID) bool, onlyViolated bool, cs *ClauseSet) error {
	workers := par.Workers(g.Parallelism)
	if workers == 1 || len(tasks) <= 1 {
		return g.groundTasksSeq(tasks, truth, onlyViolated, cs)
	}
	// Enumerate phase: private shard per task, Lookup-only atom access.
	shards := make([]clauseShard, len(tasks))
	errs := make([]error, len(tasks))
	par.Do(len(tasks), workers, func(i int) {
		t := &tasks[i]
		errs[i] = g.runJoin(t, truth, func(env *compiledEnv, bodyAtoms []AtomID) error {
			pc := pendingClause{lits: make([]Lit, 0, len(bodyAtoms)+1)}
			for _, a := range bodyAtoms {
				pc.lits = append(pc.lits, Lit{Atom: a, Neg: true})
			}
			switch t.rule.Head.Kind {
			case logic.HeadAtom:
				state, id, key := env.resolveHeadAtom()
				switch state {
				case headStateMiss:
					return nil // empty head time expression: no obligation
				case headStateResolved:
					if onlyViolated && truth != nil && truth(id) {
						return nil
					}
					pc.headKind = headResolved
					pc.lits = append(pc.lits, Lit{Atom: id})
				case headStatePending:
					// Close was not run (or truth-filtered matching found
					// a grounding whose head was never materialised);
					// intern deterministically at merge time.
					pc.headKind = headPending
					k := key
					pc.headKey = &k
				}
			case logic.HeadCond:
				holds, err := env.evalHeadCond()
				if err != nil {
					return fmt.Errorf("ground: rule %s head: %w", t.rule.Name, err)
				}
				if holds {
					return nil // grounding satisfied; no clause
				}
			case logic.HeadFalse:
				// Always a violation clause over the body.
			}
			shards[i].add(pc)
			return nil
		})
	})
	// Merge phase: drain shards in task order, interning pending heads
	// and deduplicating into the clause set exactly as sequential
	// grounding would.
	g.noteTaskStats(tasks)
	for i := range tasks {
		if errs[i] != nil {
			return errs[i]
		}
		r := tasks[i].rule
		for _, blk := range shards[i].blocks {
			for _, pc := range blk {
				c := Clause{Lits: pc.lits, Weight: r.Weight, Rule: r.Name}
				if pc.headKind == headPending {
					id := g.atoms.Intern(*pc.headKey)
					if onlyViolated && truth != nil && truth(id) {
						continue
					}
					c.Lits = append(c.Lits, Lit{Atom: id})
				}
				if !cs.Add(c) {
					return fmt.Errorf("ground: rule %s grounds to an unconditionally violated hard constraint", r.Name)
				}
			}
		}
	}
	return nil
}

// groundTasksSeq is groundTasks for a single worker: tasks run inline in
// order, so clauses go straight into the clause set with no
// pendingClause buffering at all. A pending head is interned at its
// first emission — exactly the (task, emission-order) position where the
// parallel merge would intern it — so atom ids, clause order and the
// dedup aggregation are byte-identical to the buffered path. One shared
// literal scratch serves every emission; ClauseSet.Add copies literals
// it retains.
func (g *Grounder) groundTasksSeq(tasks []joinTask, truth func(AtomID) bool, onlyViolated bool, cs *ClauseSet) error {
	var scratch []Lit
	for i := range tasks {
		t := &tasks[i]
		err := g.runJoin(t, truth, func(env *compiledEnv, bodyAtoms []AtomID) error {
			if cap(scratch) < len(bodyAtoms)+1 {
				scratch = make([]Lit, 0, len(bodyAtoms)+16)
			}
			lits := scratch[:0]
			for _, a := range bodyAtoms {
				lits = append(lits, Lit{Atom: a, Neg: true})
			}
			switch t.rule.Head.Kind {
			case logic.HeadAtom:
				state, id, key := env.resolveHeadAtom()
				switch state {
				case headStateMiss:
					return nil // empty head time expression: no obligation
				case headStatePending:
					id = g.atoms.Intern(key)
				}
				if onlyViolated && truth != nil && truth(id) {
					return nil
				}
				lits = append(lits, Lit{Atom: id})
			case logic.HeadCond:
				holds, err := env.evalHeadCond()
				if err != nil {
					return fmt.Errorf("ground: rule %s head: %w", t.rule.Name, err)
				}
				if holds {
					return nil // grounding satisfied; no clause
				}
			case logic.HeadFalse:
				// Always a violation clause over the body.
			}
			if !cs.Add(Clause{Lits: lits, Weight: t.rule.Weight, Rule: t.rule.Name}) {
				return fmt.Errorf("ground: rule %s grounds to an unconditionally violated hard constraint", t.rule.Name)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	g.noteTaskStats(tasks)
	return nil
}

// refreshViews re-pins the grounder's store views at the current
// epochs; a sequential point between mutation and the next join phase.
// The code translation tables are brought up to date here too, so
// workers read them lock-free for the rest of the phase.
func (g *Grounder) refreshViews() {
	g.mainView = g.main.ReadView()
	g.derivedView = g.derived.ReadView()
	g.syncCodeMaps()
}

// scheduleConds assigns each condition to the earliest join depth at
// which all its variables are bound: one cumulative coverage pass over
// the order, then each condition's depth is the max first-bound depth of
// its variables.
func scheduleConds(r *logic.Rule, order []int) ([][]logic.Condition, error) {
	out := make([][]logic.Condition, len(order))
	firstDepth := make(map[string]int)
	var scratch []string
	for d, idx := range order {
		scratch = r.Body[idx].Vars(scratch[:0])
		for _, v := range scratch {
			if _, seen := firstDepth[v]; !seen {
				firstDepth[v] = d
			}
		}
	}
	for _, c := range r.Conds {
		d := 0
		ok := true
		for _, v := range c.CondVars(nil) {
			fd, bound := firstDepth[v]
			if !bound {
				ok = false
				break
			}
			if fd > d {
				d = fd
			}
		}
		if !ok {
			return nil, fmt.Errorf("ground: rule %s: condition %s has variables not bound by the body", r.Name, c)
		}
		out[d] = append(out[d], c)
	}
	return out, nil
}
