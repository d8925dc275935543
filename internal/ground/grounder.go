package ground

import (
	"fmt"
	"time"

	"repro/internal/logic"
	"repro/internal/par"
	"repro/internal/store"
)

// Grounder instantiates rules against evidence. Construct one per
// (store, program) pair: New interns every input fact as an evidence
// atom, Close forward-chains the inference rules to materialise derivable
// head atoms, and GroundProgram emits clauses.
//
// Every join phase runs through one runner on a bounded worker pool (see
// the package comment for the enumerate/commit discipline that keeps
// output identical at every worker count).
type Grounder struct {
	main     *store.Store
	mainView store.View
	// derived holds the forward-chained facts, in main's code space.
	derived *store.Store
	// derivedView is refreshed at the start of every phase (a sequential
	// point); phases only add to the derived store in commit, which the
	// pinned view does not see until the next phase.
	derivedView store.View

	// atoms keys every ground atom by main's term codes, the one code
	// space of grounding: frames, rule constants and both views share it.
	atoms *AtomTable

	// MaxRounds bounds the seminaive forward-chaining rounds of
	// CloseDelta (and so of Close, which hands off to it after one full
	// pass); rule cascades deeper than this report an error rather than
	// looping (head time expressions can otherwise generate unboundedly
	// many intervals). Each round materialises one cascade depth, so the
	// bound is the deepest rule chain supported.
	MaxRounds int

	// Parallelism bounds the grounding worker pool: 0 means GOMAXPROCS,
	// 1 forces sequential execution. Output is byte-identical at every
	// setting.
	Parallelism int

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
		atoms:     NewAtomTable(main),
		MaxRounds: 32,
	}
	for i := 0; i < main.IDBound(); i++ {
		id := store.FactID(i)
		if !main.Live(id) {
			continue
		}
		k, conf := evidenceKey(g.mainView, id)
		g.atoms.internEvidence(k, conf, id)
	}
	return g
}

// Store exposes the evidence store the grounder was built over.
func (g *Grounder) Store() *store.Store { return g.main }

// Atoms exposes the atom table.
func (g *Grounder) Atoms() *AtomTable { return g.atoms }

// DerivedStore exposes the store of forward-chained facts. Its facts hold
// the evidence store's term codes and its own dictionary stays empty:
// decode them through Store().Terms(), not through its Fact.
func (g *Grounder) DerivedStore() *store.Store { return g.derived }

// joinTask is one unit of parallel grounding work: a compiled rule
// restricted to a contiguous chunk of the depth-0 candidate facts.
// Splitting at depth 0 by candidate count spreads a heavy rule over the
// pool whatever the rule count;
// because chunks are contiguous and committed in order, chunk boundaries
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
	// the grounder's stats at the end of the phase.
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

// joinTasks plans the task list of one full join phase over the given
// rules. It also refreshes both store views — callers must not mutate
// either store until the phase's commits begin.
func (g *Grounder) joinTasks(rules []*logic.Rule) ([]joinTask, error) {
	g.refreshViews()
	whole := make([]joinTask, 0, len(rules))
	total := 0
	for _, r := range rules {
		cr, err := g.compileRule(r, -1)
		if err != nil {
			return nil, err
		}
		t := joinTask{rule: r, cr: cr}
		// Materialise the depth-0 candidate ids: main-store matches
		// first, then derived, mirroring the per-depth visit order of the
		// join. A pattern miss (constant absent from the dictionary) means
		// no candidates at all.
		if cp, ok := codePatternAt(&cr.quads[0], logic.NewFrame(cr.sm)); ok {
			t.mainIDs = g.mainView.MatchCodeIDs(cp)
			if g.derivedView.Len() > 0 {
				t.derivedIDs = g.derivedView.MatchCodeIDs(cp)
			}
		}
		total += len(t.mainIDs) + len(t.derivedIDs)
		whole = append(whole, t)
	}
	// Cut every rule's candidates into chunks of at most about
	// total/(2·workers), so one heavy rule is spread over the pool
	// whatever the rule count.
	chunk := total
	if workers := par.Workers(g.Parallelism); workers > 1 {
		chunk = (total + 2*workers - 1) / (2 * workers)
	}
	tasks := make([]joinTask, 0, len(whole))
	for _, t := range whole {
		tasks = splitTask(tasks, t, chunk)
	}
	return tasks, nil
}

// splitTask appends t to tasks, cut into as few contiguous windows over
// its main++derived depth-0 candidates as hold at most chunk each.
// Because chunks are contiguous and committed in order, chunk boundaries
// never affect output.
func splitTask(tasks []joinTask, t joinTask, chunk int) []joinTask {
	mainIDs, derivedIDs := t.mainIDs, t.derivedIDs
	total := len(mainIDs) + len(derivedIDs)
	if chunk <= 0 || total <= chunk {
		return append(tasks, t)
	}
	chunks := (total + chunk - 1) / chunk
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

// shardBlockSize caps one buffer block of the runner's buffered arm.
// Appending millions of groundings to a single ever-regrown slice
// re-zeroes gigabytes of fresh large spans — that zeroing, not the
// joins, dominated cold-grounding profiles at 10⁶ facts. Blocks are
// allocated once and never regrown, doubling from firstBlockSize, so a
// task that emits a handful of groundings pays for a handful.
const (
	firstBlockSize = 16
	shardBlockSize = 8192
)

// itemBuf is one task's private buffer of emitted items: a list of
// never-regrown blocks.
type itemBuf[T any] struct{ blocks [][]T }

func (b *itemBuf[T]) add(x T) {
	n := len(b.blocks)
	if n == 0 || len(b.blocks[n-1]) == cap(b.blocks[n-1]) {
		size := firstBlockSize
		if n > 0 {
			size = min(2*cap(b.blocks[n-1]), shardBlockSize)
		}
		b.blocks = append(b.blocks, make([]T, 0, size))
		n++
	}
	b.blocks[n-1] = append(b.blocks[n-1], x)
}

// runPhase is the one driver of every join phase. Each task's groundings
// come out of runJoin and go through emit, which resolves them against
// the atom table read-only and reports whether to keep an item; commit
// applies the kept items in task order, then enumeration order. Atom
// ids, clause contents and clause order are therefore identical at every
// worker count.
//
// With one worker or one task the phase runs inline: commit applies each
// item as soon as it is emitted, and emit gets a literal scratch (lits,
// empty with room for the body plus a head) that commit must copy if it
// retains it. Otherwise workers enumerate their tasks concurrently into
// private buffers — emit gets lits == nil and allocates what it keeps —
// and a sequential merge commits them.
func runPhase[T any](g *Grounder, tasks []joinTask,
	emit func(t *joinTask, env *compiledEnv, body []AtomID, lits []Lit) (T, bool, error),
	commit func(t *joinTask, item T) error) error {

	defer g.noteTaskStats(tasks)
	workers := par.Workers(g.Parallelism)
	inline := workers == 1 || len(tasks) <= 1
	bufs := make([]itemBuf[T], len(tasks))
	errs := make([]error, len(tasks))
	var scratch []Lit
	run := func(i int) {
		t := &tasks[i]
		errs[i] = g.runJoin(t, func(env *compiledEnv, body []AtomID) error {
			var lits []Lit
			if inline {
				if cap(scratch) <= len(body) {
					scratch = make([]Lit, 0, len(body)+1)
				}
				lits = scratch[:0]
			}
			item, ok, err := emit(t, env, body, lits)
			switch {
			case err != nil || !ok:
				return err
			case inline:
				return commit(t, item)
			}
			bufs[i].add(item)
			return nil
		})
	}
	if !inline {
		par.Do(len(tasks), workers, run)
	}
	for i := range tasks {
		if inline {
			run(i)
		}
		if errs[i] != nil {
			return errs[i]
		}
		for _, blk := range bufs[i].blocks {
			for _, item := range blk {
				if err := commit(&tasks[i], item); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// derive runs one forward-chaining phase. Emit keeps the statement of
// every head that is not live — pending (never interned) or retracted;
// commit interns or revives the atom, rejects a statement that is no
// valid quad (a literal subject, say) as the store's Add would, and adds
// it to the derived store by its codes, where the next phase can match
// it. It returns the atoms that became live, in commit order.
func (g *Grounder) derive(tasks []joinTask) ([]AtomID, error) {
	var fresh []AtomID
	err := runPhase(g, tasks,
		func(_ *joinTask, env *compiledEnv, _ []AtomID, _ []Lit) (atomKey, bool, error) {
			switch state, id, k := env.resolveHeadAtom(); {
			case state == headStatePending:
				return k, true, nil
			case state == headStateResolved && g.atoms.IsRetracted(id):
				return g.atoms.keys[id], true, nil
			}
			return atomKey{}, false, nil
		},
		func(_ *joinTask, k atomKey) error {
			id, seen := g.atoms.lookupKey(k)
			switch {
			case !seen:
				id = g.atoms.intern(k)
			case g.atoms.IsRetracted(id):
				g.atoms.SetDerived(id)
			default:
				return nil // derived earlier in this phase
			}
			fresh = append(fresh, id)
			key := g.atoms.Info(id).Key
			if err := keyQuad(key).Validate(); err != nil {
				return fmt.Errorf("ground: derived fact %v: %w", key, err)
			}
			g.derived.AddCodes(k.s, k.p, k.o, k.iv, 1)
			return nil
		})
	return fresh, err
}

// Close forward-chains the program's inference rules until fixpoint,
// interning every derivable head atom. It returns the number of derived
// atoms added. Clauses are not emitted here; call GroundProgram after.
//
// One full join pass over the store derives the first cascade depth;
// CloseDelta's seminaive rounds (chain), seeded with what that pass
// derived, run the rest.
func (g *Grounder) Close(prog *logic.Program) (int, error) {
	rules := prog.InferenceRules()
	if len(rules) == 0 {
		return 0, nil
	}
	start := time.Now()
	tasks, err := g.joinTasks(rules)
	var derived []AtomID
	if err == nil {
		derived, err = g.derive(tasks)
	}
	g.statTotal += time.Since(start) // chain accounts for itself
	if err != nil {
		return len(derived), err
	}
	more, err := g.chain(prog, derived)
	return len(derived) + len(more), err
}

// GroundProgram grounds every rule and constraint in one full
// clause-emission phase, emitting the full ground clause set (call Close
// first so rule cascades are complete).
func (g *Grounder) GroundProgram(prog *logic.Program) (*ClauseSet, error) {
	start := time.Now()
	defer func() { g.statTotal += time.Since(start) }()
	// Full grounding yields on the order of one-to-two clauses per atom.
	cs := NewClauseSetSized(g.atoms.Len() + g.atoms.Len()/2)
	tasks, err := g.joinTasks(prog.Rules)
	if err == nil {
		err = g.emitClauses(tasks, cs)
	}
	if err != nil {
		return nil, err
	}
	return cs, nil
}

// clauseItem is one grounding kept by clause emission: the body
// literals, the head literal when the head atom is interned, and the key
// of a head that is not (commit interns it). The key is behind a
// pointer: it is rare (Close interns every derivable head first) and
// inline it would make every buffered item twice as large.
type clauseItem struct {
	lits []Lit
	head *atomKey
}

// emitClauses runs one clause-emission phase over tasks, adding the
// clauses into cs (which may already hold clauses from earlier solves on
// the incremental path).
func (g *Grounder) emitClauses(tasks []joinTask, cs *ClauseSet) error {
	emit := func(t *joinTask, env *compiledEnv, body []AtomID, lits []Lit) (clauseItem, bool, error) {
		var it clauseItem
		head := AtomID(-1)
		switch t.rule.Head.Kind {
		case logic.HeadAtom:
			state, id, k := env.resolveHeadAtom()
			switch {
			case state == headStateMiss:
				return it, false, nil // empty head time expression: no obligation
			case state == headStatePending:
				// Close was not run: the head was never materialised.
				it.head = &k
			default:
				head = id
			}
		case logic.HeadCond:
			holds, err := env.evalHeadCond()
			if err != nil {
				return it, false, fmt.Errorf("ground: rule %s head: %w", t.rule.Name, err)
			}
			if holds {
				return it, false, nil // grounding satisfied; no clause
			}
		}
		// A HeadFalse grounding is always a violation clause over the body.
		if lits == nil {
			lits = make([]Lit, 0, len(body)+1)
		}
		for _, a := range body {
			lits = append(lits, Lit{Atom: a, Neg: true})
		}
		if head >= 0 {
			lits = append(lits, Lit{Atom: head})
		}
		it.lits = lits
		return it, true, nil
	}
	commit := func(t *joinTask, it clauseItem) error {
		if it.head != nil {
			it.lits = append(it.lits, Lit{Atom: g.atoms.intern(*it.head)})
		}
		if !cs.Add(Clause{Lits: it.lits, Weight: t.rule.Weight, Rule: t.rule.Name}) {
			return fmt.Errorf("ground: rule %s grounds to an unconditionally violated hard constraint", t.rule.Name)
		}
		return nil
	}
	return runPhase(g, tasks, emit, commit)
}

// refreshViews re-pins the grounder's store views at the current
// epochs; a sequential point between mutation and the next join phase.
// Nothing asks
// the derived store for an older epoch or a DeltaSince, so its change
// log is compacted to the pinned epoch: a streaming session's
// derivations and retractions do not accumulate history.
func (g *Grounder) refreshViews() {
	g.mainView = g.main.ReadView()
	g.derivedView = g.derived.ReadView()
	g.derived.CompactLog(g.derivedView.Epoch())
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
