package maxsat

import (
	"math"
	"math/rand"
)

// Local-search engine: greedy weight-biased initialisation followed by a
// WalkSAT-style loop. While hard clauses are violated the walk repairs a
// random violated hard clause; once feasible it descends on soft cost,
// keeping the best feasible assignment seen. The clause shapes produced
// by grounding TeCoRe programs — soft unit evidence, hard binary
// disjointness, small mixed inference clauses — respond very well to
// this scheme.
//
// Restarts run in sequence: each gets its own RNG (seeded from the base
// seed and the restart index), its own working state, and a share of the
// flip budget. The winner is selected by (hard feasibility, soft cost,
// restart index), and the first restart that reaches a feasible,
// zero-cost assignment ends the run — no later one can beat it. The
// tables — occurrence records, per-clause hard flags and the hard
// clauses' members — are built once and shared across restarts.
//
// Each restart keeps every variable's hard delta current: the number of
// hard clauses its flip would break minus the number it would repair. A
// flip updates it for the variables of each hard clause the flipped
// variable appears in, so a step reads a variable's hard delta in O(1),
// and a flip costs the summed length of its hard clauses. Nearly
// every step on a dense component scores a move that breaks a hard
// clause and declines it on that integer alone; only a move that keeps
// feasibility, or a tie on the least hard delta, rescans the variable's
// soft clauses for its cost delta.

type localState struct {
	p      *Problem
	rng    *rand.Rand
	assign []bool
	tables         // shared across restarts, never written
	numSat []int32 // per clause: count of satisfied literals
	// hardDelta holds, per variable, the hard clauses its flip would
	// break minus those it would repair.
	hardDelta []int32

	violHard    []int32 // indices of violated hard clauses (unordered set)
	violHardPos []int32 // clause -> position in violHard, -1 if absent
	cost        float64 // violated soft weight
	violSoft    []int32
	violSoftPos []int32
}

// litCount counts a clause's positive and negative literals over one
// variable.
type litCount struct {
	pos, neg int32
}

// sat counts the literals that the variable value val satisfies.
func (c litCount) sat(val bool) int32 {
	if val {
		return c.pos
	}
	return c.neg
}

// occurrence records that a clause mentions a variable. A clause that
// mentions a variable several times, even in both phases, has one
// occurrence of it.
type occurrence struct {
	clause int32
	litCount
}

// member is an occurrence read clause-major: the literals of clause's
// variable v.
type member struct {
	v int32
	litCount
}

// hardView lists each hard clause's members in variable order: clause
// ci's are members[start[ci]:start[ci+1]]. Soft clauses have none.
type hardView struct {
	start   []int32
	members []member
}

func (hv hardView) clause(ci int32) []member {
	return hv.members[hv.start[ci]:hv.start[ci+1]]
}

// tables are the per-problem records every restart reads and none
// writes.
type tables struct {
	occ     [][]occurrence
	hard    []bool // per clause: Hard()
	hardOcc hardView
}

func buildTables(p *Problem) tables {
	occ := buildOcc(p)
	hard := make([]bool, len(p.Clauses))
	for ci := range p.Clauses {
		hard[ci] = p.Clauses[ci].Hard()
	}
	return tables{occ: occ, hard: hard, hardOcc: buildHardView(p, occ, hard)}
}

// buildOcc computes each variable's occurrences in clause order. Both
// engines read them.
func buildOcc(p *Problem) [][]occurrence {
	occ := make([][]occurrence, p.NumVars)
	for ci, c := range p.Clauses {
		for _, l := range c.Lits {
			cur := occ[l.Var]
			if len(cur) == 0 || cur[len(cur)-1].clause != int32(ci) {
				cur = append(cur, occurrence{clause: int32(ci)})
				occ[l.Var] = cur
			}
			if o := &cur[len(cur)-1]; l.Neg {
				o.neg++
			} else {
				o.pos++
			}
		}
	}
	return occ
}

// buildHardView reads the occurrence records clause-major, for the hard
// clauses only.
func buildHardView(p *Problem, occ [][]occurrence, hard []bool) hardView {
	hv := hardView{start: make([]int32, len(p.Clauses)+1)}
	for _, os := range occ {
		for _, o := range os {
			if hard[o.clause] {
				hv.start[o.clause+1]++
			}
		}
	}
	for ci := range p.Clauses {
		hv.start[ci+1] += hv.start[ci]
	}
	hv.members = make([]member, hv.start[len(p.Clauses)])
	next := append([]int32(nil), hv.start[:len(p.Clauses)]...)
	for v, os := range occ {
		for _, o := range os {
			if hard[o.clause] {
				hv.members[next[o.clause]] = member{v: int32(v), litCount: o.litCount}
				next[o.clause]++
			}
		}
	}
	return hv
}

func newLocalState(p *Problem, t tables, seed int64) *localState {
	return &localState{
		p:           p,
		rng:         rand.New(rand.NewSource(seed)),
		assign:      make([]bool, p.NumVars),
		tables:      t,
		numSat:      make([]int32, len(p.Clauses)),
		hardDelta:   make([]int32, p.NumVars),
		violHardPos: make([]int32, len(p.Clauses)),
		violSoftPos: make([]int32, len(p.Clauses)),
	}
}

// restartSeed decorrelates the per-restart RNG streams.
func restartSeed(base int64, restart int) int64 {
	const golden = -0x61C8864680B583EB // 2^64 / φ as a signed 64-bit value
	return base + int64(restart)*golden
}

func solveLocal(p *Problem, opts Options) *Solution {
	t := buildTables(p)
	restarts := opts.Restarts

	warm := opts.Warm
	if len(warm) != p.NumVars {
		warm = nil
	}
	// With a warm start the walk begins at (or next to) the previous
	// incumbent, so one warm-initialised restart with a stall cutoff
	// replaces the cold restart portfolio: a walk that has not improved
	// its best feasible solution for a budget proportional to the
	// instance size gives up early. Cold runs keep the full portfolio
	// and budget — their trajectory is part of the deterministic
	// contract.
	stall := 0
	if warm != nil {
		restarts = 1
		stall = 2 * p.NumVars
		if stall < 5000 {
			stall = 5000
		}
	}

	// Feasible beats infeasible, then lowest cost; strict < keeps the
	// earliest restart on ties.
	var win *Solution
	var last []bool // the last infeasible restart's final assignment
	flips := 0
	for r := 0; r < restarts; r++ {
		st := newLocalState(p, t, restartSeed(opts.Seed, r))
		if r == 0 && warm != nil {
			st.initWarm(warm)
		} else {
			st.initGreedy(r)
		}
		best := &Solution{Cost: math.Inf(1)}
		flips += st.walk(opts.MaxFlips/restarts, opts.Noise, best, stall)
		if best.Assignment == nil {
			last = st.assign
			continue
		}
		if win == nil || best.Cost < win.Cost {
			win = best
		}
		if best.Cost == 0 {
			break
		}
	}
	if win == nil {
		// Never feasible: report the last restart's final assignment.
		hv, cost := Evaluate(p, last)
		return &Solution{Assignment: last, Cost: cost, HardSatisfied: hv == 0, Flips: flips}
	}
	win.Flips = flips
	return win
}

// unitBias sums each variable's soft unit clauses, positive ones added
// and negative ones subtracted, in clause order. Both engines start from
// it.
func unitBias(p *Problem) []float64 {
	bias := make([]float64, p.NumVars)
	for _, c := range p.Clauses {
		if c.Hard() || len(c.Lits) != 1 {
			continue
		}
		if l := c.Lits[0]; l.Neg {
			bias[l.Var] -= c.Weight
		} else {
			bias[l.Var] += c.Weight
		}
	}
	return bias
}

// initGreedy assigns variables by their soft unit bias (restart > 0 adds
// random perturbation), then rebuilds clause state and repairs hard
// clauses.
func (st *localState) initGreedy(restart int) {
	bias := unitBias(st.p)
	for v := range st.assign {
		st.assign[v] = bias[v] > 0
		if restart > 0 && st.rng.Float64() < 0.08*float64(restart) {
			st.assign[v] = !st.assign[v]
		}
	}
	st.rebuildAndRepair()
}

// initWarm starts from a previous solution of a related instance (the
// incremental path's incumbent), then repairs any hard clauses the
// instance change broke. Near-unchanged instances start at or next to a
// feasible optimum, so the walk converges in a fraction of the flips.
func (st *localState) initWarm(warm []bool) {
	copy(st.assign, warm)
	st.rebuildAndRepair()
}

// rebuildAndRepair recomputes clause state and hard deltas from the
// assignment, then greedily satisfies violated hard clauses, flipping in
// each the variable whose flip does the least damage.
func (st *localState) rebuildAndRepair() {
	st.violHard = st.violHard[:0]
	st.violSoft = st.violSoft[:0]
	st.cost = 0
	for ci := range st.p.Clauses {
		st.violHardPos[ci] = -1
		st.violSoftPos[ci] = -1
	}
	for ci, c := range st.p.Clauses {
		n := int32(0)
		for _, l := range c.Lits {
			if st.assign[l.Var] != l.Neg {
				n++
			}
		}
		st.numSat[ci] = n
		if n == 0 {
			st.markViolated(int32(ci))
		}
	}
	clear(st.hardDelta)
	for ci := range st.p.Clauses {
		if st.hard[ci] {
			st.tallyHard(int32(ci), 1)
		}
	}
	for guard := 0; len(st.violHard) > 0 && guard < 4*len(st.p.Clauses); guard++ {
		v := st.bestVarInClause(st.violHard[0], 0)
		st.flip(v)
	}
}

func (st *localState) markViolated(ci int32) {
	if st.hard[ci] {
		st.violHardPos[ci] = int32(len(st.violHard))
		st.violHard = append(st.violHard, ci)
	} else {
		st.cost += st.p.Clauses[ci].Weight
		st.violSoftPos[ci] = int32(len(st.violSoft))
		st.violSoft = append(st.violSoft, ci)
	}
}

func (st *localState) unmarkViolated(ci int32) {
	if st.hard[ci] {
		pos := st.violHardPos[ci]
		last := st.violHard[len(st.violHard)-1]
		st.violHard[pos] = last
		st.violHardPos[last] = pos
		st.violHard = st.violHard[:len(st.violHard)-1]
		st.violHardPos[ci] = -1
	} else {
		st.cost -= st.p.Clauses[ci].Weight
		pos := st.violSoftPos[ci]
		last := st.violSoft[len(st.violSoft)-1]
		st.violSoft[pos] = last
		st.violSoftPos[last] = pos
		st.violSoft = st.violSoft[:len(st.violSoft)-1]
		st.violSoftPos[ci] = -1
	}
}

// flip toggles variable v and updates clause state. Each of v's hard
// clauses takes its members' share of the hard deltas out before the
// toggle and puts it back after.
func (st *localState) flip(v int32) {
	for _, o := range st.occ[v] {
		if st.hard[o.clause] {
			st.tallyHard(o.clause, -1)
		}
	}
	newVal := !st.assign[v]
	st.assign[v] = newVal
	for _, o := range st.occ[v] {
		ci := o.clause
		was := st.numSat[ci]
		n := was + o.sat(newVal) - o.sat(!newVal)
		st.numSat[ci] = n
		if was > 0 && n == 0 {
			st.markViolated(ci)
		} else if was == 0 && n > 0 {
			st.unmarkViolated(ci)
		}
		if st.hard[ci] {
			st.tallyHard(ci, 1)
		}
	}
}

// tallyHard adds sign times hard clause ci's share of its members' hard
// deltas, read from the clause's current satisfied count: a member whose
// flip would take that count to zero breaks the clause, and one whose
// flip would lift it from zero repairs it.
func (st *localState) tallyHard(ci int32, sign int32) {
	was := st.numSat[ci]
	for _, m := range st.hardOcc.clause(ci) {
		val := st.assign[m.v]
		n := was - m.sat(val) + m.sat(!val)
		if was > 0 && n == 0 {
			st.hardDelta[m.v] += sign
		} else if was == 0 && n > 0 {
			st.hardDelta[m.v] -= sign
		}
	}
}

// costDelta scores flipping v on the soft clauses: the change in
// violated soft weight, summed in occurrence order.
func (st *localState) costDelta(v int32) float64 {
	val := st.assign[v]
	delta := 0.0
	for _, o := range st.occ[v] {
		ci := o.clause
		if st.hard[ci] {
			continue
		}
		was := st.numSat[ci]
		n := was - o.sat(val) + o.sat(!val)
		if was > 0 && n == 0 {
			delta += st.p.Clauses[ci].Weight
		} else if was == 0 && n > 0 {
			delta -= st.p.Clauses[ci].Weight
		}
	}
	return delta
}

// bestVarInClause picks the variable of clause ci whose flip is least
// damaging (lexicographic on hard delta then cost delta, the first such
// literal on ties), or, with noise probability, a random variable of the
// clause. Cost deltas are computed only when several variables share the
// least hard delta.
func (st *localState) bestVarInClause(ci int32, noise float64) int32 {
	c := &st.p.Clauses[ci]
	if noise > 0 && st.rng.Float64() < noise {
		return c.Lits[st.rng.Intn(len(c.Lits))].Var
	}
	v := c.Lits[0].Var
	least, tie := st.hardDelta[v], false
	for _, l := range c.Lits[1:] {
		if hd := st.hardDelta[l.Var]; hd < least {
			v, least, tie = l.Var, hd, false
		} else if hd == least && l.Var != v {
			tie = true
		}
	}
	if !tie {
		return v
	}
	best := math.Inf(1)
	for _, l := range c.Lits {
		if st.hardDelta[l.Var] != least {
			continue
		}
		if cd := st.costDelta(l.Var); cd < best {
			v, best = l.Var, cd
		}
	}
	return v
}

// walk runs the WalkSAT loop, updating best in place. With stall > 0 it
// exits once a feasible best has gone stall flips without improvement.
func (st *localState) walk(maxFlips int, noise float64, best *Solution, stall int) int {
	flips := 0
	sinceImprove := 0
	for ; flips < maxFlips; flips++ {
		if stall > 0 && best.HardSatisfied {
			if sinceImprove++; sinceImprove > stall {
				return flips
			}
		}
		if len(st.violHard) == 0 {
			// Feasible: record if better.
			if !best.HardSatisfied || st.cost < best.Cost {
				best.HardSatisfied = true
				best.Cost = st.cost
				best.Assignment = append(best.Assignment[:0], st.assign...)
				sinceImprove = 0
			}
			if len(st.violSoft) == 0 {
				return flips // all clauses satisfied
			}
			ci := st.violSoft[st.rng.Intn(len(st.violSoft))]
			v := st.bestVarInClause(ci, noise)
			if hd := st.hardDelta[v]; hd > 0 || st.costDelta(v) >= 0 {
				// Flip would break feasibility or not improve: mostly skip,
				// occasionally take it to escape local optima.
				if st.rng.Float64() > noise {
					continue
				}
				if hd > 0 && st.rng.Float64() > 0.25 {
					continue
				}
			}
			st.flip(v)
			continue
		}
		v := st.bestVarInClause(st.violHard[st.rng.Intn(len(st.violHard))], noise)
		st.flip(v)
	}
	return flips
}
