package maxsat

import "math"

// Exact engine: depth-first branch and bound over the variables with unit
// propagation on hard clauses and incremental violated-cost accounting.
// Solve runs it on the problems bucket elimination refuses that have at
// most exactVarLimit variables: cliques of facts too wide for the
// elimination tables, and problems whose hard clauses are unsatisfiable.

type exactState struct {
	p        *Problem
	occ      [][]occurrence // shared with local search (buildOcc)
	assign   []int8         // -1 unassigned, 0 false, 1 true
	satCnt   []int32        // per clause: satisfied literal count
	unasCnt  []int32        // per clause: unassigned literal count
	cost     float64        // violated soft weight so far
	best     []bool
	bestCost float64
	// bound is a warm-start upper bound on the optimal cost (+Inf when
	// cold). Pruning against it is strict (cost > bound), so subtrees
	// containing optimal-cost leaves are never cut and the first optimal
	// leaf in DFS order — the same one a cold search accepts — is still
	// reached. The warm start only shrinks the search, never the answer.
	bound    float64
	feasible bool
	nodes    int
	limit    int
	order    []int32 // branching order (by occurrence count desc)
	bias     []float64
}

// solveExact returns the optimal solution and true, or a partial result
// and false when the node limit was exhausted.
func solveExact(p *Problem, opts Options) (*Solution, bool) {
	st := &exactState{
		p:        p,
		occ:      buildOcc(p),
		assign:   make([]int8, p.NumVars),
		satCnt:   make([]int32, len(p.Clauses)),
		unasCnt:  make([]int32, len(p.Clauses)),
		bestCost: math.Inf(1),
		bound:    math.Inf(1),
		limit:    opts.NodeLimit,
		bias:     unitBias(p),
	}
	if len(opts.Warm) == p.NumVars {
		if hv, cost := Evaluate(p, opts.Warm); hv == 0 {
			// Slack absorbs the rounding difference between Evaluate's
			// straight sum and the search's incremental accounting; the
			// bound stays a valid upper bound, so pruning remains exact.
			st.bound = cost + 1e-9*(1+math.Abs(cost))
		}
	}
	for i := range st.assign {
		st.assign[i] = -1
	}
	counts := make([]int32, p.NumVars) // literals per variable
	for v, os := range st.occ {
		for _, o := range os {
			counts[v] += o.pos + o.neg
			st.unasCnt[o.clause] += o.pos + o.neg
		}
	}
	st.order = make([]int32, p.NumVars)
	for i := range st.order {
		st.order[i] = int32(i)
	}
	// Sort by occurrence count descending (simple insertion; n is small).
	for i := 1; i < len(st.order); i++ {
		for j := i; j > 0 && counts[st.order[j]] > counts[st.order[j-1]]; j-- {
			st.order[j], st.order[j-1] = st.order[j-1], st.order[j]
		}
	}

	complete := st.search()
	if !st.feasible {
		// No feasible assignment found: hard clauses unsatisfiable (if the
		// search completed) or limit hit. Report the all-false assignment.
		assign := make([]bool, p.NumVars)
		hv, cost := Evaluate(p, assign)
		return &Solution{Assignment: assign, Cost: cost, HardSatisfied: hv == 0, Nodes: st.nodes}, complete
	}
	hv, cost := Evaluate(p, st.best)
	return &Solution{
		Assignment:    st.best,
		Cost:          cost,
		HardSatisfied: hv == 0,
		Optimal:       complete,
		Nodes:         st.nodes,
	}, complete
}

// assignVar sets v to val, updating clause counters. It returns the cost
// delta and whether a hard clause became violated (conflict).
func (st *exactState) assignVar(v int32, val int8) (delta float64, conflict bool) {
	st.assign[v] = val
	for _, o := range st.occ[v] {
		ci := o.clause
		st.satCnt[ci] += o.sat(val == 1)
		st.unasCnt[ci] -= o.pos + o.neg
		if st.satCnt[ci] == 0 && st.unasCnt[ci] == 0 {
			if c := &st.p.Clauses[ci]; c.Hard() {
				conflict = true
			} else {
				delta += c.Weight
			}
		}
	}
	st.cost += delta
	return delta, conflict
}

func (st *exactState) unassignVar(v int32, val int8, delta float64) {
	for _, o := range st.occ[v] {
		st.satCnt[o.clause] -= o.sat(val == 1)
		st.unasCnt[o.clause] += o.pos + o.neg
	}
	st.cost -= delta
	st.assign[v] = -1
}

// propagate applies unit propagation over hard clauses. It returns the
// list of (var, delta) assignments made and whether a conflict arose.
type propEntry struct {
	v     int32
	val   int8
	delta float64
}

func (st *exactState) propagate() (trail []propEntry, conflict bool) {
	for {
		forced := int32(-1)
		var forcedVal int8
		for ci, c := range st.p.Clauses {
			if !c.Hard() || st.satCnt[ci] > 0 || st.unasCnt[ci] != 1 {
				continue
			}
			for _, l := range c.Lits {
				if st.assign[l.Var] == -1 {
					forced = l.Var
					if l.Neg {
						forcedVal = 0
					} else {
						forcedVal = 1
					}
					break
				}
			}
			break
		}
		if forced < 0 {
			return trail, false
		}
		delta, conf := st.assignVar(forced, forcedVal)
		trail = append(trail, propEntry{forced, forcedVal, delta})
		if conf {
			return trail, true
		}
	}
}

func (st *exactState) undoTrail(trail []propEntry) {
	for i := len(trail) - 1; i >= 0; i-- {
		e := trail[i]
		st.unassignVar(e.v, e.val, e.delta)
	}
}

// search explores assignments; returns false when the node limit was hit.
func (st *exactState) search() bool {
	st.nodes++
	if st.nodes > st.limit {
		return false
	}
	if st.cost >= st.bestCost || st.cost > st.bound {
		return true // prune: cannot improve on the incumbent or the bound
	}
	trail, conflict := st.propagate()
	complete := true
	if !conflict && st.cost < st.bestCost && st.cost <= st.bound {
		v := st.pickVar()
		if v < 0 {
			// All assigned and feasible.
			st.bestCost = st.cost
			st.best = make([]bool, st.p.NumVars)
			for i, a := range st.assign {
				st.best[i] = a == 1
			}
			st.feasible = true
		} else {
			vals := [2]int8{1, 0}
			if st.bias[v] < 0 {
				vals = [2]int8{0, 1}
			}
			for _, val := range vals {
				delta, conf := st.assignVar(v, val)
				if !conf {
					if !st.search() {
						complete = false
					}
				}
				st.unassignVar(v, val, delta)
				if !complete {
					break
				}
			}
		}
	}
	st.undoTrail(trail)
	return complete
}

func (st *exactState) pickVar() int32 {
	for _, v := range st.order {
		if st.assign[v] == -1 {
			return v
		}
	}
	return -1
}
