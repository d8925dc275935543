// Package psl implements MAP inference for hinge-loss Markov random
// fields — the nPSL side of TeCoRe: Probabilistic Soft Logic extended
// with the numerical/temporal conditions evaluated at grounding time.
//
// Ground clauses from the grounding engine are relaxed with the
// Łukasiewicz t-norm into hinge-loss potentials over variables in [0,1];
// evidence atoms get quadratic priors pulling them toward their
// confidence. MAP is the convex minimisation of the total loss, solved
// with consensus ADMM using the standard closed-form proximal steps
// (Bach et al., "Hinge-Loss Markov Random Fields and Probabilistic Soft
// Logic", JMLR 2017). The penalty defaults to the curvature of the
// evidence priors, ρ = 2·EvidenceWeight (Boyd et al., "Distributed
// Optimization and Statistical Learning via ADMM", §3.3–3.4): at ρ = 1
// the priors dominate the consensus coupling and a six-atom component
// takes hundreds of sweeps, at the matched penalty a few dozen.
// The soft optimum is discretised at a threshold and a greedy repair pass
// restores any hard constraint the rounding broke — PSL "trades
// expressiveness for scalability" by approximating the discrete MAP
// state, exactly as the paper describes. Rounding and repair read the
// soft values on a grid of a few tolerances (see tieBand), so the
// discrete state is a function of the optimum, not of where ADMM stopped
// short of it: a warm-started solve rounds as a cold one does.
//
// # Concurrency model
//
// The objective decomposes exactly across the conflict components of the
// ground network (see components.go), so ADMM runs once per component
// and the worker pool parallelises across components; each component's
// sweeps are sequential with a fixed floating-point order. The converged
// values — and therefore the discretised MAP state — are bitwise
// identical at every Options.Parallelism setting.
package psl

import (
	"math"
	"time"

	"repro/internal/ground"
)

// Options tunes ADMM and the discretisation.
type Options struct {
	// Rho is the ADMM penalty parameter (default 2·EvidenceWeight, the
	// curvature of an evidence prior, which balances the consensus
	// coupling against the priors; the discrete answer does not depend
	// on it beyond optima on a rounding band's edge).
	Rho float64
	// MaxIter bounds ADMM iterations (default 2500).
	MaxIter int
	// Eps is the residual convergence tolerance (default 1e-4).
	Eps float64
	// EvidenceWeight scales the quadratic prior pulling evidence atoms
	// toward their confidence (default 5).
	EvidenceWeight float64
	// KeepBias is added to every evidence atom's prior target so that
	// asserted facts at the rounding boundary (confidence 0.5) survive
	// unless genuinely pushed out — the same device the MLN backend uses
	// (default 0.05).
	KeepBias float64
	// DerivedWeight scales the quadratic prior pulling derived atoms
	// toward 0 (default 0.5).
	DerivedWeight float64
	// HardWeight substitutes for infinite clause weights in the convex
	// relaxation (default 50).
	HardWeight float64
	// Squared selects squared hinges for soft rule potentials, PSL's
	// default loss (hard potentials always use linear hinges).
	Squared bool
	// Threshold discretises the soft truth values (default 0.5).
	Threshold float64
	// Parallelism bounds the worker pool running the per-component ADMM
	// problems concurrently: 0 means GOMAXPROCS, 1 forces the sequential
	// path. The grounder's own width is its caller's (Grounder.
	// Parallelism). The MAP state is identical at every setting.
	Parallelism int
	// Deprecated: ignored — every MLN/PSL solve is component-decomposed; kept only until bench/ can be edited
	ComponentSolve bool
}

func (o Options) withDefaults() Options {
	if o.MaxIter == 0 {
		o.MaxIter = 2500
	}
	if o.Eps == 0 {
		o.Eps = 1e-4
	}
	if o.EvidenceWeight == 0 {
		o.EvidenceWeight = 5
	}
	if o.Rho == 0 {
		o.Rho = 2 * o.EvidenceWeight
	}
	if o.KeepBias == 0 {
		o.KeepBias = 0.05
	}
	if o.DerivedWeight == 0 {
		o.DerivedWeight = 0.5
	}
	if o.HardWeight == 0 {
		o.HardWeight = 50
	}
	if o.Threshold == 0 {
		o.Threshold = 0.5
	}
	return o
}

// Result is the inferred soft state and its discretisation.
type Result struct {
	// Values holds the converged soft truth value of every atom.
	Values []float64
	// Truth is the discretised, hard-repaired boolean state.
	Truth []bool
	// Iterations is the number of ADMM sweeps performed.
	Iterations int
	// Converged reports whether residuals fell below Eps before MaxIter.
	Converged bool
	// PrimalResidual and DualResidual are the final residual norms.
	PrimalResidual float64
	DualResidual   float64
	// RepairFlips counts atoms flipped by the hard-constraint repair
	// pass after discretisation.
	RepairFlips int
	// Potentials is the number of hinge potentials in the ground HL-MRF.
	Potentials int
	// Runtime is the wall-clock inference time.
	Runtime time.Duration
	// Components summarises the component-decomposed solve. Iterations
	// and the residual norms report the worst component re-run this solve
	// (cached components run zero sweeps).
	Components *ground.ComponentStats
	// TruthDelta reports that Values and Truth were produced under the
	// plan's change-set scope (see engine.Run): every atom outside the
	// scoped components carries the previous solve's soft value and truth
	// bit-for-bit.
	TruthDelta bool
}

// TrueAtom reports the discretised truth of an atom.
func (r *Result) TrueAtom(id ground.AtomID) bool { return r.Truth[id] }

// hinge is a potential w * max(0, cᵀz + d), squared when sq is set.
type hinge struct {
	vars []int32
	coef []float64
	d    float64
	w    float64
	sq   bool
	hard bool
	rule string
}

// Warm carries one solve's ADMM state for warm-starting the next: the
// soft values and discrete truth by atom id plus each potential's local
// copy and scaled dual, indexed by its stable clause-set slot. Atom ids
// and slots survive incremental updates, so on a near-unchanged instance
// the restarted ADMM begins at (x*, z*, u*) of a neighbouring problem
// and converges in a handful of sweeps instead of hundreds.
//
// MAPGroundComponents maintains the iterate tables in place: a solve
// replaces only the slots of the components it re-solved or retired, so
// the Warm it returns is the one it was handed, and the previous Values
// and Truth (which the previous Result shares) are never written.
type Warm struct {
	// Values are the soft values by atom id; Truth is their discretised,
	// hard-repaired state.
	Values []float64
	Truth  []bool
	// Z and U hold each potential's local copy and scaled dual vector by
	// clause-set slot: non-nil exactly for the live clauses of the
	// components the last solve left in its plan.
	Z, U [][]float64
}

// admmInit seeds runADMM from a previous solve's iterates. Nil entries
// in z/u fall back to the cold defaults (z = x, u = 0).
type admmInit struct {
	x    []float64
	z, u [][]float64
}

// toHinges relaxes a component's ground clauses into its potentials,
// whose variable and coefficient lists share one block each.
func toHinges(clauses []ground.Clause, opts Options) []hinge {
	m := 0
	for _, c := range clauses {
		m += len(c.Lits)
	}
	vars, coef := make([]int32, m), make([]float64, m)
	pots := make([]hinge, len(clauses))
	for k, c := range clauses {
		l := len(c.Lits)
		pots[k] = clauseToHinge(c, opts, vars[:l:l], coef[:l:l])
		vars, coef = vars[l:], coef[l:]
	}
	return pots
}

// clauseToHinge relaxes a ground disjunction l1 ∨ ... ∨ lk with the
// Łukasiewicz t-conorm: distance to satisfaction
//
//	max(0, 1 - Σ_pos x_i - Σ_neg (1 - x_j))
//
// which in linear form is max(0, cᵀx + d) with c_i = -1 for positive
// literals, +1 for negated ones, and d = 1 - #negated. vars and coef
// are the potential's storage, one entry per literal.
func clauseToHinge(c ground.Clause, opts Options, vars []int32, coef []float64) hinge {
	h := hinge{vars: vars, coef: coef, rule: c.Rule}
	negs := 0
	for i, l := range c.Lits {
		h.vars[i] = int32(l.Atom)
		if l.Neg {
			h.coef[i] = 1
			negs++
		} else {
			h.coef[i] = -1
		}
	}
	h.d = 1 - float64(negs)
	if c.Hard() {
		h.w = opts.HardWeight
		h.hard = true
	} else {
		h.w = c.Weight
		h.sq = opts.Squared
	}
	return h
}

// runADMM performs consensus ADMM over the hinge potentials plus
// per-atom quadratic priors (which act directly in the consensus update
// since they are separable). The sweeps are sequential — the caller's
// pool parallelises across components — and every floating-point
// reduction keeps a fixed order (per-variable gathers in potential
// order), so the iterates depend only on the inputs.
//
// Every potential's local copy and scaled dual live in one flat block,
// potential after potential; the returned per-potential slices are views
// into it. The consensus gather reads the block through a CSR index: the
// flat positions touching variable v are gather[start[v]:start[v+1]], in
// potential order.
func runADMM(n int, target, priorW []float64, potentials []hinge, opts Options, warm *admmInit) (res *Result, zOut, uOut [][]float64) {
	m := 0
	for k := range potentials {
		m += len(potentials[k].vars)
	}
	x := make([]float64, n)
	if warm != nil {
		copy(x, warm.x)
	} else {
		copy(x, target)
	}
	zu := make([]float64, 2*m)
	z, u := zu[:m:m], zu[m:]
	views := make([][]float64, 2*len(potentials))
	zOut, uOut = views[:len(potentials):len(potentials)], views[len(potentials):]
	idx := make([]int32, 2*n+1+m)
	start, fill, gather := idx[:n+1:n+1], idx[n+1:2*n+1:2*n+1], idx[2*n+1:]
	off := 0
	for k := range potentials {
		h := &potentials[k]
		end := off + len(h.vars)
		zk, uk := z[off:end:end], u[off:end:end]
		zOut[k], uOut[k] = zk, uk
		if warm != nil && warm.z[k] != nil {
			copy(zk, warm.z[k])
		} else {
			for i, v := range h.vars {
				zk[i] = x[v]
			}
		}
		if warm != nil && warm.u[k] != nil {
			copy(uk, warm.u[k])
		}
		for _, v := range h.vars {
			start[v+1]++
		}
		off = end
	}
	for v := 0; v < n; v++ {
		start[v+1] += start[v]
	}
	copy(fill, start[:n])
	off = 0
	for k := range potentials {
		for _, v := range potentials[k].vars {
			gather[fill[v]] = int32(off)
			fill[v]++
			off++
		}
	}
	rho := opts.Rho
	xPrev := make([]float64, n)
	res = &Result{}

	for iter := 1; iter <= opts.MaxIter; iter++ {
		// z-step: proximal update per potential, in place of v = x - u.
		off = 0
		for k := range potentials {
			h := &potentials[k]
			end := off + len(h.vars)
			zk, uk := z[off:end:end], u[off:end:end]
			for i, vi := range h.vars {
				zk[i] = x[vi] - uk[i]
			}
			proxHinge(h, zk, rho)
			off = end
		}

		// x-step: average local copies + duals, fold in the quadratic
		// prior, clamp to [0,1].
		copy(xPrev, x)
		for v := 0; v < n; v++ {
			// argmin_x priorW (x-target)² + (ρ/2) Σ_k (x - (z+u))² =
			// (2·priorW·target + ρ·Σ(z+u)) / (2·priorW + ρ·deg)
			lo, hi := start[v], start[v+1]
			den := 2*priorW[v] + rho*float64(hi-lo)
			if den == 0 {
				continue
			}
			sum := 0.0
			for _, p := range gather[lo:hi] {
				sum += z[p] + u[p]
			}
			xv := (2*priorW[v]*target[v] + rho*sum) / den
			x[v] = clamp01(xv)
		}

		// u-step: per-potential dual updates, accumulating the primal
		// residual one per-potential partial at a time.
		var primal, dual float64
		off = 0
		for k := range potentials {
			h := &potentials[k]
			end := off + len(h.vars)
			zk, uk := z[off:end:end], u[off:end:end]
			pk := 0.0
			for i, vi := range h.vars {
				diff := zk[i] - x[vi]
				uk[i] += diff
				pk += diff * diff
			}
			primal += pk
			off = end
		}
		for v := 0; v < n; v++ {
			d := x[v] - xPrev[v]
			dual += d * d * float64(start[v+1]-start[v])
		}
		res.Iterations = iter
		res.PrimalResidual = math.Sqrt(primal)
		res.DualResidual = rho * math.Sqrt(dual)
		if res.PrimalResidual < opts.Eps && res.DualResidual < opts.Eps {
			res.Converged = true
			break
		}
	}
	res.Values = x
	return res, zOut, uOut
}

// proxHinge computes argmin_z w·hinge(cᵀz+d) + (ρ/2)||z-v||² in place.
func proxHinge(h *hinge, v []float64, rho float64) {
	cv := h.d
	cc := 0.0
	for i := range h.coef {
		cv += h.coef[i] * v[i]
		cc += h.coef[i] * h.coef[i]
	}
	if cv <= 0 {
		return // hinge inactive at v: z = v
	}
	if h.sq {
		// Squared hinge: z = v - (2w·cv / (ρ + 2w·cc)) c.
		step := 2 * h.w * cv / (rho + 2*h.w*cc)
		for i := range v {
			v[i] -= step * h.coef[i]
		}
		return
	}
	// Linear hinge: either the full step keeps the hinge active side
	// nonnegative, or project onto the hyperplane cᵀz + d = 0.
	step := h.w / rho
	if cv-step*cc >= 0 {
		for i := range v {
			v[i] -= step * h.coef[i]
		}
		return
	}
	proj := cv / cc
	for i := range v {
		v[i] -= proj * h.coef[i]
	}
}

// discretize rounds the soft values: an atom is true at or above the
// threshold, where anything within tieBand·eps below it counts as at it.
func discretize(values []float64, threshold, eps float64) []bool {
	cut := threshold - tieBand*eps
	out := make([]bool, len(values))
	for i, v := range values {
		out[i] = v >= cut
	}
	return out
}

// tieBand is how far, in multiples of the convergence tolerance, two
// soft values may sit apart and still be the same optimum for rounding.
// ADMM stops within about one tolerance of the unique optimum, and where
// inside that ball depends on where it started (cold, or warm from the
// previous solve's iterates); a band ten times wider makes the discrete
// answer a function of the optimum alone, except for optima that fall
// on a band's edge.
const tieBand = 10

// repairHard restores violated hard potentials after rounding: while a
// hard ground clause is violated, flip the literal whose soft value sits
// closest to satisfying it (for a disjointness constraint this drops the
// atom PSL was least sure about). Returns the number of flips.
//
// Gaps are compared on a grid of 2·tieBand·eps, with cells centred on
// gap 0.5 — where a clique of equally confident exclusive facts puts
// every member — so gaps that differ by stopping noise compare equal.
// Equal gaps flip the literal whose flip costs its prior least: the
// less confident fact is dropped (target is the prior target), the more
// confident one asserted. Literal order breaks any remaining tie.
func repairHard(truth []bool, values, target []float64, potentials []hinge, eps float64) int {
	grid := 2 * tieBand * eps
	flips := 0
	maxPasses := 4 * len(potentials)
	for pass := 0; pass < maxPasses; pass++ {
		fixed := false
		for k := range potentials {
			h := &potentials[k]
			if !h.hard || hingeSatisfied(h, truth) {
				continue
			}
			// Violated: every literal false. Flip the one closest to true.
			bestI, bestGap, bestCost := -1, math.Inf(1), math.Inf(1)
			for i, vi := range h.vars {
				gap, cost := values[vi], target[vi] // needs atom false
				if h.coef[i] < 0 {
					gap, cost = 1-values[vi], 1-target[vi] // needs atom true
				}
				gap = math.Round((gap - 0.5) / grid)
				if gap < bestGap || gap == bestGap && cost < bestCost {
					bestI, bestGap, bestCost = i, gap, cost
				}
			}
			vi := h.vars[bestI]
			truth[vi] = h.coef[bestI] < 0
			flips++
			fixed = true
		}
		if !fixed {
			return flips
		}
	}
	return flips
}

// hingeSatisfied interprets the potential as its originating clause and
// checks boolean satisfaction: a clause literal is satisfied when a
// positive (coef -1) atom is true or a negated (coef +1) atom is false.
func hingeSatisfied(h *hinge, truth []bool) bool {
	for i, vi := range h.vars {
		if (h.coef[i] < 0) == truth[vi] {
			return true
		}
	}
	return false
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
