// Package psl implements MAP inference for hinge-loss Markov random
// fields — the nPSL side of TeCoRe: Probabilistic Soft Logic extended
// with the numerical/temporal conditions evaluated at grounding time.
//
// Ground clauses from the grounding engine are relaxed with the
// Łukasiewicz t-norm into hinge-loss potentials over variables in [0,1];
// evidence atoms get quadratic priors pulling them toward their
// confidence. MAP is the convex minimisation of the total loss, solved
// with consensus ADMM using the standard closed-form proximal steps.
// The soft optimum is discretised at a threshold and a greedy repair pass
// restores any hard constraint the rounding broke — PSL "trades
// expressiveness for scalability" by approximating the discrete MAP
// state, exactly as the paper describes.
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
	// Rho is the ADMM penalty parameter (default 1).
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
	// Parallelism bounds the worker pools used for grounding and for
	// running the per-component ADMM problems concurrently: 0 means
	// GOMAXPROCS, 1 forces the sequential path. The MAP state is
	// identical at every setting.
	Parallelism int
	// Deprecated: ignored — every MLN/PSL solve is component-decomposed; kept only until bench/ can be edited
	ComponentSolve bool
}

func (o Options) withDefaults() Options {
	if o.Rho == 0 {
		o.Rho = 1
	}
	if o.MaxIter == 0 {
		o.MaxIter = 2500
	}
	if o.Eps == 0 {
		o.Eps = 1e-4
	}
	if o.EvidenceWeight == 0 {
		o.EvidenceWeight = 5
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

// clauseToHinge relaxes a ground disjunction l1 ∨ ... ∨ lk with the
// Łukasiewicz t-conorm: distance to satisfaction
//
//	max(0, 1 - Σ_pos x_i - Σ_neg (1 - x_j))
//
// which in linear form is max(0, cᵀx + d) with c_i = -1 for positive
// literals, +1 for negated ones, and d = 1 - #negated.
func clauseToHinge(c ground.Clause, opts Options) hinge {
	h := hinge{
		vars: make([]int32, len(c.Lits)),
		coef: make([]float64, len(c.Lits)),
		rule: c.Rule,
	}
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
func runADMM(n int, target, priorW []float64, potentials []hinge, opts Options, warm *admmInit) (res *Result, zOut, uOut [][]float64) {
	x := make([]float64, n)
	if warm != nil {
		copy(x, warm.x)
	} else {
		copy(x, target)
	}

	// Local copies and duals per potential, warm-seeded when available.
	z := make([][]float64, len(potentials))
	u := make([][]float64, len(potentials))
	deg := make([]float64, n)
	for k, h := range potentials {
		z[k] = make([]float64, len(h.vars))
		u[k] = make([]float64, len(h.vars))
		if warm != nil && warm.z[k] != nil {
			copy(z[k], warm.z[k])
		} else {
			for i, v := range h.vars {
				z[k][i] = x[v]
			}
		}
		if warm != nil && warm.u[k] != nil {
			copy(u[k], warm.u[k])
		}
		for _, v := range h.vars {
			deg[v]++
		}
	}
	// Reverse adjacency for the consensus gather: the (potential, slot)
	// pairs touching each variable, in potential order — the same
	// accumulation order as a sequential scatter.
	type slot struct{ k, i int32 }
	varPot := make([][]slot, n)
	for k, h := range potentials {
		for i, v := range h.vars {
			varPot[v] = append(varPot[v], slot{k: int32(k), i: int32(i)})
		}
	}
	rho := opts.Rho
	xPrev := make([]float64, n)
	res = &Result{}

	for iter := 1; iter <= opts.MaxIter; iter++ {
		// z-step: proximal update per potential.
		for k := range potentials {
			h := &potentials[k]
			vloc := z[k] // reuse storage for v = x - u
			for i, vi := range h.vars {
				vloc[i] = x[vi] - u[k][i]
			}
			proxHinge(h, vloc, rho)
		}

		// x-step: average local copies + duals, fold in the quadratic
		// prior, clamp to [0,1].
		copy(xPrev, x)
		for v := 0; v < n; v++ {
			// argmin_x priorW (x-target)² + (ρ/2) Σ_k (x - (z+u))² =
			// (2·priorW·target + ρ·Σ(z+u)) / (2·priorW + ρ·deg)
			den := 2*priorW[v] + rho*deg[v]
			if den == 0 {
				continue
			}
			sum := 0.0
			for _, s := range varPot[v] {
				sum += z[s.k][s.i] + u[s.k][s.i]
			}
			xv := (2*priorW[v]*target[v] + rho*sum) / den
			x[v] = clamp01(xv)
		}

		// u-step: per-potential dual updates, accumulating the primal
		// residual one per-potential partial at a time.
		var primal, dual float64
		for k := range potentials {
			h := &potentials[k]
			pk := 0.0
			for i, vi := range h.vars {
				diff := z[k][i] - x[vi]
				u[k][i] += diff
				pk += diff * diff
			}
			primal += pk
		}
		for v := 0; v < n; v++ {
			d := x[v] - xPrev[v]
			dual += d * d * deg[v]
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
	return res, z, u
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

func discretize(values []float64, threshold float64) []bool {
	out := make([]bool, len(values))
	for i, v := range values {
		out[i] = v >= threshold
	}
	return out
}

// repairHard restores violated hard potentials after rounding: while a
// hard ground clause is violated, flip the literal whose soft value sits
// closest to satisfying it (for a disjointness constraint this drops the
// atom PSL was least sure about). Returns the number of flips.
func repairHard(truth []bool, values []float64, potentials []hinge) int {
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
			bestI, bestGap := -1, math.Inf(1)
			for i, vi := range h.vars {
				var gap float64
				if h.coef[i] < 0 {
					gap = 1 - values[vi] // needs atom true
				} else {
					gap = values[vi] // needs atom false
				}
				if gap < bestGap {
					bestI, bestGap = i, gap
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
