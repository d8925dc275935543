package psl

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/ground"
	"repro/internal/kgen"
	"repro/internal/rulelang"
	"repro/internal/store"
)

// runADMMReference is the consensus ADMM kernel as it was written before
// the flat iterate block: one z and u slice per potential and a
// per-variable list of (potential, position) pairs for the consensus
// gather. It is kept only as the oracle runADMM must match bit for bit.
func runADMMReference(n int, target, priorW []float64, potentials []hinge, opts Options, warm *admmInit) (res *Result, zOut, uOut [][]float64) {
	x := make([]float64, n)
	if warm != nil {
		copy(x, warm.x)
	} else {
		copy(x, target)
	}
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
		for k := range potentials {
			h := &potentials[k]
			vloc := z[k]
			for i, vi := range h.vars {
				vloc[i] = x[vi] - u[k][i]
			}
			proxHinge(h, vloc, rho)
		}
		copy(xPrev, x)
		for v := 0; v < n; v++ {
			den := 2*priorW[v] + rho*deg[v]
			if den == 0 {
				continue
			}
			sum := 0.0
			for _, s := range varPot[v] {
				sum += z[s.k][s.i] + u[s.k][s.i]
			}
			x[v] = clamp01((2*priorW[v]*target[v] + rho*sum) / den)
		}
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

// TestFlatKernelMatchesReference: runADMM over its flat iterate block
// and CSR gather performs the reference kernel's floating-point
// operations in the reference's order, so values, iterates, sweep
// counts and residuals agree bit for bit — cold, warm-started from
// another solve's iterates, and stopped short by MaxIter — on every
// component of a clustered instance and of the bridged property pool.
func TestFlatKernelMatchesReference(t *testing.T) {
	type instance struct {
		st   *store.Store
		prog string
	}
	var insts []instance
	cl := store.New()
	if err := cl.AddGraph(kgen.Clustered(kgen.ClusteredConfig{Clusters: 60, BridgeRate: 0.3, Seed: 4}).Graph); err != nil {
		t.Fatal(err)
	}
	insts = append(insts, instance{cl, kgen.ClusteredProgram})
	for _, seed := range []int64{41, 97} {
		st := store.New()
		if err := st.AddGraph(componentPool(6, 3, seed)); err != nil {
			t.Fatal(err)
		}
		insts = append(insts, instance{st, componentProgram})
	}
	checked := 0
	for _, in := range insts {
		prog := rulelang.MustParse(in.prog)
		g := ground.New(in.st)
		if _, err := g.Close(prog); err != nil {
			t.Fatal(err)
		}
		cs, err := g.GroundProgram(prog)
		if err != nil {
			t.Fatal(err)
		}
		plan := engine.NewPlan(g.Atoms(), cs)
		for _, o := range []Options{{}, {Rho: 1, Squared: true}, {Rho: 3, MaxIter: 9}} {
			opts := o.withDefaults()
			for i := range plan.Comps {
				comp := &plan.Comps[i]
				pots, _ := hinges(plan, i, opts)
				target, priorW := priors(g.Atoms(), comp, opts)
				n := len(comp.Atoms)
				// Warm iterates from a different, starved solve.
				starved := opts
				starved.MaxIter = 5
				wres, wz, wu := runADMMReference(n, target, priorW, pots, starved, nil)
				warm := &admmInit{x: wres.Values, z: wz, u: wu}
				if len(wz) > 0 {
					warm.z[0] = nil // one potential starts cold
				}
				for _, init := range []*admmInit{nil, warm} {
					want, wantZ, wantU := runADMMReference(n, target, priorW, pots, opts, init)
					got, gotZ, gotU := runADMM(n, target, priorW, pots, opts, init)
					if err := sameKernel(got, want, gotZ, wantZ, gotU, wantU); err != nil {
						t.Fatalf("component %d (%d atoms, %d potentials, warm %v, opts %+v): %v",
							i, n, len(pots), init != nil, o, err)
					}
					checked++
				}
			}
		}
	}
	t.Logf("%d component solves bit-identical", checked)
}

func sameKernel(got, want *Result, gotZ, wantZ, gotU, wantU [][]float64) error {
	if got.Iterations != want.Iterations || got.Converged != want.Converged ||
		math.Float64bits(got.PrimalResidual) != math.Float64bits(want.PrimalResidual) ||
		math.Float64bits(got.DualResidual) != math.Float64bits(want.DualResidual) {
		return fmt.Errorf("sweeps %d converged %v residuals %g/%g, want %d %v %g/%g",
			got.Iterations, got.Converged, got.PrimalResidual, got.DualResidual,
			want.Iterations, want.Converged, want.PrimalResidual, want.DualResidual)
	}
	if err := sameBits("x", got.Values, want.Values); err != nil {
		return err
	}
	for k := range wantZ {
		if err := sameBits("z", gotZ[k], wantZ[k]); err != nil {
			return fmt.Errorf("potential %d: %v", k, err)
		}
		if err := sameBits("u", gotU[k], wantU[k]); err != nil {
			return fmt.Errorf("potential %d: %v", k, err)
		}
	}
	return nil
}

func sameBits(name string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d entries, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("%s[%d] = %v, want %v", name, i, got[i], want[i])
		}
	}
	return nil
}

// sweepsByComponent solves every component of a cold clustered instance
// with solveComponent and returns each one's ADMM sweep count and
// whether it converged.
func sweepsByComponent(t *testing.T, cfg kgen.ClusteredConfig, opts Options) (sweeps []int, unconverged int) {
	t.Helper()
	st := store.New()
	if err := st.AddGraph(kgen.Clustered(cfg).Graph); err != nil {
		t.Fatal(err)
	}
	prog := rulelang.MustParse(kgen.ClusteredProgram)
	g := ground.New(st)
	if _, err := g.Close(prog); err != nil {
		t.Fatal(err)
	}
	cs, err := g.GroundProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	opts = opts.withDefaults()
	plan := engine.NewPlan(g.Atoms(), cs)
	for i := range plan.Comps {
		pots, slots := hinges(plan, i, opts)
		e := solveComponent(g.Atoms(), &plan.Comps[i], pots, slots, opts, nil)
		sweeps = append(sweeps, e.iterations)
		if !e.converged {
			unconverged++
		}
	}
	return sweeps, unconverged
}

// TestSweepCountGate pins ADMM's convergence speed on a cold clustered
// instance (273 components of about 6 atoms): the count of sweeps is
// deterministic, so a penalty or kernel change that slows convergence
// fails here rather than only in a timing. With the default penalty
// ρ = 2·EvidenceWeight the components take 11,298 sweeps in total
// (median 35); at ρ = 1 they took 88,080 (median 276), at ρ = 5 18,335.
func TestSweepCountGate(t *testing.T) {
	const gate = 14000
	sweeps, unconverged := sweepsByComponent(t, kgen.ClusteredConfig{Clusters: 300, BridgeRate: 0.1, Seed: 4}, Options{})
	total := 0
	for _, s := range sweeps {
		total += s
	}
	t.Logf("%d components, %d sweeps, %d unconverged", len(sweeps), total, unconverged)
	if unconverged > 0 {
		t.Errorf("%d components stopped at MaxIter", unconverged)
	}
	if total > gate {
		t.Errorf("%d sweeps over %d components, gate %d", total, len(sweeps), gate)
	}
}
