package psl

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/ground"
	"repro/internal/logic"
	"repro/internal/rulelang"
	"repro/internal/store"
)

// pipeline is the session engine's PSL path in miniature: a grounder and
// clause set kept alive across solves and reconciled with the store's
// delta, and — when planner is non-nil — a maintained plan, so that
// consecutive solves run under the change-set scope. Without a planner
// every solve gets a fresh engine.NewPlan, whose scope is every
// component.
type pipeline struct {
	st      *store.Store
	prog    *logic.Program
	g       *ground.Grounder
	cs      *ground.ClauseSet
	epoch   store.Epoch
	planner *engine.Planner
	cache   *ComponentCache
	plan    *engine.Plan
}

func newPipeline(t *testing.T, st *store.Store, prog *logic.Program, maintained bool) *pipeline {
	t.Helper()
	p := &pipeline{st: st, prog: prog, g: ground.New(st), epoch: st.Epoch(), cache: NewComponentCache()}
	p.g.Parallelism = 1
	if _, err := p.g.Close(prog); err != nil {
		t.Fatal(err)
	}
	cs, err := p.g.GroundProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	p.cs = cs
	if maintained {
		p.planner = engine.NewPlanner()
	}
	return p
}

// solve reconciles the engine with the store and runs the ADMM kernel.
func (p *pipeline) solve(t *testing.T, opts Options, warm *Warm) (*Result, *Warm) {
	t.Helper()
	if d := p.st.DeltaSince(p.epoch); !d.Empty() {
		if err := p.g.RetractFacts(p.cs, d.Removed); err != nil {
			t.Fatal(err)
		}
		delta := p.g.ApplyUpdates(p.cs, d.Added, d.Updated)
		derived, err := p.g.CloseDelta(p.prog, p.cs, delta)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.g.GroundDelta(p.prog, p.cs, append(delta, derived...)); err != nil {
			t.Fatal(err)
		}
		p.epoch = p.st.Epoch()
	}
	if p.planner != nil {
		p.plan, _ = p.planner.Sync(p.g.Atoms(), p.cs)
	} else {
		p.plan = engine.NewPlan(p.g.Atoms(), p.cs)
	}
	res, next, err := MAPGroundComponents(p.g, p.cs, opts, warm, p.cache, p.plan)
	if err != nil {
		t.Fatal(err)
	}
	return res, next
}

// rebuiltWarm is the warm state by its definition: the solve's values
// and truth, and iterate tables assembled from scratch out of every
// current component's cached record.
func (p *pipeline) rebuiltWarm(t *testing.T, res *Result) *Warm {
	t.Helper()
	w := &Warm{
		Values: res.Values, Truth: res.Truth,
		Z: make([][]float64, p.cs.SlotCount()), U: make([][]float64, p.cs.SlotCount()),
	}
	for i := range p.plan.Comps {
		e, ok := p.cache.comps.Lookup(&p.plan.Comps[i])
		if !ok {
			t.Fatalf("component %d holds no current record after the solve", p.plan.Comps[i].Key)
		}
		w.setSlots(&e)
	}
	return w
}

// sameTable reports the first slot at which two iterate tables differ:
// one nil and the other not, or two different slices.
func sameTable(got, want [][]float64) error {
	n := max(len(got), len(want))
	at := func(t [][]float64, s int) []float64 {
		if s < len(t) {
			return t[s]
		}
		return nil
	}
	for s := 0; s < n; s++ {
		a, b := at(got, s), at(want, s)
		if (a == nil) != (b == nil) {
			return fmt.Errorf("slot %d: in-place entry present %v, rebuilt %v", s, a != nil, b != nil)
		}
		if a != nil && (len(a) != len(b) || &a[0] != &b[0]) {
			return fmt.Errorf("slot %d: in-place and rebuilt entries are different slices", s)
		}
	}
	return nil
}

// TestWarmIteratesMatchRebuild is the oracle for the in-place warm
// state. A maintained pipeline runs random add/remove/solve steps under
// the change-set scope; after every solve its iterate tables must equal
// a from-scratch rebuild out of every current component's cached record
// (same slots present, same slices), and its answer must be bit-identical
// to a shadow pipeline over the same store that runs the all-component
// pass on a fresh plan and is handed the rebuilt warm state every time.
// The random toggles retract facts and assert them again, so groundings
// are tombstoned and revived in their old slots; a starved iteration
// budget keeps unconverged components in the cache, forcing the
// all-component scope on the maintained side too.
func TestWarmIteratesMatchRebuild(t *testing.T) {
	prog := rulelang.MustParse(componentProgram)
	for _, tc := range []struct {
		name    string
		maxIter int
	}{{"converged", 0}, {"starved", 8}} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{MaxIter: tc.maxIter, Parallelism: 1}
			pool := componentPool(8, 3, 29)
			rng := rand.New(rand.NewSource(7))
			st := store.New()
			live := make([]bool, len(pool))
			removed := make([]bool, len(pool))
			for i, q := range pool {
				if rng.Intn(3) > 0 {
					if _, err := st.Add(q); err != nil {
						t.Fatal(err)
					}
					live[i] = true
				}
			}
			main := newPipeline(t, st, prog, true)
			shadow := newPipeline(t, st, prog, false)

			var warm, shadowWarm *Warm
			deltas, fulls, revived := 0, 0, 0
			for step := 0; step < 240; step++ {
				if step > 0 {
					for m := rng.Intn(3) + 1; m > 0; m-- {
						i := rng.Intn(len(pool))
						if live[i] {
							st.Remove(pool[i])
							removed[i] = true
						} else {
							if _, err := st.Add(pool[i]); err != nil {
								t.Fatal(err)
							}
							if removed[i] {
								revived++
							}
						}
						live[i] = !live[i]
					}
				}
				res, next := main.solve(t, opts, warm)
				if warm != nil && next != warm {
					t.Fatalf("step %d: the solve replaced the warm state instead of updating it", step)
				}
				warm = next
				if res.TruthDelta {
					deltas++
				} else {
					fulls++
				}
				rebuilt := main.rebuiltWarm(t, res)
				if err := sameTable(warm.Z, rebuilt.Z); err != nil {
					t.Fatalf("step %d: Z: %v", step, err)
				}
				if err := sameTable(warm.U, rebuilt.U); err != nil {
					t.Fatalf("step %d: U: %v", step, err)
				}

				want, _ := shadow.solve(t, opts, shadowWarm)
				shadowWarm = shadow.rebuiltWarm(t, want)
				if want.TruthDelta {
					t.Fatalf("step %d: the shadow's fresh plan ran under a change set", step)
				}
				if err := sameAnswer(res, want); err != nil {
					t.Fatalf("step %d (change set %v): %v", step, res.TruthDelta, err)
				}
			}
			t.Logf("%d change-set solves, %d all-component solves, %d facts revived", deltas, fulls, revived)
			if deltas < 30 || revived == 0 {
				t.Fatalf("the schedule exercised %d change-set solves and %d revivals; want at least 30 and 1", deltas, revived)
			}
			if tc.maxIter > 0 && fulls < 10 {
				t.Fatalf("the starved budget forced only %d all-component solves", fulls)
			}
		})
	}
}

// sameAnswer compares two solves bit for bit: soft values, truth,
// iteration count, residuals, repair flips and component statistics.
func sameAnswer(got, want *Result) error {
	if len(got.Values) != len(want.Values) {
		return fmt.Errorf("%d values, want %d", len(got.Values), len(want.Values))
	}
	for a := range got.Values {
		if math.Float64bits(got.Values[a]) != math.Float64bits(want.Values[a]) || got.Truth[a] != want.Truth[a] {
			return fmt.Errorf("atom %d: %v/%v, want %v/%v", a, got.Values[a], got.Truth[a], want.Values[a], want.Truth[a])
		}
	}
	if got.Iterations != want.Iterations || got.Converged != want.Converged || got.RepairFlips != want.RepairFlips ||
		math.Float64bits(got.PrimalResidual) != math.Float64bits(want.PrimalResidual) ||
		math.Float64bits(got.DualResidual) != math.Float64bits(want.DualResidual) {
		return fmt.Errorf("iterations %d converged %v flips %d residuals %g/%g, want %d %v %d %g/%g",
			got.Iterations, got.Converged, got.RepairFlips, got.PrimalResidual, got.DualResidual,
			want.Iterations, want.Converged, want.RepairFlips, want.PrimalResidual, want.DualResidual)
	}
	if !reflect.DeepEqual(got.Components, want.Components) {
		return fmt.Errorf("components %+v, want %+v", got.Components, want.Components)
	}
	return nil
}
