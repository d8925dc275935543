package ground

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/rdf"
	"repro/internal/rulelang"
	"repro/internal/store"
)

// TestChangeLogNamesEveryChangedAtom pins the invariant the maintained
// solve plan rests on: with the change log on, every atom the
// incremental phases (RetractFacts, ApplyUpdates, CloseDelta,
// GroundDelta) intern, or whose state — evidence, retraction,
// confidence, backing fact — they change, is among the ids
// DrainChangedRoots hands out, not only the roots of the components
// that moved. Random steps add, remove, raise the confidence of and
// revive facts under a program whose inference cascade derives,
// retracts and revives atoms of its own.
func TestChangeLogNamesEveryChangedAtom(t *testing.T) {
	prog := rulelang.MustParse(oracleProgram)
	for seed := int64(1); seed <= 3; seed++ {
		for _, workers := range []int{1, 3} {
			rng := rand.New(rand.NewSource(seed))
			pool := make([]rdf.Quad, 40)
			for i := range pool {
				pool[i] = oracleQuad(rng)
			}
			st := store.New()
			for _, q := range pool[:24] {
				if _, err := st.Add(q); err != nil {
					t.Fatal(err)
				}
			}
			g, cs := groundCold(t, st, prog, workers)
			cs.EnableChangeLog()
			atoms := g.Atoms()
			epoch := st.Epoch()
			var interned, changed, revived, raised int
			for step := 0; step < 60; step++ {
				before := make([]AtomInfo, atoms.Len())
				for i := range before {
					before[i] = atoms.Info(AtomID(i))
				}
				for m := rng.Intn(4) + 1; m > 0; m-- {
					q := pool[rng.Intn(len(pool))]
					switch rng.Intn(3) {
					case 0:
						st.Remove(q)
						continue
					case 1: // a confidence raise when live, else an add or revival
						q.Confidence = 0.91 + 0.001*float64(step)
					}
					if _, err := st.Add(q); err != nil {
						t.Fatal(err)
					}
				}
				syncStore(t, g, cs, prog, &epoch)

				logged := map[AtomID]bool{}
				cs.DrainChangedRoots(func(a AtomID) { logged[a] = true })
				label := fmt.Sprintf("seed %d workers %d step %d", seed, workers, step)
				for i := 0; i < atoms.Len(); i++ {
					a, now := AtomID(i), atoms.Info(AtomID(i))
					fresh := i >= len(before)
					var was AtomInfo
					if fresh {
						interned++
					} else if was = before[i]; was.Evidence == now.Evidence && was.Retracted == now.Retracted &&
						was.Conf == now.Conf && was.FactID == now.FactID {
						continue
					} else {
						changed++
						if was.Retracted && !now.Retracted {
							revived++
						} else if was.Evidence && now.Evidence && was.Conf < now.Conf {
							raised++
						}
					}
					if !logged[a] {
						t.Fatalf("%s: atom %d (%v, fresh %v) went from %+v to %+v but the change log does not name it",
							label, a, now.Key, fresh, was, now)
					}
				}
			}
			if interned == 0 || changed == 0 || revived == 0 || raised == 0 {
				t.Fatalf("seed %d workers %d: schedule lost its coverage: %d interned, %d changed, %d revived, %d raised",
					seed, workers, interned, changed, revived, raised)
			}
		}
	}
}
