package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(7); got != 7 {
		t.Errorf("Workers(7) = %d", got)
	}
}

func TestShare(t *testing.T) {
	if got := Share(8, 2); got != 4 {
		t.Errorf("Share(8, 2) = %d, want 4", got)
	}
	if got := Share(8, 0); got != 8 {
		t.Errorf("Share(8, 0) = %d, want 8", got)
	}
	if got := Share(8, 1); got != 8 {
		t.Errorf("Share(8, 1) = %d, want 8", got)
	}
	if got := Share(4, 100); got != 1 {
		t.Errorf("Share(4, 100) = %d, want 1 (floor)", got)
	}
	if got := Share(0, 1); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Share(0, 1) = %d, want GOMAXPROCS", got)
	}
	if want := Share(runtime.GOMAXPROCS(0), 3); Share(0, 3) != want {
		t.Errorf("Share(0, 3) = %d, want %d", Share(0, 3), want)
	}
}

func TestDoRunsEveryTaskExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16, 100} {
		const n = 537
		var counts [n]atomic.Int32
		Do(n, workers, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestDoZeroAndNegative(t *testing.T) {
	ran := false
	Do(0, 4, func(int) { ran = true })
	Do(-1, 4, func(int) { ran = true })
	if ran {
		t.Error("Do ran tasks for n <= 0")
	}
}

func TestDoSequentialOrder(t *testing.T) {
	// workers <= 1 must run inline, in index order.
	var order []int
	Do(5, 1, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential order = %v", order)
		}
	}
}
