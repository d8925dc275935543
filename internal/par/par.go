// Package par provides the bounded worker pool shared by the solve
// pipeline: rule grounding, per-component solves and read-outs, and
// local-search restarts all fan work items out across a fixed number of
// goroutines.
//
// The pool is deliberately minimal — deterministic output is the
// caller's responsibility and every parallel stage in this repository
// follows the same recipe: workers compute into private, index-addressed
// shards with no shared mutable state, and a sequential merge phase
// combines the shards in task order. Under that discipline the result is
// identical for every worker count, including 1.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalises a parallelism setting: values <= 0 select
// runtime.GOMAXPROCS(0), anything else is returned unchanged.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Do runs task(0), ..., task(n-1) on at most workers goroutines and
// waits for all of them to finish. Tasks are handed out in index order
// from a shared counter, so cheap early tasks do not strand a worker.
// With workers <= 1 (or a single task) everything runs inline on the
// calling goroutine — the sequential path spawns nothing.
func Do(n, workers int, task func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			task(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				task(i)
			}
		}()
	}
	wg.Wait()
}

// Share divides the machine between k cooperating solves: it returns
// the worker count one of k concurrent pipelines should use so that
// together they fill — but do not oversubscribe — the n-worker budget
// (n <= 0 selects GOMAXPROCS, like Workers). Every pipeline gets at
// least one worker; worker counts never change results, only wall
// clock, so callers may re-share as concurrency fluctuates.
func Share(n, k int) int {
	w := Workers(n)
	if k <= 1 {
		return w
	}
	if w /= k; w < 1 {
		return 1
	}
	return w
}
