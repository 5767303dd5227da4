// Package conc holds the shared concurrency helpers used by the
// segmentation algorithms and by every miner's counting passes. All
// helpers are deterministic in their observable results: parallelism
// changes wall-clock time, never answers.
//
// Worker-knob semantics (the single contract for every Workers option in
// this repository): 0, 1 and negative values mean serial execution —
// parallelism is strictly opt-in — and larger values are capped at
// runtime.NumCPU().
package conc

import (
	"runtime"
	"sync"
)

// Resolve maps a Workers knob to a concrete pool size: 0, 1 or negative
// mean serial (1); larger values are capped at NumCPU.
func Resolve(w int) int {
	if w <= 1 {
		return 1
	}
	if n := runtime.NumCPU(); w > n {
		return n
	}
	return w
}

// For runs f(i) for i in [0, n) across workers goroutines, in contiguous
// chunks. It falls back to a plain serial loop when workers <= 1 or the
// problem is too small to amortize goroutine startup (n < 2·workers).
func For(workers, n int, f func(i int)) {
	if workers <= 1 || n < 2*workers {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				f(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// Scatter runs f(i) for i in [0, n) on one goroutine per task — n wide,
// regardless of NumCPU — and waits for all of them. It is the fan-out
// shape of scatter-gather serving: each task may spend its time waiting
// on a remote shard's round trip rather than computing, so capping the
// width at NumCPU would serialize the waiting. For CPU-bound loops use
// For or ForChunks, which cap at the worker knob.
func Scatter(n int, f func(i int)) {
	if n <= 0 {
		return
	}
	if n == 1 {
		f(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			f(i)
		}(i)
	}
	wg.Wait()
}

// ForChunks partitions [0, n) into at most workers contiguous chunks and
// runs f(w, lo, hi) concurrently, one call per chunk, where w is a dense
// chunk index in [0, workers). Callers that need per-worker state
// allocate a slice of length workers, index it by w inside f, and merge
// slots in ascending w afterwards — ascending-w merge order makes the
// combined result independent of goroutine scheduling. The serial
// fallback (workers <= 1 or n < 2·workers) is a single inline f(0, 0, n).
func ForChunks(workers, n int, f func(w, lo, hi int)) {
	if n == 0 {
		return
	}
	if workers <= 1 || n < 2*workers {
		f(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			f(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}
