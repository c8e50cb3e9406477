package bench

import (
	"runtime"
	"sync" //detlint:ok replica sweeps fan independent simulations out over goroutines
	"sync/atomic"
)

// workers is the number of goroutines replica sweeps fan out over.
// Every simulated run builds its own Engine, Network and System and the
// simulator packages keep no mutable package-level state, so runs are
// independent and their virtual-time results are identical whatever the
// parallelism — sweeps only reorder wall-clock work, never outcomes.
// Tests pin it to 1 and to >1 to prove exactly that.
//
// It is an atomic rather than a plain var: sweeps read it from worker
// launch code while tests and the CLI write it, and a plain int there is
// a data race the moment a caller adjusts the width with a sweep in
// flight (the bench package runs under -race in CI to keep it that way).
var workers atomic.Int64

func init() { workers.Store(int64(runtime.GOMAXPROCS(0))) }

// Workers reports the current replica-sweep width.
func Workers() int { return int(workers.Load()) }

// SetWorkers sets the replica-sweep width (1 = sequential) and returns
// the previous value so callers can restore it.
func SetWorkers(n int) (prev int) {
	if n < 1 {
		n = 1
	}
	return int(workers.Swap(int64(n)))
}

// sweep runs job(0..n-1) across min(Workers, n) goroutines and returns
// the results in index order. All jobs run to completion even when one
// fails; the lowest-index error is returned.
func sweep[T any](n int, job func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	w := Workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			out[i], errs[i] = job(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < w; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					out[i], errs[i] = job(i)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
