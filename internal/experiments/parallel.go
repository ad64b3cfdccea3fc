package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// workers resolves Options.Parallelism to a concrete worker count:
// 0 or 1 means sequential, negative means one worker per CPU.
func (o Options) workers() int {
	switch {
	case o.Parallelism < 0:
		return runtime.GOMAXPROCS(0)
	case o.Parallelism == 0:
		return 1
	default:
		return o.Parallelism
	}
}

// cancelled reports whether Options.Context is done. Checked before every
// cell so a SIGINT stops the sweep at cell granularity instead of running
// the remaining hours of simulation.
func (o Options) cancelled() bool {
	if o.Context == nil {
		return false
	}
	select {
	case <-o.Context.Done():
		return true
	default:
		return false
	}
}

// forEachIndex runs fn(i) for every i in [0, n), fanning the indices across
// up to workers() goroutines via an atomic work counter. Callers write each
// result into an index-addressed slot and assemble tables afterwards in
// index order, so the rendered output is byte-identical to a sequential run
// regardless of Parallelism. Every simulation builds its own workload and
// engine instances; the only shared state is the run cache, which runs each
// distinct simulation once and makes concurrent cells that need the same
// run wait for it.
//
// When Options.Context is cancelled, workers stop draining the cell queue;
// unstarted cells are skipped and their result slots keep zero values.
func (o Options) forEachIndex(n int, fn func(i int)) {
	w := o.workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if o.cancelled() {
				return
			}
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for j := 0; j < w; j++ {
		go func() {
			defer wg.Done()
			for {
				if o.cancelled() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// sweep runs fn(r, p) for every row r in [0, rows) and point p in
// [0, points) across the worker pool and returns the results as out[r][p].
func sweep[T any](o Options, rows, points int, fn func(r, p int) T) [][]T {
	out := make([][]T, rows)
	for r := range out {
		out[r] = make([]T, points)
	}
	o.forEachIndex(rows*points, func(i int) {
		r, p := i/points, i%points
		out[r][p] = fn(r, p)
	})
	return out
}
