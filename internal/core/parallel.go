package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The reallocation sweep fans its per-cluster work — taking an
// EstimateSnapshot and, for every heuristic but MCT, the initial fill of
// that cluster's column of the ECT matrix — over a bounded worker pool.
// Every cluster's batch scheduler is an independent object and every worker
// writes only to its own cluster's slots and column, so the merge is order-independent and the results are bit-identical
// to the sequential loop; only wall-clock time changes. Tiny sweeps skip the
// fan-out entirely: below the work threshold the goroutine handoff costs
// more than the queries it would parallelise.

// defaultSweepMinWork is the minimum number of (candidate, cluster) pairs a
// sweep stage must hold before it fans out, unless the run's
// ReallocConfig.SweepThreshold overrides it.
const defaultSweepMinWork = 2048

// forEachCluster runs fn(idx) for every idx in [0, n) with the run's
// parallelism settings (ReallocConfig.SweepWorkers, defaulting to GOMAXPROCS,
// and ReallocConfig.SweepThreshold, defaulting to defaultSweepMinWork),
// fanning the calls over the worker pool when the estimated work (in
// candidate x cluster pairs) clears the threshold. fn must touch only per-idx
// state: each cluster's scheduler is owned by exactly one worker for the
// duration of the call, and results land in per-idx slots.
//
//gridlint:worker
func (a *Agent) forEachCluster(n, work int, fn func(idx int)) {
	workers, minWork := a.realloc.SweepWorkers, a.realloc.SweepThreshold
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if minWork <= 0 {
		minWork = defaultSweepMinWork
	}
	forEachClusterWith(workers, minWork, n, work, fn)
}

// forEachClusterWith is forEachCluster with explicit parallelism settings;
// taking them as parameters lets concurrent simulation runs — the fuzz
// harness fans whole scenarios over a worker pool — use different sweep
// parallelism without sharing any state.
//
//gridlint:worker
func forEachClusterWith(workers, minWork, n, work int, fn func(idx int)) {
	if workers > n {
		workers = n
	}
	if workers < 2 || work < minWork {
		for i := 0; i < n; i++ {
			fn(i)
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
				fn(i)
			}
		}()
	}
	wg.Wait()
}
