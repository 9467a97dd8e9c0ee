package core

// Tests for the lazily evaluated ECT matrix of the reallocation sweep: the
// built-in heuristics must query only the cells they read (a complexity
// guard that fails on a silent fallback to eager evaluation), agree exactly
// with the materialise-everything path custom heuristics take, and reuse
// the sweep's buffers across passes.

import (
	"fmt"
	"testing"

	"gridrealloc/internal/batch"
	"gridrealloc/internal/platform"
	"gridrealloc/internal/server"
	"gridrealloc/internal/workload"
)

// eagerHeuristic hides a built-in's declared reads, so the sweep treats it
// as a custom heuristic and materialises every estimate before each Select.
type eagerHeuristic struct{ Heuristic }

// deepQueueServers builds m clusters, each fully blocked until t=50000 with
// jobs of mixed widths waiting behind the blocker: depth on the first
// cluster and skew fewer on each following one, so every pass at t=10
// gathers m*depth candidates when skew is 0.
func deepQueueServers(t testing.TB, m, depth, skew int, policy batch.Policy) []*server.Server {
	t.Helper()
	servers := make([]*server.Server, 0, m)
	for c := 0; c < m; c++ {
		srv, err := server.New(platform.ClusterSpec{Name: fmt.Sprintf("c%d", c), Cores: 64, Speed: 1 + float64(c)*0.1}, policy)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Submit(workload.Job{ID: 100000 + c, Submit: 0, Runtime: 50000, Walltime: 50000, Procs: 64}, 0, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Scheduler().Advance(0); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < depth-c*skew; i++ {
			j := workload.Job{ID: c*1000 + i + 1, Submit: int64(i), Runtime: 300, Walltime: 900 + int64(i%7)*60, Procs: 1 + i%16}
			if err := srv.Submit(j, 0, 0); err != nil {
				t.Fatal(err)
			}
		}
		servers = append(servers, srv)
	}
	return servers
}

// ectQueries sums the ECT queries every cluster has served.
func ectQueries(servers []*server.Server) int64 {
	var q int64
	for _, s := range servers {
		q += s.Load().ECTQueries
	}
	return q
}

// queueState renders every cluster's waiting queue, with planned windows and
// migration counts, so two runs can be compared placement by placement.
func queueState(servers []*server.Server) string {
	out := ""
	for _, s := range servers {
		for _, w := range s.WaitingJobs() {
			out += fmt.Sprintf("%s:%d@%d-%d/%d ", s.Name(), w.Job.ID, w.PlannedStart, w.PlannedEnd, w.Reallocations)
		}
	}
	return out
}

// passQueries runs passes reallocation passes on a fresh deep-queue fixture
// and returns the mean ECT queries per pass and the final queue state.
func passQueries(t *testing.T, alg Algorithm, h Heuristic, m, depth, passes int) (int64, string) {
	t.Helper()
	servers := deepQueueServers(t, m, depth, 0, batch.CBF)
	a := newTestAgent(t, servers, ReallocConfig{Algorithm: alg, Heuristic: h})
	before := ectQueries(servers)
	for i := 0; i < passes; i++ {
		if _, err := a.Reallocate(10); err != nil {
			t.Fatal(err)
		}
	}
	return (ectQueries(servers) - before) / int64(passes), queueState(servers)
}

// TestLazySweepQueryBound is the complexity guard on Algorithm 2 over a
// deep queue (n candidates, m clusters), where the eager matrix re-queries
// a column after every placement and needs O(n^2) queries per pass:
//
//   - MCT queries each placed candidate's row once: at most n*m per pass,
//     checked at two depths so the bound is shown to be linear, while the
//     eager path exceeds 2*n*m.
//   - MinMin's lazy heap re-queries a row whenever its stale minimum
//     reaches the root, and every row on a cluster whose earliest free slot
//     advances goes stale at once, so it is not O(n*m) on deep queues
//     (about 4, 7 and 13 n*m per pass at depths 30, 60 and 120 here). The
//     guard pins it at no more than a third of the eager path's queries.
//
// Both detect a silent fallback to eager evaluation, and both paths must
// place every job identically.
func TestLazySweepQueryBound(t *testing.T) {
	const m, passes = 3, 3
	for _, depth := range []int{30, 60} {
		n := int64(m * depth)
		for _, h := range []Heuristic{MCT(), MinMin()} {
			lazy, lazyState := passQueries(t, WithCancellation, h, m, depth, passes)
			eager, eagerState := passQueries(t, WithCancellation, eagerHeuristic{h}, m, depth, passes)
			t.Logf("%s depth %d: %d queries per pass lazy (%.1f n*m), %d eager", h.Name(), depth, lazy, float64(lazy)/float64(n*m), eager)
			if lazyState != eagerState {
				t.Errorf("%s depth %d: lazy and eager passes placed the jobs differently", h.Name(), depth)
			}
			if eager <= 2*n*m {
				t.Errorf("%s depth %d: eager path issued only %d queries per pass; the fixture no longer separates it from the lazy bound", h.Name(), depth, eager)
			}
			switch h.(type) {
			case mctHeuristic:
				if lazy > n*m {
					t.Errorf("Mct depth %d: %d ECT queries per pass, want <= n*m = %d", depth, lazy, n*m)
				}
			default:
				if 3*lazy > eager {
					t.Errorf("%s depth %d: %d ECT queries per pass, want <= eager/3 = %d", h.Name(), depth, lazy, eager/3)
				}
			}
		}
	}
}

// TestLazySweepMatchesEager checks every built-in heuristic under both
// algorithms and both policies on the deep-queue fixture: the lazy sweep
// must leave every queue exactly as the materialise-everything path does,
// and never issue more queries.
func TestLazySweepMatchesEager(t *testing.T) {
	for _, alg := range []Algorithm{WithoutCancellation, WithCancellation} {
		for _, policy := range []batch.Policy{batch.FCFS, batch.CBF} {
			for _, h := range Heuristics() {
				run := func(h Heuristic) (int64, string) {
					// Unbalanced queues give Algorithm 1 moves to make.
					servers := deepQueueServers(t, 4, 40, 10, policy)
					a := newTestAgent(t, servers, ReallocConfig{Algorithm: alg, Heuristic: h, MinGain: 1})
					before := ectQueries(servers)
					for _, now := range []int64{10, 20} {
						if _, err := a.Reallocate(now); err != nil {
							t.Fatal(err)
						}
					}
					return ectQueries(servers) - before, queueState(servers)
				}
				lazy, lazyState := run(h)
				eager, eagerState := run(eagerHeuristic{h})
				if lazyState != eagerState {
					t.Errorf("%v/%v/%s: lazy and eager sweeps diverged", alg, policy, h.Name())
				}
				if lazy > eager {
					t.Errorf("%v/%v/%s: lazy sweep issued %d queries, eager %d", alg, policy, h.Name(), lazy, eager)
				}
			}
		}
	}
}

// TestSweepSteadyStateAllocs pins the sweep's buffer reuse: once an agent
// has seen a platform, a pass allocates nothing, however deep the queues
// are. The
// schedulers' debug cross-check is switched off, whatever the environment
// says: it builds a from-scratch profile on every re-plan, and the pin
// measures the sweep, not the check.
func TestSweepSteadyStateAllocs(t *testing.T) {
	for _, alg := range []Algorithm{WithoutCancellation, WithCancellation} {
		for _, h := range append(Heuristics(), eagerHeuristic{MinMin()}) {
			for _, depth := range []int{20, 60} {
				servers := deepQueueServers(t, 3, depth, 0, batch.CBF)
				for _, srv := range servers {
					srv.Scheduler().SetDebugCrossCheck(false)
				}
				a := newTestAgent(t, servers, ReallocConfig{Algorithm: alg, Heuristic: h})
				for i := 0; i < 2; i++ {
					if _, err := a.Reallocate(10); err != nil {
						t.Fatal(err)
					}
				}
				allocs := testing.AllocsPerRun(5, func() {
					if _, err := a.Reallocate(10); err != nil {
						t.Fatal(err)
					}
				})
				if allocs > 0 {
					t.Errorf("%v/%s depth %d: %.0f allocations per steady-state pass, want 0", alg, h.Name(), depth, allocs)
				}
			}
		}
	}
}
