package core

import (
	"errors"
	"testing"

	"gridrealloc/internal/batch"
	"gridrealloc/internal/platform"
	"gridrealloc/internal/server"
	"gridrealloc/internal/workload"
)

// buildImbalancedServers returns two equal clusters where cluster "left" is
// heavily loaded (long waiting queue) and "right" is idle, so waiting jobs on
// the left have a large reallocation gain.
func buildImbalancedServers(t *testing.T, policy batch.Policy) []*server.Server {
	t.Helper()
	left, err := server.New(platform.ClusterSpec{Name: "left", Cores: 8, Speed: 1.0}, policy)
	if err != nil {
		t.Fatal(err)
	}
	right, err := server.New(platform.ClusterSpec{Name: "right", Cores: 8, Speed: 1.0}, policy)
	if err != nil {
		t.Fatal(err)
	}
	// A long job occupies the whole left cluster.
	if err := left.Submit(workload.Job{ID: 100, Submit: 0, Runtime: 10000, Walltime: 10000, Procs: 8}, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := left.Scheduler().Advance(0); err != nil {
		t.Fatal(err)
	}
	// Three jobs wait behind it.
	for i := 0; i < 3; i++ {
		j := workload.Job{ID: i + 1, Submit: int64(i), Runtime: 500, Walltime: 1000, Procs: 4}
		if err := left.Submit(j, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	return []*server.Server{left, right}
}

func newTestAgent(t *testing.T, servers []*server.Server, cfg ReallocConfig) *Agent {
	t.Helper()
	a, err := NewAgent(servers, MCTMapping(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func totalJobsHeld(servers []*server.Server) int {
	total := 0
	for _, s := range servers {
		total += s.Scheduler().WaitingCount() + s.Scheduler().RunningCount()
	}
	return total
}

func TestNewAgentValidation(t *testing.T) {
	if _, err := NewAgent(nil, nil, ReallocConfig{}); err == nil {
		t.Fatal("agent without servers accepted")
	}
	servers := buildImbalancedServers(t, batch.FCFS)
	a, err := NewAgent(servers, nil, ReallocConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Defaults applied.
	rc := a.Realloc()
	if rc.Period != DefaultReallocationPeriod || rc.MinGain != DefaultMinGain || rc.Heuristic == nil {
		t.Fatalf("defaults not applied: %+v", rc)
	}
	if got := a.Servers(); len(got) != len(servers) || got[0] != servers[0] {
		t.Fatalf("Servers() = %v, want the platform order passed in", got)
	}
	if a.SkippedSweeps() != 0 {
		t.Fatalf("SkippedSweeps() = %d before any pass, want 0", a.SkippedSweeps())
	}
}

func TestSubmitJobUsesMappingAndTracksLocation(t *testing.T) {
	servers := buildImbalancedServers(t, batch.FCFS)
	a := newTestAgent(t, servers, ReallocConfig{})
	j := workload.Job{ID: 200, Submit: 10, Runtime: 100, Walltime: 300, Procs: 4}
	cluster, err := a.SubmitJob(j, 10)
	if err != nil {
		t.Fatal(err)
	}
	if cluster != "right" {
		t.Fatalf("MCT mapped to %q, want the idle right cluster", cluster)
	}
	if a.JobCluster(200) != "right" {
		t.Fatalf("JobCluster = %q", a.JobCluster(200))
	}
	a.Forget(200)
	if a.JobCluster(200) != "" {
		t.Fatal("Forget did not clear the location")
	}
	if a.JobCluster(12345) != "" {
		t.Fatal("unknown job has a location")
	}
}

func TestSubmitJobNoClusterFits(t *testing.T) {
	servers := buildImbalancedServers(t, batch.FCFS)
	a := newTestAgent(t, servers, ReallocConfig{})
	_, err := a.SubmitJob(workload.Job{ID: 300, Submit: 0, Runtime: 10, Walltime: 20, Procs: 512}, 0)
	if err == nil {
		t.Fatal("oversized job mapped somewhere")
	}
}

func TestAlgorithm1MovesJobsWithGain(t *testing.T) {
	for _, policy := range []batch.Policy{batch.FCFS, batch.CBF} {
		servers := buildImbalancedServers(t, policy)
		a := newTestAgent(t, servers, ReallocConfig{Algorithm: WithoutCancellation, Heuristic: MCT()})
		before := totalJobsHeld(servers)

		moves, err := a.Reallocate(100)
		if err != nil {
			t.Fatal(err)
		}
		if moves == 0 {
			t.Fatalf("[%v] no job moved despite an idle cluster next door", policy)
		}
		if got := totalJobsHeld(servers); got != before {
			t.Fatalf("[%v] jobs lost or duplicated: %d -> %d", policy, before, got)
		}
		if a.TotalReallocations() != int64(moves) {
			t.Fatalf("[%v] TotalReallocations = %d, want %d", policy, a.TotalReallocations(), moves)
		}
		// The moved jobs are now on the right cluster and the agent knows it.
		rightWaiting := servers[1].WaitingJobs()
		rightRunning := servers[1].Scheduler().RunningCount()
		if len(rightWaiting)+rightRunning == 0 {
			t.Fatalf("[%v] right cluster still empty after reallocation", policy)
		}
		for _, w := range rightWaiting {
			if w.Reallocations != 1 {
				t.Fatalf("[%v] moved job %d has %d reallocations recorded, want 1", policy, w.Job.ID, w.Reallocations)
			}
			if a.JobCluster(w.Job.ID) != "right" {
				t.Fatalf("[%v] agent thinks job %d is on %q", policy, w.Job.ID, a.JobCluster(w.Job.ID))
			}
		}
		// Cluster invariants survive the reallocation.
		for _, s := range servers {
			if err := s.Scheduler().CheckInvariants(); err != nil {
				t.Fatalf("[%v] %s: %v", policy, s.Name(), err)
			}
		}
	}
}

func TestAlgorithm1RespectsMinGain(t *testing.T) {
	// Both clusters identical and both idle: ECT elsewhere equals ECT here,
	// so no job may move (the 60 s improvement threshold is not met).
	left, _ := server.New(platform.ClusterSpec{Name: "left", Cores: 8, Speed: 1}, batch.FCFS)
	right, _ := server.New(platform.ClusterSpec{Name: "right", Cores: 8, Speed: 1}, batch.FCFS)
	servers := []*server.Server{left, right}
	// One running job on each cluster with identical ends, plus one waiting
	// job on the left planned right after.
	for _, s := range servers {
		if err := s.Submit(workload.Job{ID: 500 + len(s.Name()), Submit: 0, Runtime: 1000, Walltime: 1000, Procs: 8}, 0, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Scheduler().Advance(0); err != nil {
			t.Fatal(err)
		}
	}
	if err := left.Submit(workload.Job{ID: 1, Submit: 0, Runtime: 100, Walltime: 200, Procs: 2}, 0, 0); err != nil {
		t.Fatal(err)
	}
	a := newTestAgent(t, servers, ReallocConfig{Algorithm: WithoutCancellation, Heuristic: MaxGain()})
	moves, err := a.Reallocate(10)
	if err != nil {
		t.Fatal(err)
	}
	if moves != 0 {
		t.Fatalf("job moved for a gain below the one-minute threshold (moves=%d)", moves)
	}
	if left.Scheduler().WaitingCount() != 1 {
		t.Fatal("the waiting job disappeared from its cluster")
	}
}

func TestAlgorithm2CancelsAndRedistributes(t *testing.T) {
	for _, policy := range []batch.Policy{batch.FCFS, batch.CBF} {
		servers := buildImbalancedServers(t, policy)
		a := newTestAgent(t, servers, ReallocConfig{Algorithm: WithCancellation, Heuristic: MinMin()})
		before := totalJobsHeld(servers)

		moves, err := a.Reallocate(100)
		if err != nil {
			t.Fatal(err)
		}
		if got := totalJobsHeld(servers); got != before {
			t.Fatalf("[%v] jobs lost or duplicated: %d -> %d", policy, before, got)
		}
		if moves == 0 {
			t.Fatalf("[%v] cancellation algorithm moved nothing off the saturated cluster", policy)
		}
		// All three waiting jobs should now sit on (or run on) the idle
		// right cluster: its ECT is always better while left is blocked for
		// 10000 seconds.
		rightCount := servers[1].Scheduler().WaitingCount() + servers[1].Scheduler().RunningCount()
		if rightCount != 3 {
			t.Fatalf("[%v] right cluster holds %d jobs, want all 3", policy, rightCount)
		}
		for _, s := range servers {
			if err := s.Scheduler().CheckInvariants(); err != nil {
				t.Fatalf("[%v] %s: %v", policy, s.Name(), err)
			}
		}
	}
}

func TestAlgorithm2CountsOnlyRealMigrations(t *testing.T) {
	// Single cluster: Algorithm 2 cancels and resubmits everything to the
	// same place, which must count as zero reallocations.
	only, _ := server.New(platform.ClusterSpec{Name: "only", Cores: 4, Speed: 1}, batch.FCFS)
	if err := only.Submit(workload.Job{ID: 1, Submit: 0, Runtime: 1000, Walltime: 1000, Procs: 4}, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := only.Scheduler().Advance(0); err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= 4; i++ {
		if err := only.Submit(workload.Job{ID: i, Submit: int64(i), Runtime: 100, Walltime: 200, Procs: 2}, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	a := newTestAgent(t, []*server.Server{only}, ReallocConfig{Algorithm: WithCancellation, Heuristic: MCT()})
	moves, err := a.Reallocate(10)
	if err != nil {
		t.Fatal(err)
	}
	if moves != 0 || a.TotalReallocations() != 0 {
		t.Fatalf("single-cluster cancellation counted %d moves", moves)
	}
	if only.Scheduler().WaitingCount() != 3 {
		t.Fatalf("jobs lost during cancel/resubmit: %d waiting", only.Scheduler().WaitingCount())
	}
}

func TestReallocateNoneIsNoOp(t *testing.T) {
	servers := buildImbalancedServers(t, batch.FCFS)
	a := newTestAgent(t, servers, ReallocConfig{Algorithm: NoReallocation})
	moves, err := a.Reallocate(100)
	if err != nil || moves != 0 {
		t.Fatalf("no-reallocation agent moved %d jobs (%v)", moves, err)
	}
	if a.ReallocationEvents() != 0 {
		t.Fatal("no-reallocation agent counted a reallocation event")
	}
}

func TestReallocateEmptyQueues(t *testing.T) {
	left, _ := server.New(platform.ClusterSpec{Name: "left", Cores: 8, Speed: 1}, batch.FCFS)
	right, _ := server.New(platform.ClusterSpec{Name: "right", Cores: 8, Speed: 1}, batch.FCFS)
	for _, alg := range []Algorithm{WithoutCancellation, WithCancellation} {
		a := newTestAgent(t, []*server.Server{left, right}, ReallocConfig{Algorithm: alg, Heuristic: MinMin()})
		moves, err := a.Reallocate(50)
		if err != nil || moves != 0 {
			t.Fatalf("%v on empty queues: moves=%d err=%v", alg, moves, err)
		}
	}
}

// TestReallocateBeforeClusterClockFails pins the time-travel contract of a
// sweep: a pass at an instant some cluster has already passed fails with
// batch.ErrTimeTravel, from the snapshot (Algorithm 1) or from the first
// cancellation (Algorithm 2), instead of estimating from the past.
func TestReallocateBeforeClusterClockFails(t *testing.T) {
	for _, alg := range []Algorithm{WithoutCancellation, WithCancellation} {
		servers := buildImbalancedServers(t, batch.FCFS)
		// Algorithm 1 snapshots every cluster, so an idle cluster ahead in
		// time trips it; Algorithm 2 cancels first, on the loaded cluster.
		ahead := servers[1]
		if alg == WithCancellation {
			ahead = servers[0]
		}
		if _, err := ahead.Scheduler().Advance(500); err != nil {
			t.Fatal(err)
		}
		held := totalJobsHeld(servers)
		a := newTestAgent(t, servers, ReallocConfig{Algorithm: alg, Heuristic: MinMin()})
		if _, err := a.Reallocate(100); !errors.Is(err, batch.ErrTimeTravel) {
			t.Fatalf("%v: Reallocate before %s's clock: err = %v, want ErrTimeTravel", alg, ahead.Name(), err)
		}
		if got := totalJobsHeld(servers); got != held {
			t.Fatalf("%v: failed pass changed the job count from %d to %d", alg, held, got)
		}
	}
}

func TestReallocationCountAccumulatesAcrossMoves(t *testing.T) {
	// Move a job left->right, then make right worse so a later pass moves it
	// back: its per-job counter must reach 2.
	left, _ := server.New(platform.ClusterSpec{Name: "left", Cores: 4, Speed: 1}, batch.FCFS)
	right, _ := server.New(platform.ClusterSpec{Name: "right", Cores: 4, Speed: 1}, batch.FCFS)
	servers := []*server.Server{left, right}
	block := func(s *server.Server, id int, now, dur int64) {
		if err := s.Submit(workload.Job{ID: id, Submit: now, Runtime: dur, Walltime: dur, Procs: 4}, now, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Scheduler().Advance(now); err != nil {
			t.Fatal(err)
		}
	}
	block(left, 900, 0, 5000)
	// The victim job waits on the left.
	if err := left.Submit(workload.Job{ID: 1, Submit: 0, Runtime: 100, Walltime: 200, Procs: 4}, 0, 0); err != nil {
		t.Fatal(err)
	}
	a := newTestAgent(t, servers, ReallocConfig{Algorithm: WithoutCancellation, Heuristic: MCT()})
	if _, err := a.Reallocate(10); err != nil {
		t.Fatal(err)
	}
	if got := a.JobCluster(1); got != "right" {
		t.Fatalf("after first pass job is on %q, want right", got)
	}
	// Job 1 is waiting on the idle right cluster but has not started yet (it
	// was submitted there at t=10, so it starts at t=10 only once the
	// cluster advances past that instant; keep the clock at 10 and block the
	// right cluster with a much longer job planned before it by cancelling
	// and re-adding it after the blocker).
	if _, _, err := right.Cancel(1, 10); err != nil {
		t.Fatalf("cancelling the migrated job on right: %v", err)
	}
	block(right, 901, 10, 50000)
	if err := right.Submit(workload.Job{ID: 1, Submit: 0, Runtime: 100, Walltime: 200, Procs: 4}, 10, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Reallocate(30); err != nil {
		t.Fatal(err)
	}
	if got := a.JobCluster(1); got != "left" {
		t.Fatalf("after second pass job is on %q, want left", got)
	}
	for _, w := range left.WaitingJobs() {
		if w.Job.ID == 1 && w.Reallocations != 2 {
			t.Fatalf("job 1 reallocation counter = %d, want 2", w.Reallocations)
		}
	}
	if a.TotalReallocations() != 2 {
		t.Fatalf("total reallocations = %d, want 2", a.TotalReallocations())
	}
}

func TestParseAlgorithm(t *testing.T) {
	cases := map[string]Algorithm{
		"":               NoReallocation,
		"none":           NoReallocation,
		"realloc":        WithoutCancellation,
		"algorithm1":     WithoutCancellation,
		"no-cancel":      WithoutCancellation,
		"realloc-cancel": WithCancellation,
		"cancel":         WithCancellation,
		"algorithm2":     WithCancellation,
	}
	for in, want := range cases {
		got, err := ParseAlgorithm(in)
		if err != nil || got != want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseAlgorithm("magic"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if NoReallocation.String() != "none" || WithoutCancellation.String() != "realloc" || WithCancellation.String() != "realloc-cancel" {
		t.Fatal("Algorithm.String broken")
	}
}
