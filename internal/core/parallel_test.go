package core

// Tests for the parallel reallocation sweep: the per-cluster fan-out must be
// free of data races even while capacity outages displace and requeue
// running jobs mid-simulation, and it must produce results bit-identical to
// the sequential sweep (the fan-out is a wall-clock optimisation, never a
// behavioural one).

import (
	"testing"

	"gridrealloc/internal/batch"
	"gridrealloc/internal/platform"
)

// parallelRealloc is the outage tests' Algorithm 2 configuration with the
// sweep fan-out forced on for every sweep size.
func parallelRealloc() ReallocConfig {
	return ReallocConfig{Algorithm: WithCancellation, Heuristic: MinMin(), Period: 120, SweepWorkers: 8, SweepThreshold: 1}
}

// outagePlatform is the small two-cluster platform with an unannounced
// outage on each cluster, timed to strike while the burst trace keeps both
// queues deep (so reallocation sweeps, outage reveals and displacements
// interleave).
func outagePlatform() platform.Platform {
	p := smallPlatform(platform.Heterogeneous)
	p.Clusters[0].Capacity = []platform.CapacityEvent{
		{Start: 400, End: 900, Cores: 2, Kind: platform.Outage},
	}
	p.Clusters[1].Capacity = []platform.CapacityEvent{
		{Start: 600, End: 1100, Cores: 0, Kind: platform.Outage},
	}
	return p
}

// TestParallelSweepUnderOutageReveals runs a full simulation with the
// fan-out forced on while outages displace running jobs. Under -race (the
// CI short-test job) this validates that the per-cluster workers never
// touch shared state: every scheduler is owned by exactly one worker per
// sweep stage and every result lands in a per-cluster slot.
func TestParallelSweepUnderOutageReveals(t *testing.T) {
	trace := burstTrace(t, 80)
	for _, policy := range []batch.OutagePolicy{batch.KillDisplaced, batch.RequeueDisplaced} {
		res := runSim(t, Config{
			Platform:     outagePlatform(),
			Policy:       batch.CBF,
			Trace:        trace,
			Realloc:      parallelRealloc(),
			OutagePolicy: policy,
		})
		if res.CompletedJobs() == 0 {
			t.Fatalf("policy %v: no job completed", policy)
		}
		if policy == batch.RequeueDisplaced && res.OutageRequeues == 0 {
			t.Fatal("outages displaced nothing; the race test is not exercising reveals")
		}
	}
}

// TestParallelSweepMatchesSequential replays the same outage-heavy
// reallocation run with the fan-out forced off and on and compares every
// per-job outcome. The 72-configuration digest A/B at the repository root
// covers the full grid; this in-package variant gives the fast signal.
func TestParallelSweepMatchesSequential(t *testing.T) {
	trace := burstTrace(t, 80)
	run := func(realloc ReallocConfig) *Result {
		return runSim(t, Config{
			Platform:     outagePlatform(),
			Policy:       batch.CBF,
			Trace:        trace,
			Realloc:      realloc,
			OutagePolicy: batch.RequeueDisplaced,
		})
	}
	sequential := parallelRealloc()
	sequential.SweepWorkers = 1
	seq := run(sequential)
	par := run(parallelRealloc())
	if seq.Makespan != par.Makespan || seq.TotalReallocations != par.TotalReallocations {
		t.Fatalf("run-level divergence: sequential makespan=%d moves=%d, parallel makespan=%d moves=%d",
			seq.Makespan, seq.TotalReallocations, par.Makespan, par.TotalReallocations)
	}
	for id, s := range seq.Jobs {
		p := par.Jobs[id]
		if p == nil {
			t.Fatalf("job %d missing from parallel run", id)
		}
		if *s != *p {
			t.Fatalf("job %d diverged:\nsequential %+v\nparallel   %+v", id, *s, *p)
		}
	}
}
