package core

import (
	"testing"

	"gridrealloc/internal/batch"
	"gridrealloc/internal/platform"
	"gridrealloc/internal/workload"
)

// smallPlatform is a two-cluster platform small enough that the hand-built
// traces below create real queues.
func smallPlatform(het platform.Heterogeneity) platform.Platform {
	speed := 1.0
	if het == platform.Heterogeneous {
		speed = 1.5
	}
	return platform.Platform{
		Name: "small-" + het.String(),
		Clusters: []platform.ClusterSpec{
			{Name: "alpha", Cores: 8, Speed: 1.0},
			{Name: "beta", Cores: 8, Speed: speed},
		},
	}
}

// burstTrace builds a trace with a saturating burst at t=0 followed by a
// second wave, designed so that walltime over-estimation leaves holes that
// the reallocation mechanism can exploit.
func burstTrace(t *testing.T, jobs int) *workload.Trace {
	t.Helper()
	var list []workload.Job
	for i := 0; i < jobs; i++ {
		runtime := int64(200 + 50*(i%7))
		walltime := runtime * 4 // strong over-estimation
		procs := 2 + (i%3)*2    // 2, 4 or 6 procs
		submit := int64(i * 15) // a burst: one job every 15 seconds
		list = append(list, workload.Job{
			ID: i + 1, Submit: submit, Runtime: runtime, Walltime: walltime, Procs: procs,
		})
	}
	tr, err := workload.NewTrace("burst", list)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func runSim(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := Run(Config{Platform: smallPlatform(platform.Homogeneous)}); err == nil {
		t.Fatal("config without a trace accepted")
	}
	tooWide, _ := workload.NewTrace("wide", []workload.Job{{ID: 1, Submit: 0, Runtime: 10, Walltime: 20, Procs: 512}})
	if _, err := Run(Config{Platform: smallPlatform(platform.Homogeneous), Trace: tooWide}); err == nil {
		t.Fatal("oversized job accepted without ClampOversized")
	}
	res, err := Run(Config{Platform: smallPlatform(platform.Homogeneous), Trace: tooWide, ClampOversized: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[1].Procs != 8 {
		t.Fatalf("oversized job clamped to %d procs, want 8", res.Jobs[1].Procs)
	}
}

func TestBaselineRunCompletesEveryJob(t *testing.T) {
	trace := burstTrace(t, 60)
	for _, policy := range []batch.Policy{batch.FCFS, batch.CBF} {
		res := runSim(t, Config{
			Platform: smallPlatform(platform.Homogeneous),
			Policy:   policy,
			Trace:    trace,
		})
		if res.CompletedJobs() != trace.Len() {
			t.Fatalf("[%v] completed %d of %d jobs", policy, res.CompletedJobs(), trace.Len())
		}
		if res.TotalReallocations != 0 || res.ReallocationEvents != 0 {
			t.Fatalf("[%v] baseline performed reallocations", policy)
		}
		for id, rec := range res.Jobs {
			if rec.Start < rec.Submit {
				t.Fatalf("[%v] job %d started at %d before its submission %d", policy, id, rec.Start, rec.Submit)
			}
			if rec.Completion < rec.Start {
				t.Fatalf("[%v] job %d completed before starting", policy, id)
			}
			if rec.Cluster != "alpha" && rec.Cluster != "beta" {
				t.Fatalf("[%v] job %d ran on unknown cluster %q", policy, id, rec.Cluster)
			}
		}
		if res.Makespan <= 0 {
			t.Fatalf("[%v] makespan = %d", policy, res.Makespan)
		}
		if res.MeanResponseTime() <= 0 {
			t.Fatalf("[%v] mean response time = %v", policy, res.MeanResponseTime())
		}
	}
}

func TestCBFNeverSlowerThanFCFSOnMeanResponse(t *testing.T) {
	// Backfilling can only improve (or equal) the schedule produced by plain
	// FCFS under the conservative rules with identical queues; check the
	// aggregate on the burst trace.
	trace := burstTrace(t, 80)
	fcfs := runSim(t, Config{Platform: smallPlatform(platform.Homogeneous), Policy: batch.FCFS, Trace: trace})
	cbf := runSim(t, Config{Platform: smallPlatform(platform.Homogeneous), Policy: batch.CBF, Trace: trace})
	if cbf.MeanResponseTime() > fcfs.MeanResponseTime()*1.05 {
		t.Fatalf("CBF mean response %.1f much worse than FCFS %.1f", cbf.MeanResponseTime(), fcfs.MeanResponseTime())
	}
}

func TestHeterogeneousFasterClustersShortenJobs(t *testing.T) {
	trace := burstTrace(t, 40)
	homo := runSim(t, Config{Platform: smallPlatform(platform.Homogeneous), Policy: batch.CBF, Trace: trace})
	hetero := runSim(t, Config{Platform: smallPlatform(platform.Heterogeneous), Policy: batch.CBF, Trace: trace})
	if hetero.MeanResponseTime() >= homo.MeanResponseTime() {
		t.Fatalf("heterogeneous platform (one cluster 50%% faster) not faster: %v vs %v",
			hetero.MeanResponseTime(), homo.MeanResponseTime())
	}
}

func TestDeterminism(t *testing.T) {
	trace := burstTrace(t, 50)
	cfg := Config{
		Platform: smallPlatform(platform.Heterogeneous),
		Policy:   batch.CBF,
		Trace:    trace,
		Realloc:  ReallocConfig{Algorithm: WithCancellation, Heuristic: MinMin(), Period: 600},
	}
	a := runSim(t, cfg)
	b := runSim(t, cfg)
	if a.TotalReallocations != b.TotalReallocations || a.Makespan != b.Makespan {
		t.Fatalf("runs diverged: %d/%d reallocations, %d/%d makespan",
			a.TotalReallocations, b.TotalReallocations, a.Makespan, b.Makespan)
	}
	for id, ra := range a.Jobs {
		rb := b.Jobs[id]
		if ra.Start != rb.Start || ra.Completion != rb.Completion || ra.Cluster != rb.Cluster {
			t.Fatalf("job %d differs between identical runs: %+v vs %+v", id, ra, rb)
		}
	}
}

func TestReallocationRunKeepsJobSetIntact(t *testing.T) {
	trace := burstTrace(t, 70)
	for _, alg := range []Algorithm{WithoutCancellation, WithCancellation} {
		for _, h := range Heuristics() {
			res := runSim(t, Config{
				Platform: smallPlatform(platform.Heterogeneous),
				Policy:   batch.FCFS,
				Trace:    trace,
				Realloc:  ReallocConfig{Algorithm: alg, Heuristic: h, Period: 900},
			})
			if res.CompletedJobs() != trace.Len() {
				t.Fatalf("%v/%s lost jobs: %d of %d completed", alg, h.Name(), res.CompletedJobs(), trace.Len())
			}
			if res.HeuristicName != h.Name() {
				t.Fatalf("heuristic name %q, want %q", res.HeuristicName, h.Name())
			}
			for id, rec := range res.Jobs {
				if rec.Completion < rec.Start || rec.Start < rec.Submit {
					t.Fatalf("%v/%s job %d has inconsistent times %+v", alg, h.Name(), id, rec)
				}
			}
		}
	}
}

func TestReallocationImprovesLoadedScenario(t *testing.T) {
	// An asymmetric platform (one big, one small cluster) with a burst trace:
	// MCT mapping at submission time overloads whichever cluster looked best
	// then, and early finishes create gaps. Reallocation must not make the
	// overall picture dramatically worse, and with cancellation it should
	// help the mean response time in this loaded scenario.
	plat := platform.Platform{
		Name: "asym",
		Clusters: []platform.ClusterSpec{
			{Name: "big", Cores: 16, Speed: 1.0},
			{Name: "small", Cores: 4, Speed: 1.0},
		},
	}
	trace := burstTrace(t, 120)
	baseline := runSim(t, Config{Platform: plat, Policy: batch.FCFS, Trace: trace})
	with := runSim(t, Config{
		Platform: plat, Policy: batch.FCFS, Trace: trace,
		Realloc: ReallocConfig{Algorithm: WithCancellation, Heuristic: MinMin(), Period: 600},
	})
	if with.TotalReallocations == 0 {
		t.Fatal("no reallocation happened in a loaded asymmetric scenario")
	}
	if with.MeanResponseTime() > baseline.MeanResponseTime()*1.10 {
		t.Fatalf("reallocation with cancellation degraded mean response time: %.1f -> %.1f",
			baseline.MeanResponseTime(), with.MeanResponseTime())
	}
}

func TestReallocationEventsFollowPeriod(t *testing.T) {
	trace := burstTrace(t, 30)
	res := runSim(t, Config{
		Platform: smallPlatform(platform.Homogeneous),
		Policy:   batch.CBF,
		Trace:    trace,
		Realloc:  ReallocConfig{Algorithm: WithoutCancellation, Heuristic: MCT(), Period: 300},
	})
	// The simulation spans at least the makespan; one reallocation pass per
	// 300 s is expected until the last job completes.
	if res.ReallocationEvents == 0 {
		t.Fatal("no reallocation events despite a configured period")
	}
	maxEvents := res.Makespan/300 + 2
	if res.ReallocationEvents > maxEvents {
		t.Fatalf("%d reallocation events for makespan %d and period 300", res.ReallocationEvents, res.Makespan)
	}
}

func TestServerLoadsReported(t *testing.T) {
	trace := burstTrace(t, 40)
	res := runSim(t, Config{
		Platform: smallPlatform(platform.Homogeneous),
		Policy:   batch.FCFS,
		Trace:    trace,
		Realloc:  ReallocConfig{Algorithm: WithCancellation, Heuristic: MCT(), Period: 600},
	})
	if len(res.ServerLoads) != 2 {
		t.Fatalf("%d server loads, want 2", len(res.ServerLoads))
	}
	totalSubmissions := int64(0)
	for _, l := range res.ServerLoads {
		totalSubmissions += l.Submissions
	}
	// Every job is submitted at least once; cancellations resubmit.
	if totalSubmissions < int64(trace.Len()) {
		t.Fatalf("total submissions %d below job count %d", totalSubmissions, trace.Len())
	}
	if res.EventsExecuted == 0 {
		t.Fatal("no events executed")
	}
}

func TestWalltimeKillRecorded(t *testing.T) {
	trace, _ := workload.NewTrace("bad", []workload.Job{
		{ID: 1, Submit: 0, Runtime: 1000, Walltime: 300, Procs: 2},
		{ID: 2, Submit: 0, Runtime: 100, Walltime: 300, Procs: 2},
	})
	res := runSim(t, Config{Platform: smallPlatform(platform.Homogeneous), Policy: batch.FCFS, Trace: trace})
	if !res.Jobs[1].Killed {
		t.Fatal("bad job not flagged as killed")
	}
	if res.Jobs[2].Killed {
		t.Fatal("good job flagged as killed")
	}
	if got := res.Jobs[1].Completion - res.Jobs[1].Start; got != 300 {
		t.Fatalf("killed job ran %d seconds, want its walltime 300", got)
	}
}

func TestSortedRecordsAndResponseHelpers(t *testing.T) {
	trace := burstTrace(t, 10)
	res := runSim(t, Config{Platform: smallPlatform(platform.Homogeneous), Policy: batch.CBF, Trace: trace})
	recs := res.SortedRecords()
	if len(recs) != 10 {
		t.Fatalf("%d records", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i-1].JobID >= recs[i].JobID {
			t.Fatal("records not sorted by job ID")
		}
	}
	r := JobRecord{Submit: 100, Start: 150, Completion: 400}
	if r.ResponseTime() != 300 || r.WaitTime() != 50 {
		t.Fatalf("helpers: response=%d wait=%d", r.ResponseTime(), r.WaitTime())
	}
	unfinished := JobRecord{Submit: 100, Start: -1, Completion: -1}
	if unfinished.ResponseTime() != -1 || unfinished.WaitTime() != -1 {
		t.Fatal("unfinished job helpers should return -1")
	}
}

func TestGeneratedScenarioSmallFractionRuns(t *testing.T) {
	// Integration: a small slice of the April scenario through the full
	// generated-workload path, with reallocation.
	trace, err := workload.Scenario("apr", 0.002, 3)
	if err != nil {
		t.Fatal(err)
	}
	res := runSim(t, Config{
		Platform:       platform.Grid5000(platform.Heterogeneous),
		Policy:         batch.CBF,
		Trace:          trace,
		Realloc:        ReallocConfig{Algorithm: WithoutCancellation, Heuristic: Sufferage()},
		ClampOversized: true,
	})
	if res.CompletedJobs() != trace.Len() {
		t.Fatalf("completed %d of %d jobs", res.CompletedJobs(), trace.Len())
	}
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

// TestSweepUnderOutageReveals runs Algorithm 2 sweeps while unannounced
// outages kill or requeue running jobs, checking every cluster's scheduler
// invariants after each event.
func TestSweepUnderOutageReveals(t *testing.T) {
	trace := burstTrace(t, 80)
	for _, policy := range []batch.OutagePolicy{batch.KillDisplaced, batch.RequeueDisplaced} {
		res := runSim(t, Config{
			Platform:         outagePlatform(),
			Policy:           batch.CBF,
			Trace:            trace,
			Realloc:          ReallocConfig{Algorithm: WithCancellation, Heuristic: MinMin(), Period: 120},
			OutagePolicy:     policy,
			VerifyInvariants: true,
		})
		if res.CompletedJobs() == 0 {
			t.Fatalf("policy %v: no job completed", policy)
		}
		if res.TotalReallocations == 0 {
			t.Fatalf("policy %v: no sweep moved a job", policy)
		}
		if policy == batch.RequeueDisplaced && res.OutageRequeues == 0 {
			t.Fatal("outages displaced nothing; the test is not exercising reveals")
		}
	}
}
