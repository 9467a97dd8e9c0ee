package batch

import (
	"math/rand"
	"testing"

	"gridrealloc/internal/platform"
)

// capacityScheduler builds a scheduler over a cluster with a capacity
// timeline.
func capacityScheduler(t *testing.T, cores int, policy Policy, events ...platform.CapacityEvent) *Scheduler {
	t.Helper()
	s, err := NewScheduler(platform.ClusterSpec{Name: "cap", Cores: cores, Speed: 1.0, Capacity: events}, policy)
	if err != nil {
		t.Fatal(err)
	}
	s.SetDebugCrossCheck(true)
	return s
}

func TestMaintenanceWindowPlansAround(t *testing.T) {
	// 8 cores, a full maintenance outage in [100, 200). A 6-core job of
	// walltime 150 submitted at t=0 cannot finish before the window and must
	// be planned after it; a 2-core job of walltime 50 fits before.
	s := capacityScheduler(t, 8, CBF,
		platform.CapacityEvent{Start: 100, End: 200, Cores: 0, Kind: platform.Maintenance})
	if err := s.Submit(job(1, 0, 150, 150, 6), 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(job(2, 0, 50, 50, 2), 0, 0); err != nil {
		t.Fatal(err)
	}
	jobs := s.WaitingJobs()
	if jobs[0].PlannedStart != 200 {
		t.Fatalf("wide job planned at %d, want 200 (after the maintenance window)", jobs[0].PlannedStart)
	}
	if jobs[1].PlannedStart != 0 {
		t.Fatalf("narrow job planned at %d, want 0 (backfilled before the window)", jobs[1].PlannedStart)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMaintenanceNeverDisplacesRunningJobs(t *testing.T) {
	// Partial maintenance [100, 200) keeping 4 of 8 cores: a 6-core job
	// started at 0 with walltime 150 would collide, so the planner must not
	// start it before the window in the first place.
	s := capacityScheduler(t, 8, FCFS,
		platform.CapacityEvent{Start: 100, End: 200, Cores: 4, Kind: platform.Maintenance})
	if err := s.Submit(job(1, 0, 150, 150, 6), 0, 0); err != nil {
		t.Fatal(err)
	}
	notes := collect(t, s, 400)
	for _, n := range notes {
		if n.Displaced {
			t.Fatalf("maintenance displaced job %d at t=%d", n.JobID, n.Time)
		}
	}
	if got := notes[0]; got.Kind != Started || got.Time != 200 {
		t.Fatalf("first note = %+v, want a start at t=200", got)
	}
}

func TestMaintenancePartialCapacityRuns(t *testing.T) {
	// A 3-core job fits under the 4-core maintenance ceiling and must start
	// immediately even though the window is ahead.
	s := capacityScheduler(t, 8, CBF,
		platform.CapacityEvent{Start: 50, End: 150, Cores: 4, Kind: platform.Maintenance})
	if err := s.Submit(job(1, 0, 120, 120, 3), 0, 0); err != nil {
		t.Fatal(err)
	}
	notes := collect(t, s, 0)
	if len(notes) != 1 || notes[0].Kind != Started || notes[0].Time != 0 {
		t.Fatalf("notes = %+v, want an immediate start", notes)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestOutageKillsDisplacedJobs(t *testing.T) {
	// Unannounced full outage at t=100: both running jobs die.
	s := capacityScheduler(t, 8, FCFS,
		platform.CapacityEvent{Start: 100, End: 200, Cores: 0, Kind: platform.Outage})
	if err := s.Submit(job(1, 0, 300, 300, 4), 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(job(2, 0, 300, 300, 4), 0, 0); err != nil {
		t.Fatal(err)
	}
	collect(t, s, 50)
	if s.RunningCount() != 2 {
		t.Fatalf("running = %d before the outage, want 2", s.RunningCount())
	}
	notes := collect(t, s, 150)
	kills := 0
	for _, n := range notes {
		if n.Kind == Finished {
			if !n.Killed || !n.Displaced || n.Time != 100 {
				t.Fatalf("displacement note = %+v, want killed+displaced at t=100", n)
			}
			kills++
		}
	}
	if kills != 2 {
		t.Fatalf("kills = %d, want 2", kills)
	}
	if s.RunningCount() != 0 || s.WaitingCount() != 0 {
		t.Fatalf("state after outage: running=%d waiting=%d", s.RunningCount(), s.WaitingCount())
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestOutageRequeuePutsJobsBackAndRestarts(t *testing.T) {
	// Partial outage [100, 200) keeping 4 cores: the most recently started
	// job is requeued, waits out the window, and restarts at 200.
	s := capacityScheduler(t, 8, FCFS,
		platform.CapacityEvent{Start: 100, End: 200, Cores: 4, Kind: platform.Outage})
	s.SetOutagePolicy(RequeueDisplaced)
	if err := s.Submit(job(1, 0, 300, 300, 4), 0, 0); err != nil {
		t.Fatal(err)
	}
	collect(t, s, 10)
	if err := s.Submit(job(2, 10, 300, 300, 4), 10, 0); err != nil {
		t.Fatal(err)
	}
	notes := collect(t, s, 150)
	var requeue *Notification
	for i := range notes {
		if notes[i].Kind == Requeued {
			requeue = &notes[i]
		}
	}
	if requeue == nil || requeue.JobID != 2 || requeue.Time != 100 || !requeue.Displaced {
		t.Fatalf("requeue note = %+v, want job 2 requeued at t=100", requeue)
	}
	if s.RunningCount() != 1 || s.WaitingCount() != 1 {
		t.Fatalf("state during outage: running=%d waiting=%d", s.RunningCount(), s.WaitingCount())
	}
	// The requeued job keeps its identity and is planned after the window
	// (job 1 still holds the 4 surviving cores until t=300).
	ect, err := s.CurrentCompletion(2)
	if err != nil {
		t.Fatal(err)
	}
	if ect <= 200 {
		t.Fatalf("requeued job completes at %d, want after the window", ect)
	}
	notes = collect(t, s, 1000)
	restarted := false
	for _, n := range notes {
		if n.Kind == Started && n.JobID == 2 {
			restarted = true
			if n.Time < 200 {
				t.Fatalf("job 2 restarted at %d, inside the outage window", n.Time)
			}
		}
	}
	if !restarted {
		t.Fatal("requeued job never restarted")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestOutageRequeueProtectsSeniority(t *testing.T) {
	// Full outage displaces both running jobs; the earlier-started one must
	// come back at the head of the queue.
	s := capacityScheduler(t, 8, FCFS,
		platform.CapacityEvent{Start: 100, End: 200, Cores: 0, Kind: platform.Outage})
	s.SetOutagePolicy(RequeueDisplaced)
	if err := s.Submit(job(1, 0, 400, 400, 4), 0, 0); err != nil {
		t.Fatal(err)
	}
	collect(t, s, 10)
	if err := s.Submit(job(2, 10, 400, 400, 4), 10, 0); err != nil {
		t.Fatal(err)
	}
	collect(t, s, 150)
	waiting := s.WaitingJobs()
	if len(waiting) != 2 || waiting[0].Job.ID != 1 || waiting[1].Job.ID != 2 {
		t.Fatalf("queue after requeue = %v, want job 1 before job 2", waiting)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEstimatesSeeCapacityWindows(t *testing.T) {
	// ECT queries must route hypothetical jobs around a maintenance window.
	s := capacityScheduler(t, 8, CBF,
		platform.CapacityEvent{Start: 100, End: 300, Cores: 0, Kind: platform.Maintenance})
	probe := job(9, 0, 150, 150, 8)
	ect, err := s.EstimateCompletion(probe, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ect != 450 {
		t.Fatalf("ECT through the window = %d, want 450 (start at 300)", ect)
	}
	var snap EstimateSnapshot
	if err := s.EstimateSnapshotInto(&snap, 0); err != nil {
		t.Fatal(err)
	}
	if got, err := snap.EstimateCompletion(probe); err != nil || got != ect {
		t.Fatalf("snapshot ECT = %d (%v), want %d", got, err, ect)
	}
}

func TestAppendFastPathAcrossCapacitySteps(t *testing.T) {
	// Submissions at an unchanged clock ride the append fast path; the
	// published plan must still match a full re-plan when the profile
	// carries capacity steps.
	s := capacityScheduler(t, 8, CBF,
		platform.CapacityEvent{Start: 60, End: 120, Cores: 2, Kind: platform.Maintenance},
		platform.CapacityEvent{Start: 200, End: 260, Cores: 4, Kind: platform.Outage})
	for i := 1; i <= 20; i++ {
		if err := s.Submit(job(i, 0, 50, 50, 1+i%6), 0, 0); err != nil {
			t.Fatal(err)
		}
		if err := s.CheckProfileConsistency(); err != nil {
			t.Fatalf("after append %d: %v", i, err)
		}
	}
	stats := s.ProfileStats()
	if stats.PlanAppends == 0 {
		t.Fatal("no submission used the append fast path")
	}
	collect(t, s, 500)
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestOutageRevealedLateIsHarmless(t *testing.T) {
	// Jumping the clock far past a whole outage window must not corrupt the
	// profile: the reveal fires during the advance and degenerates to a
	// no-op for the part of the window already in the past.
	s := capacityScheduler(t, 8, FCFS,
		platform.CapacityEvent{Start: 100, End: 200, Cores: 0, Kind: platform.Outage})
	if err := s.Submit(job(1, 0, 50, 50, 4), 0, 0); err != nil {
		t.Fatal(err)
	}
	collect(t, s, 1000)
	if err := s.Submit(job(2, 1000, 50, 50, 4), 1000, 0); err != nil {
		t.Fatal(err)
	}
	collect(t, s, 2000)
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCapacityProfileMatchesScratch drives randomized workloads over
// randomized capacity timelines and checks, after every step, that the
// incrementally maintained profile equals a from-scratch rebuild and that
// the published plan equals a fresh re-plan (the capacity extension of the
// PR 1 property test). The debug cross-check is on, so any divergence also
// panics inside the scheduler itself.
func TestPropertyCapacityProfileMatchesScratch(t *testing.T) {
	for _, policy := range []Policy{FCFS, CBF} {
		for _, outagePolicy := range []OutagePolicy{KillDisplaced, RequeueDisplaced} {
			for seed := int64(0); seed < 12; seed++ {
				rng := rand.New(rand.NewSource(seed))
				cores := 8 + rng.Intn(24)
				var events []platform.CapacityEvent
				at := int64(rng.Intn(200))
				for len(events) < 1+rng.Intn(3) {
					length := int64(50 + rng.Intn(300))
					kind := platform.Maintenance
					if rng.Intn(2) == 0 {
						kind = platform.Outage
					}
					events = append(events, platform.CapacityEvent{
						Start: at, End: at + length, Cores: rng.Intn(cores), Kind: kind,
					})
					at += length + int64(1+rng.Intn(200))
				}
				s := capacityScheduler(t, cores, policy, events...)
				s.SetOutagePolicy(outagePolicy)
				now := int64(0)
				for id := 1; id <= 60; id++ {
					if rng.Intn(3) == 0 {
						now += int64(rng.Intn(120))
						if _, err := s.Advance(now); err != nil {
							t.Fatal(err)
						}
					}
					run := int64(1 + rng.Intn(200))
					wall := run + int64(rng.Intn(200))
					if err := s.Submit(job(id, now, run, wall, 1+rng.Intn(cores)), now, 0); err != nil {
						t.Fatal(err)
					}
					if rng.Intn(4) == 0 {
						victim := 1 + rng.Intn(id)
						_, _, _ = s.Cancel(victim, now)
					}
					if err := s.CheckInvariants(); err != nil {
						t.Fatalf("policy=%v outage=%v seed=%d after job %d: %v", policy, outagePolicy, seed, id, err)
					}
				}
				// Drain to the end so late windows are crossed too.
				if _, err := s.Advance(at + 10000); err != nil {
					t.Fatal(err)
				}
				if err := s.CheckInvariants(); err != nil {
					t.Fatalf("policy=%v outage=%v seed=%d after drain: %v", policy, outagePolicy, seed, err)
				}
			}
		}
	}
}
