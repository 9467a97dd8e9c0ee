package batch

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"gridrealloc/internal/platform"
	"gridrealloc/internal/workload"
)

// randomCapacity draws a few non-overlapping maintenance and outage windows
// over the first few thousand seconds of a cluster of the given size.
func randomCapacity(rng *rand.Rand, cores int) []platform.CapacityEvent {
	var events []platform.CapacityEvent
	at := int64(rng.Intn(300))
	for len(events) < 1+rng.Intn(4) {
		length := int64(50 + rng.Intn(400))
		kind := platform.Maintenance
		if rng.Intn(2) == 0 {
			kind = platform.Outage
		}
		events = append(events, platform.CapacityEvent{Start: at, End: at + length, Cores: rng.Intn(cores), Kind: kind})
		at += length + int64(1+rng.Intn(300))
	}
	return events
}

// TestHeadOnlyPlanningMatchesObservedPlan replays random FCFS operation
// sequences on three schedulers. One lists its waiting queue after half the
// operations and answers every estimate, so its plan is patched or rebuilt
// at each read; the second calls InvalidatePlan before every read, so each
// read re-plans from the run profile; the third is never observed, so its
// event loop runs on head-only planning throughout. The operations cover
// submissions at the current and at a later instant, cancels of the head
// and of a middle job, time advances through early and exact finishes,
// maintenance windows, outage reveals under both outage policies, direct
// estimates of random shapes and snapshot queries. After every operation
// all three must have produced the same notifications and report the same
// next event, and the first two the same queue and the same estimates.
func TestHeadOnlyPlanningMatchesObservedPlan(t *testing.T) {
	var patches int64
	for _, outagePolicy := range []OutagePolicy{KillDisplaced, RequeueDisplaced} {
		for seed := int64(0); seed < 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			cores := 4 + rng.Intn(28)
			spec := platform.ClusterSpec{Name: "head", Cores: cores, Speed: 1 + rng.Float64(), Capacity: randomCapacity(rng, cores)}
			var trio [3]*Scheduler
			for i := range trio {
				s, err := NewScheduler(spec, FCFS)
				if err != nil {
					t.Fatal(err)
				}
				s.SetOutagePolicy(outagePolicy)
				s.SetDebugCrossCheck(true)
				trio[i] = s
			}
			observed, ref, blind := trio[0], trio[1], trio[2]
			// read runs one plan reader on observed and on ref, the latter
			// after invalidating its plan.
			read := func(fn func(s *Scheduler) any) (got, want any) {
				got = fn(observed)
				ref.InvalidatePlan()
				return got, fn(ref)
			}
			where := func(step int, what string) string {
				return fmt.Sprintf("outage=%v seed=%d step %d (%s)", outagePolicy, seed, step, what)
			}
			now := int64(0)
			nextID := 1
			for step := 0; step < 300; step++ {
				var what string
				var notes [3][]Notification
				switch op := rng.Intn(12); {
				case op < 4: // submit, at the current or at a later instant
					what = "submit"
					if op == 3 {
						what = "submit later"
						now += int64(rng.Intn(200))
						// Never jump over a pending event: the driver
						// advances the clusters before it submits.
						if next, ok := blind.NextEventTime(); ok && next < now {
							now = next
						}
					}
					run := int64(1 + rng.Intn(300))
					wall := run
					if rng.Intn(2) == 0 {
						wall += int64(1 + rng.Intn(300)) // finishes early
					}
					j := job(nextID, now, run, wall, 1+rng.Intn(cores))
					moved := rng.Intn(3)
					nextID++
					for _, s := range trio {
						if err := s.Submit(j, now, moved); err != nil {
							t.Fatalf("%s: %v", where(step, what), err)
						}
					}
				case op < 6: // cancel the head or a middle job
					what = "cancel head"
					if blind.WaitingCount() == 0 {
						continue
					}
					pos := 0
					if op == 5 {
						what = "cancel middle"
						pos = blind.WaitingCount() / 2
					}
					id := blind.waiting[pos].job.ID
					for _, s := range trio {
						if _, _, err := s.Cancel(id, now); err != nil {
							t.Fatalf("%s: %v", where(step, what), err)
						}
					}
				case op < 8: // advance by a random delta
					what = "advance"
					now += int64(rng.Intn(250))
					for i, s := range trio {
						n, err := s.Advance(now)
						if err != nil {
							t.Fatalf("%s: %v", where(step, what), err)
						}
						notes[i] = slices.Clone(n)
					}
				case op < 10: // advance exactly to the next event
					what = "advance to next event"
					next, ok := blind.NextEventTime()
					if !ok {
						continue
					}
					now = next
					for i, s := range trio {
						n, err := s.Advance(now)
						if err != nil {
							t.Fatalf("%s: %v", where(step, what), err)
						}
						notes[i] = slices.Clone(n)
					}
				case op == 10: // estimate a random shape directly
					what = "estimate"
					j := job(-1, now, 1, int64(1+rng.Intn(600)), 1+rng.Intn(cores))
					got, want := read(func(s *Scheduler) any {
						ect, ok := s.TryEstimateCompletion(j, now)
						return [2]any{ect, ok}
					})
					if got != want {
						t.Fatalf("%s: estimate of %d cores x %ds: patched %v, re-planned %v", where(step, what), j.Procs, j.Walltime, got, want)
					}
				default: // snapshot queries of random shapes
					what = "snapshot"
					var shapes [3][2]int64
					for i := range shapes {
						shapes[i] = [2]int64{int64(1 + rng.Intn(cores)), int64(1 + rng.Intn(600))}
					}
					got, want := read(func(s *Scheduler) any {
						var sn EstimateSnapshot
						if err := s.EstimateSnapshotInto(&sn, now); err != nil {
							t.Fatalf("%s: %v", where(step, what), err)
						}
						var ects [3]int64
						for i, sh := range shapes {
							ects[i], _ = sn.TryEstimateCompletionScaled(int(sh[0]), sh[1])
						}
						return ects
					})
					if got != want {
						t.Fatalf("%s: snapshot estimates of %v: patched %v, re-planned %v", where(step, what), shapes, got, want)
					}
				}
				// Listing after only some operations lets several mutations
				// reach a patched plan before its next reader.
				if rng.Intn(2) == 0 {
					if got, want := read(func(s *Scheduler) any { return s.WaitingJobs() }); !slices.Equal(got.([]WaitingJob), want.([]WaitingJob)) {
						t.Fatalf("%s: queues diverged:\nobserved   %v\nre-planned %v", where(step, what), got, want)
					}
				}
				if !slices.Equal(notes[0], notes[2]) || !slices.Equal(notes[1], notes[2]) {
					t.Fatalf("%s: notifications diverged:\nobserved   %v\nre-planned %v\nblind      %v", where(step, what), notes[0], notes[1], notes[2])
				}
				t0, ok0 := observed.NextEventTime()
				t1, ok1 := ref.NextEventTime()
				t2, ok2 := blind.NextEventTime()
				if t0 != t2 || ok0 != ok2 || t1 != t2 || ok1 != ok2 {
					t.Fatalf("%s: next event diverged: observed %d/%v, re-planned %d/%v, blind %d/%v", where(step, what), t0, ok0, t1, ok1, t2, ok2)
				}
			}
			for i, s := range trio {
				if err := s.CheckInvariants(); err != nil {
					t.Fatalf("outage=%v seed=%d scheduler %d: %v", outagePolicy, seed, i, err)
				}
			}
			if a, b := observed.WaitingJobs(), blind.WaitingJobs(); !slices.Equal(a, b) {
				t.Fatalf("outage=%v seed=%d: final queues diverged:\nobserved %v\nblind    %v", outagePolicy, seed, a, b)
			}
			if got := ref.ProfileStats().PlanPatches; got != 0 {
				t.Fatalf("outage=%v seed=%d: the invalidated scheduler published %d patched plans", outagePolicy, seed, got)
			}
			patches += observed.ProfileStats().PlanPatches
		}
	}
	if patches == 0 {
		t.Fatal("no read was served by a patched plan; the sequences no longer exercise patching")
	}
	t.Logf("%d reads served by patched plans", patches)
}

// earlyFinishQueue submits a deep queue of jobs that all finish well before
// their walltime, so every completion releases a reservation tail and
// dirties the plan.
func earlyFinishQueue(t *testing.T, policy Policy) *Scheduler {
	t.Helper()
	s := newTestScheduler(t, 8, 1.0, policy)
	for i := 0; i < 200; i++ {
		if err := s.Submit(job(i+1, 0, int64(20+i%37), 400, 1+i%5), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// drainCountingEarly runs the scheduler's event loop to the end and returns
// the number of jobs that finished before their walltime.
func drainCountingEarly(t *testing.T, s *Scheduler) int {
	t.Helper()
	started := make(map[int]int64)
	early := 0
	for {
		next, ok := s.NextEventTime()
		if !ok {
			return early
		}
		for _, n := range collect(t, s, next) {
			switch n.Kind {
			case Started:
				started[n.JobID] = n.Time
			case Finished:
				if n.Time < started[n.JobID]+400 {
					early++
				}
			}
		}
	}
}

// TestHeadOnlyEventLoopNeverRebuilds pins the saving: an FCFS queue driven
// through many early finishes, with nobody reading the plan, is never
// re-planned in full. The same queue under CBF, where any job may
// backfill, re-plans after every early finish.
func TestHeadOnlyEventLoopNeverRebuilds(t *testing.T) {
	fcfs := earlyFinishQueue(t, FCFS)
	if early := drainCountingEarly(t, fcfs); early != 200 {
		t.Fatalf("FCFS: %d early finishes, want 200", early)
	}
	if got := fcfs.ProfileStats().PlanRebuilds; got != 0 {
		t.Fatalf("FCFS event loop re-planned %d times with no reader, want 0", got)
	}
	cbf := earlyFinishQueue(t, CBF)
	drainCountingEarly(t, cbf)
	if got := cbf.ProfileStats().PlanRebuilds; got < 100 {
		t.Fatalf("CBF event loop re-planned only %d times; the fixture no longer dirties the plan", got)
	}
}

// TestWaitingReallocationsReadsNoPlan checks the plan-free listing: it
// reports every waiting job's reallocation count in queue order, matches
// the planned listing, and leaves a dirty plan dirty.
func TestWaitingReallocationsReadsNoPlan(t *testing.T) {
	s := newTestScheduler(t, 4, 1.0, FCFS)
	for i := 0; i < 6; i++ {
		if err := s.Submit(job(i+1, 0, 100, 200, 4), 0, i); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s.Cancel(3, 10); err != nil {
		t.Fatal(err)
	}
	var ids, moved []int
	s.WaitingReallocations(func(id, n int) {
		ids = append(ids, id)
		moved = append(moved, n)
	})
	if got := s.ProfileStats().PlanRebuilds; got != 0 {
		t.Fatalf("plan-free listing re-planned %d times", got)
	}
	var wantIDs, wantMoved []int
	for _, w := range s.WaitingJobs() {
		wantIDs = append(wantIDs, w.Job.ID)
		wantMoved = append(wantMoved, w.Reallocations)
	}
	if !slices.Equal(ids, wantIDs) || !slices.Equal(moved, wantMoved) {
		t.Fatalf("plan-free listing %v/%v, planned listing %v/%v", ids, moved, wantIDs, wantMoved)
	}
}

// TestHeadOnlyCrossCheckCatchesDivergence corrupts the run profile behind
// the scheduler's back and checks that the debug cross-check of head-only
// decisions panics instead of starting the head at the wrong instant.
func TestHeadOnlyCrossCheckCatchesDivergence(t *testing.T) {
	s := newTestScheduler(t, 4, 1.0, FCFS)
	s.SetDebugCrossCheck(true)
	if err := s.Submit(job(1, 0, 50, 100, 4), 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(job(2, 0, 50, 100, 4), 0, 0); err != nil {
		t.Fatal(err)
	}
	collect(t, s, 0) // job 1 starts; job 2 waits for its walltime end
	if err := s.runProf.reserve(100, 300, 1); err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("a head-only start on a corrupted run profile did not panic")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "head-only") {
			t.Fatalf("panic came from elsewhere: %s", msg)
		}
	}()
	collect(t, s, 60) // job 1 finishes early: the head is re-planned
}

// TestPatchSeesHoleBeforeBusyRegion is the case a test of only the instant
// before a job's planned start gets wrong. A 22-core job waits for 720,
// the end of a maintenance window that leaves 6 cores. An early finish at
// 100 opens [115,440) with all 32 cores free, so the job fits in [115,415)
// although at 719 it still does not. The patched plan must be rejected and
// the job re-planned at 115.
func TestPatchSeesHoleBeforeBusyRegion(t *testing.T) {
	for _, debug := range []bool{false, true} {
		s := capacityScheduler(t, 32, FCFS, platform.CapacityEvent{Start: 440, End: 720, Cores: 6, Kind: platform.Maintenance})
		s.SetDebugCrossCheck(debug)
		for _, j := range []workload.Job{
			job(1, 0, 100, 440, 12), // finishes early, releasing [100,440)
			job(2, 0, 115, 115, 12), // runs out its walltime
			job(3, 0, 300, 300, 22),
		} {
			if err := s.Submit(j, 0, 0); err != nil {
				t.Fatal(err)
			}
		}
		collect(t, s, 0)
		if w := s.WaitingJobs(); len(w) != 1 || w[0].PlannedStart != 720 {
			t.Fatalf("debug=%v: before the early finish the queue is %v, want job 3 at 720", debug, w)
		}
		collect(t, s, 100)
		before := s.ProfileStats()
		if w := s.WaitingJobs(); len(w) != 1 || w[0].PlannedStart != 115 {
			t.Fatalf("debug=%v: after the early finish the queue is %v, want job 3 at 115", debug, w)
		}
		after := s.ProfileStats()
		if after.PlanPatches != before.PlanPatches || after.PlanRebuilds != before.PlanRebuilds+1 {
			t.Fatalf("debug=%v: the read patched %d and rebuilt %d times, want a single rebuild",
				debug, after.PlanPatches-before.PlanPatches, after.PlanRebuilds-before.PlanRebuilds)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("debug=%v: %v", debug, err)
		}
	}
}

// TestPatchedPlanAnswersEstimatesWithoutRebuild pins the saving: early
// finishes that free cores no waiting job can use leave the plan patched,
// and every estimate after them is answered without a re-plan, with the
// answers a re-planned scheduler gives. A long 4-core job holds the
// cluster's 8 cores against the 8-core queue behind it until 1000, so the
// four 1-core jobs' early finishes change nothing. CBF, which patches
// nothing, re-plans on every such estimate.
func TestPatchedPlanAnswersEstimatesWithoutRebuild(t *testing.T) {
	setup := func(policy Policy) *Scheduler {
		s := newTestScheduler(t, 8, 1.0, policy)
		s.SetDebugCrossCheck(true)
		jobs := []workload.Job{job(1, 0, 1000, 1000, 4)}
		for i := 0; i < 4; i++ {
			jobs = append(jobs, job(2+i, 0, int64(10*(i+1)), 500, 1))
		}
		for i := 0; i < 5; i++ {
			jobs = append(jobs, job(6+i, 0, 100, 100, 8))
		}
		for _, j := range jobs {
			if err := s.Submit(j, 0, 0); err != nil {
				t.Fatal(err)
			}
		}
		collect(t, s, 0)
		return s
	}
	fcfs, ref, cbf := setup(FCFS), setup(FCFS), setup(CBF)
	probe := job(99, 0, 50, 50, 3)
	for now := int64(10); now <= 40; now += 10 {
		for _, s := range []*Scheduler{fcfs, ref, cbf} {
			if notes := collect(t, s, now); len(notes) != 1 || notes[0].Kind != Finished {
				t.Fatalf("t=%d: notifications %v, want one early finish", now, notes)
			}
		}
		ref.InvalidatePlan()
		got, ok := fcfs.TryEstimateCompletion(probe, now)
		want, wantOK := ref.TryEstimateCompletion(probe, now)
		if got != want || ok != wantOK {
			t.Fatalf("t=%d: patched estimate %d/%v, re-planned %d/%v", now, got, ok, want, wantOK)
		}
		if _, ok := cbf.TryEstimateCompletion(probe, now); !ok {
			t.Fatalf("t=%d: CBF estimate failed", now)
		}
	}
	if st := fcfs.ProfileStats(); st.PlanRebuilds != 0 || st.PlanPatches != 4 {
		t.Fatalf("FCFS: %d rebuilds and %d patches, want 0 and 4", st.PlanRebuilds, st.PlanPatches)
	}
	if st := cbf.ProfileStats(); st.PlanRebuilds != 4 || st.PlanPatches != 0 {
		t.Fatalf("CBF: %d rebuilds and %d patches, want 4 and 0", st.PlanRebuilds, st.PlanPatches)
	}
}

// TestConsistencyCheckComparesPlanProfile corrupts planProf beyond every
// planned window, where no published window shows it, and checks that the
// consistency check catches it without the debug cross-check.
func TestConsistencyCheckComparesPlanProfile(t *testing.T) {
	s := newTestScheduler(t, 4, 1.0, FCFS)
	for i := 0; i < 3; i++ {
		if err := s.Submit(job(i+1, 0, 50, 100, 4), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	collect(t, s, 0)
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := s.planProf.reserve(1000, 1100, 1); err != nil {
		t.Fatal(err)
	}
	err := s.CheckProfileConsistency()
	if err == nil || !strings.Contains(err.Error(), "plan profile diverged") {
		t.Fatalf("a corrupted plan profile passed the check: %v", err)
	}
}

// TestFitsBefore checks the patch test's scan against a brute-force search
// over every start in [lower, end) on random profiles.
func TestFitsBefore(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		p := randomBusyProfile(rng)
		last := p.times[len(p.times)-1]
		lower := p.times[0] + int64(rng.Intn(int(last-p.times[0])+50))
		end := lower + int64(rng.Intn(400))
		duration := int64(1 + rng.Intn(300))
		procs := 1 + rng.Intn(p.cores)
		want := false
		for y := lower; y < end && !want; y++ {
			want = p.findSlot(y, min(y+duration, end)-y, procs) == y
		}
		got, hint := p.fitsBefore(rng.Intn(p.segmentIndex(lower)+1), lower, end, duration, procs)
		if got != want {
			t.Fatalf("trial %d: fitsBefore(%d, %d, %d, %d) = %v, brute force %v on %v/%v",
				trial, lower, end, duration, procs, got, want, p.times, p.free)
		}
		if !got && hint != p.segmentIndex(end) {
			t.Fatalf("trial %d: hint %d, segment of %d is %d", trial, hint, end, p.segmentIndex(end))
		}
	}
}

// TestPatchDroppedByOtherMutations checks that a mutation other than a
// finish or an on-plan start drops a patched plan, so the next read
// re-plans instead of publishing a profile that misses the mutation. The
// fixture's early finish at 20 frees cores that the 8-core queue cannot
// use, which leaves the plan patched; the outage revealed at 50 takes away
// the cores it freed.
func TestPatchDroppedByOtherMutations(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(t *testing.T, s *Scheduler)
	}{
		{"cancel", func(t *testing.T, s *Scheduler) {
			if _, _, err := s.Cancel(4, 30); err != nil {
				t.Fatal(err)
			}
		}},
		{"submit", func(t *testing.T, s *Scheduler) {
			if err := s.Submit(job(5, 20, 30, 30, 2), 20, 0); err != nil {
				t.Fatal(err)
			}
		}},
		{"outage", func(t *testing.T, s *Scheduler) { collect(t, s, 50) }},
		{"invalidate plan", func(t *testing.T, s *Scheduler) { s.InvalidatePlan() }},
		{"invalidate run profile", func(t *testing.T, s *Scheduler) { s.InvalidateRunProfile() }},
	} {
		var pair [2]*Scheduler
		for i := range pair {
			s, err := NewScheduler(platform.ClusterSpec{Name: "drop", Cores: 8, Speed: 1,
				Capacity: []platform.CapacityEvent{{Start: 50, End: 300, Cores: 4, Kind: platform.Outage}}}, FCFS)
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range []workload.Job{
				job(1, 0, 1000, 1000, 4),
				job(2, 0, 20, 500, 4),
				job(3, 0, 100, 100, 8),
				job(4, 0, 100, 100, 8),
			} {
				if err := s.Submit(j, 0, 0); err != nil {
					t.Fatal(err)
				}
			}
			collect(t, s, 0)
			_ = s.WaitingJobs()
			collect(t, s, 20)
			if !s.planPatched {
				t.Fatalf("%s: the early finish did not leave the plan patched", tc.name)
			}
			tc.mutate(t, s)
			pair[i] = s
		}
		s, ref := pair[0], pair[1]
		ref.InvalidatePlan()
		probe := job(99, 0, 50, 50, 4)
		got, ok := s.TryEstimateCompletion(probe, s.Now())
		want, wantOK := ref.TryEstimateCompletion(probe, ref.Now())
		if got != want || ok != wantOK {
			t.Fatalf("%s: estimate %d/%v, re-planned %d/%v", tc.name, got, ok, want, wantOK)
		}
		if a, b := s.WaitingJobs(), ref.WaitingJobs(); !slices.Equal(a, b) {
			t.Fatalf("%s: queue %v, re-planned %v", tc.name, a, b)
		}
		if n := s.ProfileStats().PlanPatches; n != 0 {
			t.Fatalf("%s: the read after the mutation published %d patched plans", tc.name, n)
		}
	}
}
