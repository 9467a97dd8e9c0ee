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
// operations and answers every estimate, so its plan is re-planned at each
// read, stopping early where it can; the second calls InvalidatePlan before
// every read, so each read re-plans the whole queue from the run profile;
// the third is never observed, so its event loop runs on head-only planning
// throughout. The operations cover submissions at the current and at a later
// instant, cancels of the head and of a random later job, time advances
// through early and exact finishes and head starts before their planned
// start, maintenance windows, outage reveals under both outage policies,
// direct estimates of random shapes and snapshot queries. After every
// operation all three must have produced the same notifications and report
// the same next event, and the first two the same queue and the same
// estimates.
func TestHeadOnlyPlanningMatchesObservedPlan(t *testing.T) {
	var splices, earlyStarts int64
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
				case op < 6: // cancel the head or a later job
					what = "cancel head"
					if blind.WaitingCount() == 0 {
						continue
					}
					pos := 0
					if op == 5 {
						what = "cancel in queue"
						pos = rng.Intn(blind.WaitingCount())
					}
					id := blind.waiting[pos].job.ID
					for _, s := range trio {
						if _, _, err := s.Cancel(id, now); err != nil {
							t.Fatalf("%s: %v", where(step, what), err)
						}
					}
				case op < 10: // advance by a random delta or to the next event
					what = "advance"
					now += int64(rng.Intn(250))
					if op >= 8 {
						what = "advance to next event"
						next, ok := blind.NextEventTime()
						if !ok {
							continue
						}
						now = next
					}
					// Record the bounded plan's windows to count the starts
					// that come before them.
					planned := make(map[int]int64)
					if observed.planBounded {
						for _, e := range observed.waiting {
							planned[e.job.ID] = e.plannedStart
						}
					}
					for i, s := range trio {
						n, err := s.Advance(now)
						if err != nil {
							t.Fatalf("%s: %v", where(step, what), err)
						}
						notes[i] = slices.Clone(n)
					}
					for _, n := range notes[0] {
						if at, ok := planned[n.JobID]; ok && n.Kind == Started && n.Time < at {
							earlyStarts++
						}
					}
				case op == 10: // estimate a random shape directly
					what = "estimate"
					j := job(-1, now, 1, int64(1+rng.Intn(600)), 1+rng.Intn(cores))
					got, want := read(func(s *Scheduler) any {
						ect, ok := s.TryEstimateCompletion(j, now)
						return [2]any{ect, ok}
					})
					if got != want {
						t.Fatalf("%s: estimate of %d cores x %ds: observed %v, re-planned %v", where(step, what), j.Procs, j.Walltime, got, want)
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
						t.Fatalf("%s: snapshot estimates of %v: observed %v, re-planned %v", where(step, what), shapes, got, want)
					}
				}
				// Listing after only some operations lets several mutations
				// reach a bounded plan before its next reader.
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
			if got := ref.ProfileStats().PlanSplices; got != 0 {
				t.Fatalf("outage=%v seed=%d: the invalidated scheduler spliced %d re-plans", outagePolicy, seed, got)
			}
			splices += observed.ProfileStats().PlanSplices
		}
	}
	if splices == 0 {
		t.Fatal("no read was served by a stopped re-plan; the sequences no longer exercise the stop rule")
	}
	if earlyStarts == 0 {
		t.Fatal("no job started before its bounded planned start; the sequences no longer exercise early starts")
	}
	t.Logf("%d reads served by stopped re-plans, %d starts before the planned start", splices, earlyStarts)
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

// stopRuleCase submits the running jobs at 0, starts them, submits the
// waiting jobs, reads the plan and checks it against want, then advances to
// finish, where a running job finishes early. It returns the scheduler and
// a reference whose next read re-plans the whole queue.
func stopRuleCase(t *testing.T, cores int, running, waiting []workload.Job, want []int64, finish int64) (s, ref *Scheduler) {
	t.Helper()
	var pair [2]*Scheduler
	for i := range pair {
		s := newTestScheduler(t, cores, 1.0, FCFS)
		s.SetDebugCrossCheck(i == 1)
		for _, j := range running {
			if err := s.Submit(j, 0, 0); err != nil {
				t.Fatal(err)
			}
		}
		collect(t, s, 0)
		for _, j := range waiting {
			if err := s.Submit(j, 0, 0); err != nil {
				t.Fatal(err)
			}
		}
		if got := plannedStarts(s); !slices.Equal(got, want) {
			t.Fatalf("planned starts before the early finish %v, want %v", got, want)
		}
		if notes := collect(t, s, finish); len(notes) != 1 || notes[0].Kind != Finished {
			t.Fatalf("t=%d: notifications %v, want one early finish", finish, notes)
		}
		pair[i] = s
	}
	pair[1].InvalidatePlan()
	return pair[0], pair[1]
}

// plannedStarts lists the planned start of every waiting job in queue order.
func plannedStarts(s *Scheduler) []int64 {
	var starts []int64
	for _, w := range s.WaitingJobs() {
		starts = append(starts, w.PlannedStart)
	}
	return starts
}

// checkStopRule reads the plan of s after the early finish and checks it
// against want and against the full re-plan of ref, and that the read
// spliced the old plan in.
func checkStopRule(t *testing.T, s, ref *Scheduler, want []int64) {
	t.Helper()
	before := s.ProfileStats()
	got := plannedStarts(s)
	after := s.ProfileStats()
	if !slices.Equal(got, want) {
		t.Fatalf("planned starts after the early finish %v, want %v", got, want)
	}
	if full := plannedStarts(ref); !slices.Equal(got, full) {
		t.Fatalf("planned starts %v, full re-plan %v", got, full)
	}
	if after.PlanRebuilds != before.PlanRebuilds+1 || after.PlanSplices != before.PlanSplices+1 {
		t.Fatalf("the read re-planned %d times and spliced %d times, want one stopped re-plan",
			after.PlanRebuilds-before.PlanRebuilds, after.PlanSplices-before.PlanSplices)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestStopRuleCountsMovedWindows is the case a stop rule that bounds only
// the finished job's tail gets wrong. Job 4 finishes at 10 instead of 100,
// which moves job 5 from [100,300) to [50,250). Job 6 keeps its start 150,
// after the released tail's end but inside job 5's old window, so the
// re-plan must go on: job 7 moves from 300 into the cores job 5 no longer
// holds at 250. Job 8 keeps 1000, after every changed window, so the re-plan
// stops there and job 9 keeps its window without being placed.
func TestStopRuleCountsMovedWindows(t *testing.T) {
	s, ref := stopRuleCase(t, 10, []workload.Job{
		job(1, 0, 1000, 1000, 2),
		job(2, 0, 150, 150, 2),
		job(3, 0, 50, 50, 2),
		job(4, 0, 10, 100, 4),
	}, []workload.Job{
		job(5, 0, 200, 200, 6),
		job(6, 0, 100, 100, 2),
		job(7, 0, 50, 50, 4),
		job(8, 0, 100, 100, 10),
		job(9, 0, 10, 10, 1),
	}, []int64{100, 150, 300, 1000, 1100}, 10)
	checkStopRule(t, s, ref, []int64{50, 150, 250, 1000, 1100})
}

// TestStopRuleWaitsForReleasedTails is the same case for the released
// tail: job 3 finishes at 10 instead of 300. Job 4 keeps its start 100,
// inside the released tail, and job 5 moves from 200 into it at 100; job 6
// keeps 400, after the tail's end, where the re-plan stops.
func TestStopRuleWaitsForReleasedTails(t *testing.T) {
	s, ref := stopRuleCase(t, 12, []workload.Job{
		job(1, 0, 400, 400, 2),
		job(2, 0, 100, 100, 6),
		job(3, 0, 10, 300, 4),
	}, []workload.Job{
		job(4, 0, 100, 100, 6),
		job(5, 0, 50, 50, 4),
		job(6, 0, 10, 10, 12),
	}, []int64{100, 200, 400}, 10)
	checkStopRule(t, s, ref, []int64{100, 100, 400})
}

// TestStopRuleAfterClockJump covers a job that moves later, which only a
// caller that moves the clock past planned starts without advancing the
// cluster can cause. Jobs 4 and 5 are planned in [100,150); job 4 is
// cancelled at 120 with no Advance, so job 5 is re-planned at 120 and holds
// its cores until 170. Job 6 keeps its start 150, after both old windows
// but inside job 5's new one, so job 7 cannot keep its start 150 beside it.
func TestStopRuleAfterClockJump(t *testing.T) {
	var pair [2]*Scheduler
	for i := range pair {
		s := newTestScheduler(t, 6, 1.0, FCFS)
		for _, j := range []workload.Job{
			job(1, 0, 100, 100, 2),
			job(2, 0, 100, 100, 2),
			job(3, 0, 150, 150, 2),
			job(4, 0, 50, 50, 2),
			job(5, 0, 50, 50, 2),
			job(6, 0, 10, 10, 4),
			job(7, 0, 10, 10, 2),
		} {
			if err := s.Submit(j, 0, 0); err != nil {
				t.Fatal(err)
			}
		}
		collect(t, s, 0)
		if got, want := plannedStarts(s), []int64{100, 100, 150, 150}; !slices.Equal(got, want) {
			t.Fatalf("planned starts %v, want %v", got, want)
		}
		if _, _, err := s.Cancel(4, 120); err != nil {
			t.Fatal(err)
		}
		pair[i] = s
	}
	pair[1].InvalidatePlan()
	got, full := plannedStarts(pair[0]), plannedStarts(pair[1])
	if want := []int64{120, 150, 160}; !slices.Equal(got, want) || !slices.Equal(full, want) {
		t.Fatalf("planned starts %v, full re-plan %v, want %v", got, full, want)
	}
}

// TestSplicedPlanAnswersEstimates pins the saving: early finishes that free
// cores no waiting job can use leave every window in place, and each
// estimate after them re-plans only the queue head before splicing in the
// old plan, with the answers a full re-plan gives. A long 4-core job holds
// the cluster's 8 cores against the 8-core queue behind it until 1000, past
// every released tail. CBF, which never splices, re-plans in full.
func TestSplicedPlanAnswersEstimates(t *testing.T) {
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
			t.Fatalf("t=%d: spliced estimate %d/%v, re-planned %d/%v", now, got, ok, want, wantOK)
		}
		if _, ok := cbf.TryEstimateCompletion(probe, now); !ok {
			t.Fatalf("t=%d: CBF estimate failed", now)
		}
	}
	if st := fcfs.ProfileStats(); st.PlanRebuilds != 4 || st.PlanSplices != 4 {
		t.Fatalf("FCFS: %d re-plans and %d splices, want 4 and 4", st.PlanRebuilds, st.PlanSplices)
	}
	if st := cbf.ProfileStats(); st.PlanRebuilds != 4 || st.PlanSplices != 0 {
		t.Fatalf("CBF: %d re-plans and %d splices, want 4 and 0", st.PlanRebuilds, st.PlanSplices)
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

// TestSpliceFrom checks the splice against the step function it must
// produce, src from t on and the old profile before t, on random profiles
// deep enough to carry bucket summaries, and that the result passes the
// structural check (breakpoints, skip hint, summaries).
func TestSpliceFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	busy := func(cores int) *profile {
		p := newProfile(int64(rng.Intn(50)), cores)
		for i := rng.Intn(80); i > 0; i-- {
			start := p.times[0] + rng.Int63n(2000)
			_ = p.reserve(start, start+1+rng.Int63n(300), 1+rng.Intn(cores/4+1))
		}
		return p
	}
	for trial := 0; trial < 2000; trial++ {
		cores := 4 + rng.Intn(28)
		p, src := busy(cores), busy(cores)
		if rng.Intn(4) == 0 {
			// A saturated prefix, which the skip hint covers.
			p.firstFree = rng.Intn(len(p.free))
			for i := 0; i < p.firstFree; i++ {
				p.free[i] = 0
			}
			p.resummarizeFrom(0)
		}
		at := max(p.times[0], src.times[0]) + rng.Int63n(2400)
		if rng.Intn(3) == 0 {
			at = src.times[rng.Intn(len(src.times))]
			at = max(at, p.times[0])
		}
		old := p.clone()
		p.spliceFrom(src, at)
		if err := p.check(); err != nil {
			t.Fatalf("trial %d: splice at %d: %v", trial, at, err)
		}
		probes := append(append([]int64{at, at - 1, at + 1}, old.times...), src.times...)
		for _, x := range probes {
			if x < old.times[0] {
				continue
			}
			want := old.freeAt(x)
			if x >= at {
				want = src.freeAt(x)
			}
			if got := p.freeAt(x); got != want {
				t.Fatalf("trial %d: splice at %d: free at %d is %d, want %d", trial, at, x, got, want)
			}
		}
		if k := p.segmentIndex(at); k > 0 && p.times[k] == at && p.free[k] == p.free[k-1] {
			t.Fatalf("trial %d: splice at %d left a redundant breakpoint", trial, at)
		}
	}
}

// TestBoundDroppedByOtherMutations checks that a mutation other than a
// finish, an early start or a cancel drops a bounded plan, so the next read
// re-plans the whole queue instead of splicing in a profile that misses the
// mutation, and that a cancel keeps the bound. The fixture's early finish at
// 20 frees cores that the 8-core queue cannot use; the outage revealed at
// 50 takes away the cores it freed.
func TestBoundDroppedByOtherMutations(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mutate  func(t *testing.T, s *Scheduler)
		bounded bool
	}{
		{"cancel", func(t *testing.T, s *Scheduler) {
			if _, _, err := s.Cancel(4, 30); err != nil {
				t.Fatal(err)
			}
		}, true},
		{"submit", func(t *testing.T, s *Scheduler) {
			if err := s.Submit(job(5, 20, 30, 30, 2), 20, 0); err != nil {
				t.Fatal(err)
			}
		}, false},
		{"outage", func(t *testing.T, s *Scheduler) { collect(t, s, 50) }, false},
		{"invalidate plan", func(t *testing.T, s *Scheduler) { s.InvalidatePlan() }, false},
		{"invalidate run profile", func(t *testing.T, s *Scheduler) { s.InvalidateRunProfile() }, false},
	} {
		var pair [2]*Scheduler
		for i := range pair {
			s, err := NewScheduler(platform.ClusterSpec{Name: "drop", Cores: 8, Speed: 1,
				Capacity: []platform.CapacityEvent{{Start: 50, End: 300, Cores: 4, Kind: platform.Outage}}}, FCFS)
			if err != nil {
				t.Fatal(err)
			}
			s.SetDebugCrossCheck(true)
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
			if !s.planDirty || !s.planBounded {
				t.Fatalf("%s: the early finish did not leave a dirty bounded plan", tc.name)
			}
			tc.mutate(t, s)
			pair[i] = s
		}
		s, ref := pair[0], pair[1]
		if s.planBounded != tc.bounded {
			t.Fatalf("%s: bounded %v after the mutation, want %v", tc.name, s.planBounded, tc.bounded)
		}
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
		if n := s.ProfileStats().PlanSplices; !tc.bounded && n != 0 {
			t.Fatalf("%s: the read after the mutation spliced %d re-plans", tc.name, n)
		}
	}
}
