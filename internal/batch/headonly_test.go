package batch

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"gridrealloc/internal/platform"
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
// sequences on two schedulers. One lists its waiting queue after every
// operation, which forces a full re-plan each time; the other is never
// observed, so its event loop runs on head-only planning throughout. The
// operations cover submissions at the current and at a later instant,
// cancels of the head and of a middle job, time advances through early and
// exact finishes, maintenance windows and outage reveals under both outage
// policies. After every operation both must have produced the same
// notifications and report the same next event.
func TestHeadOnlyPlanningMatchesObservedPlan(t *testing.T) {
	for _, outagePolicy := range []OutagePolicy{KillDisplaced, RequeueDisplaced} {
		for seed := int64(0); seed < 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			cores := 4 + rng.Intn(28)
			spec := platform.ClusterSpec{Name: "head", Cores: cores, Speed: 1 + rng.Float64(), Capacity: randomCapacity(rng, cores)}
			var pair [2]*Scheduler
			for i := range pair {
				s, err := NewScheduler(spec, FCFS)
				if err != nil {
					t.Fatal(err)
				}
				s.SetOutagePolicy(outagePolicy)
				s.SetDebugCrossCheck(true)
				pair[i] = s
			}
			observed, blind := pair[0], pair[1]
			where := func(step int, what string) string {
				return fmt.Sprintf("outage=%v seed=%d step %d (%s)", outagePolicy, seed, step, what)
			}
			now := int64(0)
			nextID := 1
			for step := 0; step < 300; step++ {
				var what string
				var notes [2][]Notification
				switch op := rng.Intn(10); {
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
					for _, s := range pair {
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
					for _, s := range pair {
						if _, _, err := s.Cancel(id, now); err != nil {
							t.Fatalf("%s: %v", where(step, what), err)
						}
					}
				case op < 8: // advance by a random delta
					what = "advance"
					now += int64(rng.Intn(250))
					for i, s := range pair {
						n, err := s.Advance(now)
						if err != nil {
							t.Fatalf("%s: %v", where(step, what), err)
						}
						notes[i] = slices.Clone(n)
					}
				default: // advance exactly to the next event
					what = "advance to next event"
					next, ok := blind.NextEventTime()
					if !ok {
						continue
					}
					now = next
					for i, s := range pair {
						n, err := s.Advance(now)
						if err != nil {
							t.Fatalf("%s: %v", where(step, what), err)
						}
						notes[i] = slices.Clone(n)
					}
				}
				_ = observed.WaitingJobs()
				if !slices.Equal(notes[0], notes[1]) {
					t.Fatalf("%s: notifications diverged:\nobserved %v\nblind    %v", where(step, what), notes[0], notes[1])
				}
				t0, ok0 := observed.NextEventTime()
				t1, ok1 := blind.NextEventTime()
				if t0 != t1 || ok0 != ok1 {
					t.Fatalf("%s: next event diverged: observed %d/%v, blind %d/%v", where(step, what), t0, ok0, t1, ok1)
				}
			}
			for i, s := range pair {
				if err := s.CheckInvariants(); err != nil {
					t.Fatalf("outage=%v seed=%d scheduler %d: %v", outagePolicy, seed, i, err)
				}
			}
			if a, b := observed.WaitingJobs(), blind.WaitingJobs(); !slices.Equal(a, b) {
				t.Fatalf("outage=%v seed=%d: final queues diverged:\nobserved %v\nblind    %v", outagePolicy, seed, a, b)
			}
		}
	}
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
