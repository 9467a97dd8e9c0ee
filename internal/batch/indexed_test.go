package batch

// Tests for the indexed/incremental scheduler internals: job-ID lookup and
// cancellation states, completion predictions across requeues, estimate
// snapshots, lazy re-planning, and the equivalence between the
// incrementally maintained run profile and its from-scratch reference.

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"gridrealloc/internal/platform"
	"gridrealloc/internal/workload"
)

func TestCancelStates(t *testing.T) {
	build := func(t *testing.T) *Scheduler {
		s := newTestScheduler(t, 2, 1.0, CBF)
		// Job 1 occupies the cluster and starts immediately; job 2 waits.
		if err := s.Submit(job(1, 0, 100, 1000, 2), 0, 0); err != nil {
			t.Fatal(err)
		}
		collect(t, s, 0)
		if err := s.Submit(job(2, 0, 100, 100, 2), 0, 5); err != nil {
			t.Fatal(err)
		}
		return s
	}
	cases := []struct {
		name         string
		jobID        int
		wantErr      error
		wantMigrated int
	}{
		{name: "waiting job is cancelled", jobID: 2, wantErr: nil, wantMigrated: 5},
		{name: "running job is refused", jobID: 1, wantErr: ErrJobRunning},
		{name: "unknown job is refused", jobID: 99, wantErr: ErrUnknownJob},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := build(t)
			got, migrated, err := s.Cancel(tc.jobID, 0)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("Cancel(%d) err = %v, want %v", tc.jobID, err, tc.wantErr)
				}
				// A refused cancel must not disturb the queue or the counters.
				if s.WaitingCount() != 1 || s.RunningCount() != 1 {
					t.Fatalf("refused cancel mutated state: waiting=%d running=%d", s.WaitingCount(), s.RunningCount())
				}
				if _, can, _ := s.Counters(); can != 0 {
					t.Fatalf("refused cancel counted: %d", can)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got.ID != tc.jobID || migrated != tc.wantMigrated {
				t.Fatalf("Cancel returned job %d with %d migrations, want %d and %d", got.ID, migrated, tc.jobID, tc.wantMigrated)
			}
			if s.WaitingCount() != 0 {
				t.Fatalf("job still waiting after cancel")
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCurrentCompletionAfterRequeue(t *testing.T) {
	s := newTestScheduler(t, 2, 1.0, CBF)
	// The blocker reserves the whole cluster until t=1000.
	if err := s.Submit(job(1, 0, 1000, 1000, 2), 0, 0); err != nil {
		t.Fatal(err)
	}
	collect(t, s, 0)
	if err := s.Submit(job(2, 0, 100, 100, 2), 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(job(3, 0, 100, 100, 2), 0, 0); err != nil {
		t.Fatal(err)
	}
	// Queue order 2, 3: completions 1100 and 1200.
	for id, want := range map[int]int64{2: 1100, 3: 1200} {
		if ect, err := s.CurrentCompletion(id); err != nil || ect != want {
			t.Fatalf("job %d: ECT = %d,%v want %d", id, ect, err, want)
		}
	}
	// Requeue job 2: cancel and resubmit puts it behind job 3.
	cancelled, migrated, err := s.Cancel(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(cancelled, 0, migrated+1); err != nil {
		t.Fatal(err)
	}
	for id, want := range map[int]int64{3: 1100, 2: 1200} {
		if ect, err := s.CurrentCompletion(id); err != nil || ect != want {
			t.Fatalf("after requeue, job %d: ECT = %d,%v want %d", id, ect, err, want)
		}
	}
	// The requeued job carries its incremented reallocation count.
	for _, w := range s.WaitingJobs() {
		if w.Job.ID == 2 && w.Reallocations != 1 {
			t.Fatalf("requeued job lost its reallocation count: %d", w.Reallocations)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateSnapshotMatchesDirectQuery(t *testing.T) {
	for _, policy := range []Policy{FCFS, CBF} {
		s := newTestScheduler(t, 8, 1.3, policy)
		for i := 0; i < 20; i++ {
			if err := s.Submit(job(i+1, 0, 300, 900, 1+i%8), 0, 0); err != nil {
				t.Fatal(err)
			}
		}
		collect(t, s, 10)
		var snap EstimateSnapshot
		if err := s.EstimateSnapshotInto(&snap, 10); err != nil {
			t.Fatal(err)
		}
		if snap.Cluster() != "test" || snap.Time() != 10 {
			t.Fatalf("snapshot identity = %q@%d", snap.Cluster(), snap.Time())
		}
		for p := 1; p <= 8; p++ {
			probe := job(1000+p, 10, 200, 400, p)
			direct, err := s.EstimateCompletion(probe, 10)
			if err != nil {
				t.Fatal(err)
			}
			fromSnap, err := snap.EstimateCompletion(probe)
			if err != nil {
				t.Fatal(err)
			}
			if direct != fromSnap {
				t.Fatalf("[%v] snapshot estimate %d != direct estimate %d for %d procs", policy, fromSnap, direct, p)
			}
		}
		// A too-wide probe is refused by the snapshot as well.
		if _, err := snap.EstimateCompletion(job(2000, 10, 10, 10, 9)); !errors.Is(err, ErrTooWide) {
			t.Fatalf("too-wide probe: err = %v", err)
		}
		if snap.Stale() {
			t.Fatal("snapshot stale with no intervening mutation")
		}
		// A mutation makes the snapshot stale; the same view then answers for
		// the live plan, exactly as a fresh snapshot and a direct query do.
		// The submission has the probe's shape, so it takes the probe's slot.
		probe := job(3000, 10, 200, 400, 8)
		before, err := snap.EstimateCompletion(probe)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Submit(job(999, 10, 200, 400, 8), 10, 0); err != nil {
			t.Fatal(err)
		}
		if !snap.Stale() {
			t.Fatal("snapshot not stale after a submission")
		}
		after, err := snap.EstimateCompletion(probe)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Stale() {
			t.Fatal("query did not refresh the stale snapshot")
		}
		var fresh EstimateSnapshot
		if err := s.EstimateSnapshotInto(&fresh, 10); err != nil {
			t.Fatal(err)
		}
		fromFresh, err := fresh.EstimateCompletion(probe)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := s.EstimateCompletion(probe, 10)
		if err != nil {
			t.Fatal(err)
		}
		if after != fromFresh || after != direct {
			t.Fatalf("[%v] stale view answered %d, fresh snapshot %d, direct %d", policy, after, fromFresh, direct)
		}
		if after == before {
			t.Fatalf("[%v] submission left the estimate at %d; the probe does not exercise the refresh", policy, after)
		}
		// Once the clock passed the view's instant, a stale view cannot be
		// re-taken and says so instead of answering for the past.
		s.InvalidatePlan()
		collect(t, s, 20)
		if _, err := snap.EstimateCompletion(probe); !errors.Is(err, ErrTimeTravel) {
			t.Fatalf("stale view past its instant: err = %v, want ErrTimeTravel", err)
		}
	}
}

// TestSnapshotAppendCycleAllocationFree pins the steady-state cost of the
// reallocation sweep's inner cycle: an append-path submission while a view
// is outstanding, the query that refreshes the view, and the cancel that
// undoes the submission allocate nothing, because every rebuild and append
// writes into the cluster's single plan buffer in place.
func TestSnapshotAppendCycleAllocationFree(t *testing.T) {
	for _, policy := range []Policy{FCFS, CBF} {
		s := newTestScheduler(t, 8, 1.3, policy)
		// The from-scratch cross-check allocates by design; this test is about
		// the production path.
		s.SetDebugCrossCheck(false)
		for i := 0; i < 6; i++ {
			if err := s.Submit(job(i+1, 0, 300, 900, 1+i%8), 0, 0); err != nil {
				t.Fatal(err)
			}
		}
		collect(t, s, 10)
		var snap EstimateSnapshot
		probe := job(3000, 10, 200, 400, 4)
		moved := job(999, 10, 300, 900, 3)
		cycle := func() {
			if err := s.EstimateSnapshotInto(&snap, 10); err != nil {
				t.Fatal(err)
			}
			if err := s.Submit(moved, 10, 0); err != nil {
				t.Fatal(err)
			}
			if _, ok := snap.TryEstimateCompletion(probe); !ok {
				t.Fatal("probe found no slot")
			}
			if _, _, err := s.Cancel(moved.ID, 10); err != nil {
				t.Fatal(err)
			}
		}
		cycle() // warm the buffers and the estimate cache
		appends := s.ProfileStats().PlanAppends
		if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
			t.Fatalf("[%v] submit/snapshot cycle allocates %.1f times per run, want 0", policy, allocs)
		}
		if got := s.ProfileStats().PlanAppends - appends; got < 100 {
			t.Fatalf("[%v] %d of the cycles took the append path, want all of them", policy, got)
		}
	}
}

// TestSnapshotViewsQueriedOutOfOrder covers the estimate cache's lower-bound
// guard: two views of one plan taken for different instants may be queried
// later-instant first, and the earlier view must still get its own answer
// rather than the cached one computed for the later bound.
func TestSnapshotViewsQueriedOutOfOrder(t *testing.T) {
	s := newTestScheduler(t, 8, 1.0, CBF)
	var early, late EstimateSnapshot
	if err := s.EstimateSnapshotInto(&early, 10); err != nil {
		t.Fatal(err)
	}
	if err := s.EstimateSnapshotInto(&late, 20); err != nil {
		t.Fatal(err)
	}
	probe := job(1, 10, 100, 100, 4)
	for _, q := range []struct {
		view *EstimateSnapshot
		now  int64
	}{{&late, 20}, {&early, 10}, {&late, 20}} {
		got, err := q.view.EstimateCompletion(probe)
		if err != nil {
			t.Fatal(err)
		}
		want, err := s.EstimateCompletion(probe, q.now)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("view at %d answered %d, direct query %d", q.now, got, want)
		}
	}
}

func TestMassCancelSingleReplan(t *testing.T) {
	s := newTestScheduler(t, 4, 1.0, CBF)
	const n = 50
	for i := 0; i < n; i++ {
		if err := s.Submit(job(i+1, 0, 100, 200, 1+i%4), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Flush the plan once so the burst below starts from a clean state.
	_ = s.WaitingJobs()
	rebuilds := s.ProfileStats().PlanRebuilds
	for i := 0; i < n; i++ {
		if _, _, err := s.Cancel(i+1, 0); err != nil && !errors.Is(err, ErrJobRunning) {
			t.Fatal(err)
		}
	}
	if _, err := s.EstimateCompletion(job(999, 0, 100, 200, 2), 0); err != nil {
		t.Fatal(err)
	}
	if got := s.ProfileStats().PlanRebuilds - rebuilds; got != 1 {
		t.Fatalf("burst of %d cancellations triggered %d re-plans, want exactly 1", n, got)
	}
}

// TestPropertyIncrementalProfileMatchesScratch drives a scheduler with a
// random mix of submissions, cancellations, time advances, estimates and
// snapshots — the full operation surface — and asserts after every step that
// the incrementally maintained run profile is identical to a from-scratch
// build over the live horizon, and that it stays identical through an
// explicit invalidation.
func TestPropertyIncrementalProfileMatchesScratch(t *testing.T) {
	type op struct {
		Kind    uint8
		Procs   uint8
		Runtime uint16
		Wall    uint16
		Delta   uint16
	}
	for _, policy := range []Policy{FCFS, CBF} {
		policy := policy
		f := func(ops []op) bool {
			s, err := NewScheduler(platform.ClusterSpec{Name: "inc", Cores: 16, Speed: 1.1}, policy)
			if err != nil {
				return false
			}
			s.SetDebugCrossCheck(true)
			now := int64(0)
			nextID := 1
			for k, o := range ops {
				switch o.Kind % 5 {
				case 0: // submit
					j := workload.Job{
						ID:       nextID,
						Submit:   now,
						Runtime:  int64(o.Runtime%1500) + 1,
						Walltime: int64(o.Wall%2500) + 1,
						Procs:    int(o.Procs%16) + 1,
					}
					nextID++
					if err := s.Submit(j, now, 0); err != nil {
						return false
					}
				case 1: // cancel a random held job (running cancels are refused)
					if nextID > 1 {
						id := int(o.Delta)%(nextID-1) + 1
						if _, _, err := s.Cancel(id, now); err != nil &&
							!errors.Is(err, ErrUnknownJob) && !errors.Is(err, ErrJobRunning) {
							return false
						}
					}
				case 2: // advance time (starts and finishes fire)
					now += int64(o.Delta % 400)
					if _, err := s.Advance(now); err != nil {
						return false
					}
				case 3: // estimate
					probe := workload.Job{ID: 1 << 30, Submit: now, Runtime: 100, Walltime: 200, Procs: int(o.Procs%16) + 1}
					if _, err := s.EstimateCompletion(probe, now); err != nil && !errors.Is(err, ErrTooWide) {
						return false
					}
				case 4: // snapshot + query
					var snap EstimateSnapshot
					if err := s.EstimateSnapshotInto(&snap, now); err != nil {
						return false
					}
					probe := workload.Job{ID: 1 << 30, Submit: now, Runtime: 50, Walltime: 150, Procs: int(o.Procs%16) + 1}
					if _, err := snap.EstimateCompletion(probe); err != nil && !errors.Is(err, ErrTooWide) {
						return false
					}
				}
				if err := s.CheckProfileConsistency(); err != nil {
					t.Logf("op %d (%v): %v", k, policy, err)
					return false
				}
				// Periodically exercise the explicit invalidation path: the
				// from-scratch rebuild must agree with what the incremental
				// profile said.
				if k%17 == 16 {
					before := s.runProf.clone()
					before.trimTo(s.now)
					s.InvalidateRunProfile()
					if err := s.CheckProfileConsistency(); err != nil {
						t.Logf("after invalidation at op %d (%v): %v", k, policy, err)
						return false
					}
					if !s.runProf.equal(before) {
						t.Logf("invalidation changed the profile at op %d (%v)", k, policy)
						return false
					}
				}
			}
			// Drain and keep checking.
			for iter := 0; iter < 100000; iter++ {
				next, ok := s.NextEventTime()
				if !ok {
					break
				}
				if _, err := s.Advance(next); err != nil {
					return false
				}
				if err := s.CheckProfileConsistency(); err != nil {
					t.Logf("drain (%v): %v", policy, err)
					return false
				}
			}
			return s.RunningCount() == 0 && s.WaitingCount() == 0
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(21))}); err != nil {
			t.Fatalf("policy %v: %v", policy, err)
		}
	}
}

func TestProfileReleaseRestoresCapacity(t *testing.T) {
	p := newProfile(0, 8)
	if err := p.reserve(10, 100, 5); err != nil {
		t.Fatal(err)
	}
	// Early finish at t=40 returns the tail of the reservation.
	if err := p.release(40, 100, 5); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		t    int64
		want int
	}{{0, 8}, {10, 3}, {39, 3}, {40, 8}, {100, 8}} {
		if got := p.freeAt(c.t); got != c.want {
			t.Errorf("freeAt(%d) = %d, want %d", c.t, got, c.want)
		}
	}
	// The merged profile must be back in canonical two-segment form.
	if len(p.times) != 3 {
		t.Fatalf("release did not merge segments: %v/%v", p.times, p.free)
	}
	// Releasing beyond the cluster size is a bug and must be refused.
	if err := p.release(0, 10, 1); err == nil {
		t.Fatal("release above cluster size accepted")
	}
	if err := p.release(5, 5, 1); err == nil {
		t.Fatal("empty release accepted")
	}
}

func TestProfileTrimTo(t *testing.T) {
	p := newProfile(0, 8)
	if err := p.reserve(10, 50, 4); err != nil {
		t.Fatal(err)
	}
	if err := p.reserve(60, 90, 2); err != nil {
		t.Fatal(err)
	}
	p.trimTo(30)
	if p.times[0] != 30 {
		t.Fatalf("origin = %d, want 30", p.times[0])
	}
	for _, c := range []struct {
		t    int64
		want int
	}{{30, 4}, {50, 8}, {70, 6}, {100, 8}} {
		if got := p.freeAt(c.t); got != c.want {
			t.Errorf("freeAt(%d) = %d, want %d", c.t, got, c.want)
		}
	}
	// Trimming to the past or the present origin is a no-op.
	before := p.clone()
	p.trimTo(10)
	if !p.equal(before) {
		t.Fatal("trim to the past changed the profile")
	}
}

func TestProfileEqualNormalizes(t *testing.T) {
	a := newProfile(0, 4)
	b := newProfile(0, 4)
	// Give b redundant breakpoints with identical free counts.
	if err := b.reserve(10, 20, 2); err != nil {
		t.Fatal(err)
	}
	if err := b.release(10, 20, 2); err != nil {
		t.Fatal(err)
	}
	if !a.equal(b) {
		t.Fatalf("equivalent profiles compare unequal: %v/%v vs %v/%v", a.times, a.free, b.times, b.free)
	}
	if err := b.reserve(5, 6, 1); err != nil {
		t.Fatal(err)
	}
	if a.equal(b) {
		t.Fatal("different profiles compare equal")
	}
}
