package batch

import (
	"reflect"
	"testing"

	"gridrealloc/internal/platform"
	"gridrealloc/internal/workload"
)

// driveScript runs a fixed scheduler workout — submissions, time advances
// that start/finish/displace jobs, cancellations, estimates across an outage
// timeline — and returns every observable it produced: the notification
// stream, estimate answers and the final snapshot.
func driveScript(t *testing.T, s *Scheduler) (notes []Notification, ects []int64, snap Snapshot) {
	t.Helper()
	job := func(id int, submit, runtime, walltime int64, procs int) workload.Job {
		return workload.Job{ID: id, Submit: submit, Runtime: runtime, Walltime: walltime, Procs: procs, User: 1}
	}
	submit := func(j workload.Job, now int64) {
		if err := s.Submit(j, now, 0); err != nil {
			t.Fatalf("submit %d: %v", j.ID, err)
		}
	}
	advance := func(now int64) {
		ns, err := s.Advance(now)
		if err != nil {
			t.Fatalf("advance %d: %v", now, err)
		}
		notes = append(notes, ns...)
	}
	est := func(j workload.Job, now int64) {
		if ect, ok := s.TryEstimateCompletion(j, now); ok {
			ects = append(ects, ect)
		} else {
			ects = append(ects, -1)
		}
		var sn EstimateSnapshot
		if err := s.EstimateSnapshotInto(&sn, now); err != nil {
			t.Fatalf("snapshot at %d: %v", now, err)
		}
		if ect, ok := sn.TryEstimateCompletion(j); ok {
			ects = append(ects, ect)
		} else {
			ects = append(ects, -1)
		}
	}

	submit(job(1, 0, 500, 600, 4), 0)
	submit(job(2, 0, 900, 1000, 6), 0)
	submit(job(3, 0, 2000, 2500, 8), 0)
	advance(50)
	est(job(90, 0, 400, 450, 3), 50)
	submit(job(4, 50, 300, 400, 2), 50)
	if _, _, err := s.Cancel(3, 60); err != nil {
		t.Fatalf("cancel 3: %v", err)
	}
	advance(700) // job 1 finishes early (walltime 600 scaled), others progress
	est(job(91, 0, 800, 900, 5), 700)
	submit(job(5, 700, 1200, 1500, 7), 700)
	advance(1600) // outage windows in the reset spec reveal inside here
	est(job(92, 0, 100, 150, 1), 1600)
	advance(5000)
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	return notes, ects, s.Snapshot()
}

// TestResetEqualsFresh proves the Reset contract at the scheduler level: a
// scheduler that already ran one workload, once Reset onto a different spec
// and policy, produces bit-identical notifications, estimates and final
// state to a freshly constructed scheduler — including capacity timelines
// with both maintenance and outage windows on the new spec.
func TestResetEqualsFresh(t *testing.T) {
	firstSpec := platform.ClusterSpec{Name: "old", Cores: 16, Speed: 1.3}
	secondSpec := platform.ClusterSpec{
		Name: "new", Cores: 10, Speed: 0.8,
		Capacity: []platform.CapacityEvent{
			{Start: 800, End: 1200, Cores: 4, Kind: platform.Maintenance},
			{Start: 1400, End: 1800, Cores: 2, Kind: platform.Outage},
		},
	}
	for _, firstPolicy := range []Policy{FCFS, CBF} {
		for _, secondPolicy := range []Policy{FCFS, CBF} {
			reused, err := NewScheduler(firstSpec, firstPolicy)
			if err != nil {
				t.Fatal(err)
			}
			reused.SetOutagePolicy(RequeueDisplaced)
			// Dirty the pooled state with a first workload.
			driveScript(t, reused)
			if err := reused.Reset(secondSpec, secondPolicy); err != nil {
				t.Fatal(err)
			}
			reused.SetOutagePolicy(RequeueDisplaced)

			fresh, err := NewScheduler(secondSpec, secondPolicy)
			if err != nil {
				t.Fatal(err)
			}
			fresh.SetOutagePolicy(RequeueDisplaced)

			freshNotes, freshEcts, freshSnap := driveScript(t, fresh)
			reusedNotes, reusedEcts, reusedSnap := driveScript(t, reused)
			if !reflect.DeepEqual(freshNotes, reusedNotes) {
				t.Fatalf("%s->%s: notifications diverged\nfresh:  %+v\nreused: %+v", firstPolicy, secondPolicy, freshNotes, reusedNotes)
			}
			if !reflect.DeepEqual(freshEcts, reusedEcts) {
				t.Fatalf("%s->%s: estimates diverged\nfresh:  %v\nreused: %v", firstPolicy, secondPolicy, freshEcts, reusedEcts)
			}
			if !reflect.DeepEqual(freshSnap, reusedSnap) {
				t.Fatalf("%s->%s: final snapshots diverged\nfresh:  %+v\nreused: %+v", firstPolicy, secondPolicy, freshSnap, reusedSnap)
			}
			subs, cans, ects := reused.Counters()
			fsubs, fcans, fects := fresh.Counters()
			if subs != fsubs || cans != fcans || ects != fects {
				t.Fatalf("%s->%s: counters diverged: reused %d/%d/%d, fresh %d/%d/%d",
					firstPolicy, secondPolicy, subs, cans, ects, fsubs, fcans, fects)
			}
			if got, want := reused.ProfileStats(), fresh.ProfileStats(); got != want {
				t.Fatalf("%s->%s: profile stats diverged: reused %+v, fresh %+v", firstPolicy, secondPolicy, got, want)
			}
		}
	}
}
