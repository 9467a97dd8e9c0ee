package server

import (
	"errors"
	"testing"

	"gridrealloc/internal/batch"
	"gridrealloc/internal/platform"
	"gridrealloc/internal/workload"
)

func newServer(t *testing.T, cores int, speed float64, policy batch.Policy) *Server {
	t.Helper()
	s, err := New(platform.ClusterSpec{Name: "front", Cores: cores, Speed: speed}, policy)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func job(id int, runtime, walltime int64, procs int) workload.Job {
	return workload.Job{ID: id, Submit: 0, Runtime: runtime, Walltime: walltime, Procs: procs}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(platform.ClusterSpec{Name: "", Cores: 1, Speed: 1}, batch.FCFS); err == nil {
		t.Fatal("invalid spec accepted")
	}
	s := newServer(t, 8, 1.0, batch.CBF)
	if s.Name() != "front" || s.Spec().Cores != 8 {
		t.Fatalf("accessors broken: %q %d", s.Name(), s.Spec().Cores)
	}
	if s.Scheduler().Policy() != batch.CBF {
		t.Fatal("policy not forwarded")
	}
}

// TestResetAndSubmitErrors checks the two error paths that must not be
// dressed up as ErrCannotRun: an invalid spec on Reset, and a rejected
// submission for a job that does fit.
func TestResetAndSubmitErrors(t *testing.T) {
	s := newServer(t, 4, 1.0, batch.FCFS)
	if err := s.Reset(platform.ClusterSpec{Name: "front", Cores: 0, Speed: 1}, batch.FCFS); err == nil {
		t.Fatal("Reset accepted an invalid spec")
	}
	if err := s.Submit(job(1, 100, 1000, 4), 0, 0); err != nil {
		t.Fatal(err)
	}
	err := s.Submit(job(1, 100, 1000, 4), 0, 0)
	if !errors.Is(err, batch.ErrDuplicateJob) || errors.Is(err, ErrCannotRun) {
		t.Fatalf("duplicate submit: err = %v, want ErrDuplicateJob only", err)
	}
}

func TestSubmitCancelRoundTrip(t *testing.T) {
	s := newServer(t, 4, 1.0, batch.FCFS)
	if err := s.Submit(job(1, 100, 1000, 4), 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Scheduler().Advance(0); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(job(2, 100, 200, 2), 0, 5); err != nil {
		t.Fatal(err)
	}
	waiting := s.WaitingJobs()
	if len(waiting) != 1 || waiting[0].Job.ID != 2 || waiting[0].Reallocations != 5 {
		t.Fatalf("waiting = %+v", waiting)
	}
	j, migrated, err := s.Cancel(2, 0)
	if err != nil || j.ID != 2 || migrated != 5 {
		t.Fatalf("cancel = %+v %d %v", j, migrated, err)
	}
	if len(s.WaitingJobs()) != 0 {
		t.Fatal("job still waiting after cancel")
	}
}

func TestSubmitTooWideWrapsError(t *testing.T) {
	s := newServer(t, 4, 1.0, batch.FCFS)
	err := s.Submit(job(1, 10, 20, 8), 0, 0)
	if !errors.Is(err, ErrCannotRun) {
		t.Fatalf("err = %v, want ErrCannotRun", err)
	}
	if !errors.Is(err, batch.ErrTooWide) {
		t.Fatalf("err = %v, should still wrap batch.ErrTooWide", err)
	}
	if s.Fits(job(2, 10, 20, 8)) {
		t.Fatal("Fits accepted an oversized job")
	}
	if !s.Fits(job(3, 10, 20, 4)) {
		t.Fatal("Fits rejected a valid job")
	}
}

func TestEstimateCompletionOkFlag(t *testing.T) {
	s := newServer(t, 4, 2.0, batch.FCFS)
	ect, ok := s.EstimateCompletion(job(1, 100, 600, 4), 0)
	if !ok {
		t.Fatal("estimate failed on an empty cluster")
	}
	// Walltime 600 scaled by speed 2.0 -> 300.
	if ect != 300 {
		t.Fatalf("ECT = %d, want 300", ect)
	}
	if _, ok := s.EstimateCompletion(job(2, 100, 600, 99), 0); ok {
		t.Fatal("estimate succeeded for an oversized job")
	}
}

func TestEstimateSnapshotForwarding(t *testing.T) {
	s := newServer(t, 4, 2.0, batch.FCFS)
	var sn batch.EstimateSnapshot
	if err := s.EstimateSnapshotInto(&sn, 0); err != nil {
		t.Fatal(err)
	}
	// The snapshot must agree with the live estimate.
	live, ok := s.EstimateCompletion(job(1, 100, 600, 4), 0)
	if !ok {
		t.Fatal("live estimate failed on an empty cluster")
	}
	fromSnap, err := sn.EstimateCompletion(job(1, 100, 600, 4))
	if err != nil || fromSnap != live {
		t.Fatalf("snapshot ECT = %d,%v want %d", fromSnap, err, live)
	}
}

func TestCurrentCompletionForwarding(t *testing.T) {
	s := newServer(t, 4, 1.0, batch.FCFS)
	if err := s.Submit(job(1, 100, 400, 4), 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Scheduler().Advance(0); err != nil {
		t.Fatal(err)
	}
	if ect, err := s.CurrentCompletion(1); err != nil || ect != 400 {
		t.Fatalf("CurrentCompletion = %d,%v want 400", ect, err)
	}
	if _, err := s.CurrentCompletion(9); err == nil {
		t.Fatal("unknown job accepted")
	}
}

func TestLoadCounters(t *testing.T) {
	s := newServer(t, 4, 1.0, batch.FCFS)
	_ = s.Submit(job(1, 10, 300, 1), 0, 0)
	_ = s.Submit(job(2, 10, 300, 1), 0, 0)
	_, _, _ = s.Cancel(2, 0)
	_, _ = s.EstimateCompletion(job(3, 10, 300, 1), 0)
	load := s.Load()
	if load.Cluster != "front" || load.Submissions != 2 || load.Cancellations != 1 || load.ECTQueries != 1 {
		t.Fatalf("load = %+v", load)
	}
}
