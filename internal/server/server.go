// Package server implements the cluster-frontal component of the paper's
// architecture: the process deployed on the front-end of each parallel
// resource that mediates between the grid middleware and the local batch
// system. It exposes exactly the restricted operations the paper allows the
// middleware to use — submission, cancellation of waiting jobs, estimation
// of completion times and listing of the waiting queue — and accounts for
// the requests it serves so that the experiment harness can report the load
// the reallocation mechanism puts on the local resource managers.
package server

import (
	"errors"
	"fmt"

	"gridrealloc/internal/batch"
	"gridrealloc/internal/platform"
	"gridrealloc/internal/workload"
)

// Server fronts one cluster's batch scheduler.
//
//gridlint:resettable
type Server struct {
	name  string
	spec  platform.ClusterSpec
	sched *batch.Scheduler
}

// New creates a server for the given cluster running the given batch policy.
func New(spec platform.ClusterSpec, policy batch.Policy) (*Server, error) {
	sched, err := batch.NewScheduler(spec, policy)
	if err != nil {
		return nil, err
	}
	return &Server{name: spec.Name, spec: spec, sched: sched}, nil
}

// Reset re-targets the server at a (possibly different) cluster spec and
// policy, resetting the underlying batch scheduler to its initial state while
// keeping its pooled buffers. A reset server is observationally identical to
// a freshly constructed one; the campaign runner resets one pooled server per
// cluster slot between scenarios instead of rebuilding the scheduler's
// profiles, indexes and pools each time.
func (s *Server) Reset(spec platform.ClusterSpec, policy batch.Policy) error {
	if err := s.sched.Reset(spec, policy); err != nil {
		return err
	}
	s.name = spec.Name
	s.spec = spec
	return nil
}

// Name returns the cluster name.
func (s *Server) Name() string { return s.name }

// Spec returns the cluster description.
func (s *Server) Spec() platform.ClusterSpec { return s.spec }

// Scheduler exposes the underlying batch scheduler; the simulation driver
// uses it to advance virtual time, and tests use it to check invariants.
func (s *Server) Scheduler() *batch.Scheduler { return s.sched }

// ErrCannotRun is returned when a job can never execute on this cluster.
var ErrCannotRun = errors.New("server: job cannot run on this cluster")

// Submit enqueues the job on the local batch system.
func (s *Server) Submit(j workload.Job, now int64, reallocations int) error {
	if err := s.sched.Submit(j, now, reallocations); err != nil {
		if errors.Is(err, batch.ErrTooWide) {
			return fmt.Errorf("%w: %w", ErrCannotRun, err)
		}
		return err
	}
	return nil
}

// Cancel removes a waiting job from the local queue and returns it together
// with its accumulated reallocation count.
func (s *Server) Cancel(jobID int, now int64) (workload.Job, int, error) {
	return s.sched.Cancel(jobID, now)
}

// EstimateCompletion returns the estimated completion time of a hypothetical
// submission of the job at time now. ok is false when the job can never run
// on this cluster. The error-free scheduler variant backs it: the mapping
// policy issues one of these per cluster per submission and a "cannot run
// here" must not cost an error allocation.
func (s *Server) EstimateCompletion(j workload.Job, now int64) (ect int64, ok bool) {
	return s.sched.TryEstimateCompletion(j, now)
}

// EstimateSnapshotInto points a caller-owned snapshot at the cluster's plan
// at time now. The meta-scheduler takes one snapshot per cluster per
// reallocation sweep and reuses it across every candidate job instead of
// issuing one EstimateCompletion request per (job, cluster) pair.
func (s *Server) EstimateSnapshotInto(sn *batch.EstimateSnapshot, now int64) error {
	return s.sched.EstimateSnapshotInto(sn, now)
}

// CurrentCompletion returns the current predicted completion time of a job
// already held by this cluster.
func (s *Server) CurrentCompletion(jobID int) (int64, error) {
	return s.sched.CurrentCompletion(jobID)
}

// WaitingJobs lists the jobs currently waiting in the local queue.
func (s *Server) WaitingJobs() []batch.WaitingJob {
	return s.sched.WaitingJobs()
}

// Fits reports whether the job's processor request fits on this cluster.
func (s *Server) Fits(j workload.Job) bool { return s.sched.Fits(j) }

// RequestLoad summarises the number of requests the middleware has issued to
// this cluster's batch system, together with the scheduler-internal
// counters that show how much work the incremental plan machinery absorbed.
type RequestLoad struct {
	Cluster       string
	Submissions   int64
	Cancellations int64
	ECTQueries    int64
	// SnapshotHits is the number of ECT queries answered from a per-sweep
	// snapshot rather than a direct scheduler consultation.
	SnapshotHits int64
	// PlanRebuilds and PlanReuses count, respectively, full re-plans of the
	// waiting queue and observations served from the cached plan.
	PlanRebuilds int64
	PlanReuses   int64
}

// Load returns the request counters of the local batch system.
func (s *Server) Load() RequestLoad {
	sub, can, ect := s.sched.Counters()
	st := s.sched.ProfileStats()
	return RequestLoad{
		Cluster:       s.name,
		Submissions:   sub,
		Cancellations: can,
		ECTQueries:    ect,
		SnapshotHits:  st.SnapshotHits,
		PlanRebuilds:  st.PlanRebuilds,
		PlanReuses:    st.PlanReuses,
	}
}
