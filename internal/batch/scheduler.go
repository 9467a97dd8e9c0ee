package batch

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"

	"gridrealloc/internal/platform"
	"gridrealloc/internal/sim"
	"gridrealloc/internal/workload"
)

// Policy selects the local scheduling algorithm of a cluster.
type Policy int

// The two local resource management policies the paper evaluates.
const (
	// FCFS (First Come First Served) gives each job the earliest slot at the
	// end of the job queue: a job never starts before a job submitted before
	// it (no backfilling).
	FCFS Policy = iota
	// CBF (Conservative Back-Filling) gives each job the earliest hole in
	// the availability profile that does not delay any previously queued
	// job.
	CBF
)

// String returns "FCFS" or "CBF".
func (p Policy) String() string {
	if p == CBF {
		return "CBF"
	}
	return "FCFS"
}

// ParsePolicy converts a string (case-sensitive "FCFS"/"CBF") to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "FCFS":
		return FCFS, nil
	case "CBF":
		return CBF, nil
	default:
		return FCFS, fmt.Errorf("batch: unknown policy %q", s)
	}
}

// OutagePolicy selects what happens to running jobs displaced by an
// unannounced capacity outage: the cores they occupy vanish, so they either
// die or go back to the waiting queue.
type OutagePolicy int

const (
	// KillDisplaced terminates displaced jobs at the outage instant, as a
	// node crash would; they are reported finished with the Killed flag.
	KillDisplaced OutagePolicy = iota
	// RequeueDisplaced puts displaced jobs back at the head of the waiting
	// queue (oldest first), where the grid middleware may reallocate them to
	// another cluster before they restart from scratch.
	RequeueDisplaced
)

// String returns "kill" or "requeue".
func (p OutagePolicy) String() string {
	if p == RequeueDisplaced {
		return "requeue"
	}
	return "kill"
}

// ParseOutagePolicy resolves an outage policy from its string form; the
// empty string selects the kill default.
func ParseOutagePolicy(s string) (OutagePolicy, error) {
	switch s {
	case "kill", "":
		return KillDisplaced, nil
	case "requeue":
		return RequeueDisplaced, nil
	default:
		return KillDisplaced, fmt.Errorf("batch: unknown outage policy %q", s)
	}
}

// Errors returned by the scheduler API.
var (
	// ErrTooWide is returned when a job requests more processors than the
	// cluster has.
	ErrTooWide = errors.New("batch: job requests more processors than the cluster has")
	// ErrUnknownJob is returned when an operation references a job the
	// scheduler does not hold at all.
	ErrUnknownJob = errors.New("batch: unknown waiting job")
	// ErrJobRunning is returned by Cancel when the job is already executing:
	// the middleware only reallocates jobs in waiting state, and a cancel that
	// races with a job start must be distinguishable from a cancel of a job
	// the cluster never heard of.
	ErrJobRunning = errors.New("batch: job is already running")
	// ErrDuplicateJob is returned when a job ID is submitted twice.
	ErrDuplicateJob = errors.New("batch: job already submitted")
	// ErrTimeTravel is returned when an operation carries a timestamp before
	// the scheduler's current time.
	ErrTimeTravel = errors.New("batch: operation timestamp is in the past")
)

// allocation is a job currently executing on the cluster.
type allocation struct {
	job      workload.Job
	start    int64
	end      int64 // actual completion (or walltime kill) instant
	wallEnd  int64 // reservation end used for planning (start + scaled walltime)
	killed   bool  // true when end == wallEnd because the runtime exceeded it
	migrated int   // number of times the job was reallocated before starting
}

// queueEntry is a job waiting in the batch queue.
type queueEntry struct {
	job      workload.Job
	enqueued int64
	seq      int64
	// wall is the job's walltime rescaled to this cluster's speed, computed
	// once at enqueue time: every re-plan of the queue needs it, and the
	// floating-point rescale is measurable when re-plans are frequent.
	wall         int64
	plannedStart int64
	plannedEnd   int64
	migrated     int
}

// noNextStart is the nextStart sentinel meaning "no waiting job".
const noNextStart = int64(math.MaxInt64)

// finishQueue is a min-heap of running jobs ordered by completion time.
// Entries are pushed when a job starts and popped when it finishes; unlike
// planned starts, completion instants never change, so the heap is
// maintained incrementally across the scheduler's whole lifetime.
type finishQueue []*allocation

func (q finishQueue) Len() int           { return len(q) }
func (q finishQueue) Less(i, j int) bool { return q[i].end < q[j].end }
func (q finishQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *finishQueue) Push(x any)        { *q = append(*q, x.(*allocation)) }
func (q *finishQueue) Pop() any {
	old := *q
	n := len(old)
	a := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return a
}

// Notification reports a state change that happened inside the cluster while
// advancing virtual time: a job started, completed, or was pushed back to
// the waiting queue by a capacity outage.
type Notification struct {
	// Kind is Started, Finished or Requeued.
	Kind NotificationKind
	// JobID identifies the job.
	JobID int
	// Time is the instant of the state change.
	Time int64
	// Killed is set on Finished notifications for jobs terminated by the
	// walltime limit or by a capacity outage.
	Killed bool
	// Displaced is set on Finished and Requeued notifications for jobs
	// pushed out of execution by a capacity outage (it distinguishes an
	// outage kill from a walltime kill).
	Displaced bool
}

// NotificationKind distinguishes the notification flavours.
type NotificationKind int

// Notification kinds.
const (
	Started NotificationKind = iota
	Finished
	// Requeued reports a running job displaced by a capacity outage and put
	// back at the head of the waiting queue (RequeueDisplaced policy).
	Requeued
)

// String returns "started", "finished" or "requeued".
func (k NotificationKind) String() string {
	switch k {
	case Finished:
		return "finished"
	case Requeued:
		return "requeued"
	default:
		return "started"
	}
}

// WaitingJob is the externally visible view of a queued job: the job itself
// plus its current predicted start and completion on this cluster.
type WaitingJob struct {
	Job            workload.Job
	EnqueuedAt     int64
	PlannedStart   int64
	PlannedEnd     int64
	Reallocations  int
	QueuePosition  int
	ClusterName    string
	ClusterSpeedup float64
}

// debugProfileEnv enables the incremental-vs-from-scratch profile cross-check
// on every plan rebuild when set to a non-empty value in the environment.
const debugProfileEnv = "GRIDREALLOC_DEBUG_PROFILE"

// Scheduler simulates one cluster's batch system. It is not safe for
// concurrent use; the simulation driver serialises all access.
//
// Internally the scheduler is indexed and incremental: jobs are found by ID
// through hash maps, the next internal event is the earliest of the running
// completions (a min-heap), the next outage reveal and the earliest waiting
// start, the availability profile of the running jobs is maintained
// incrementally as jobs start/finish instead of being reconstructed from the
// running set, and the waiting-queue plan is recomputed lazily — a burst of
// mutations (such as Algorithm 2 cancelling every waiting job back-to-back)
// pays for a single re-plan at the next observation instead of one per
// mutation. Under FCFS the event loop never needs the full plan: no job may
// start before the queue head, so the earliest waiting start is the head's
// earliest slot on the run profile, and a start event starts a prefix of the
// queue (see nextInternalEvent and startDueAt). Only readers of the plan
// (estimates, snapshots, listings, checks) bring it up to date, and under
// FCFS a plan dirtied only by finishes, early starts and cancels is
// re-planned only up to the first job past every changed window, with the
// old plan's tail spliced in from there (see planBounded).
//
//gridlint:resettable
type Scheduler struct {
	spec   platform.ClusterSpec
	policy Policy
	now    int64

	running     []*allocation       //gridlint:observable
	runningByID map[int]*allocation //gridlint:observable
	waiting     []*queueEntry       //gridlint:observable always sorted by seq (submission order)
	waitingByID map[int]*queueEntry //gridlint:observable
	seq         int64
	// frontSeq hands out decreasing sequence numbers for jobs requeued at
	// the head of the queue after an outage, keeping the waiting slice
	// sorted by seq without renumbering it.
	frontSeq int64

	// maintenance holds the announced capacity windows, baked into every
	// availability profile from construction so planning works around them.
	// outages holds the unannounced windows; outages[nextOutage:] are still
	// invisible to planning and are revealed one by one as internal events
	// when virtual time reaches their start.
	maintenance  []platform.CapacityEvent
	outages      []platform.CapacityEvent
	nextOutage   int          //gridlint:observable reveals change the capacity the middleware sees
	outagePolicy OutagePolicy //gridlint:keep-across-reset caller configuration, like SetOutagePolicy

	// nextStart is the earliest planned start among waiting jobs (or the
	// noNextStart sentinel), valid whenever the plan is clean. Every plan
	// flush visits the whole queue anyway, so a scalar minimum replaces the
	// start-ordered heap the scheduler used to rebuild on each flush. Under
	// FCFS it is also valid while the plan is dirty if headVersion equals
	// stateVersion: it was then derived from the queue head alone (planHead,
	// startDueAt), and every mutation that dirties the plan bumps
	// stateVersion.
	nextStart   int64
	headVersion uint64
	finishHeap  finishQueue

	// runProf is the availability profile of the running jobs only, bounded
	// by their walltime reservations. It is maintained incrementally: a start
	// reserves [t, wallEnd), an early finish releases the unused tail, and
	// the origin is trimmed forward as virtual time advances. runProfValid is
	// the explicit invalidation path: when false, the next plan rebuild
	// reconstructs it from the running set.
	runProf      *profile
	runProfValid bool

	// planProf is the availability profile including running jobs and all
	// planned waiting reservations; planDirty defers its reconstruction until
	// the next observation. Rebuilds and appends update it in place (a
	// bounded FCFS re-plan builds into planSpare and swaps the two), and
	// estimate snapshots are views that read it live (planVersion tells a
	// view whether it is still current), so steady-state re-planning
	// allocates nothing.
	planProf    *profile
	planDirty   bool
	planVersion uint64
	// planBounded (FCFS only) marks a plan whose changes since it was last
	// published end by changedUntil: planProf still holds that plan, every
	// waiting entry keeps its window in it, and the only mutations since are
	// finishes, head-prefix starts at or before the planned start, and
	// cancels. changedUntil is the latest end of the windows they changed:
	// released walltime tails, and the old windows of jobs that started
	// early or were cancelled. Such changes only free cores, so no start
	// moves later, and rebuildPlan stops at the first job that keeps its
	// start at or after every changed window, splicing in the old plan from
	// there. Every other mutation that dirties the plan drops the flag
	// (dirtyPlan); CBF never sets it.
	planBounded  bool
	changedUntil int64
	// planSpare is the buffer a bounded re-plan builds into while planProf
	// still holds the old plan it splices from; the two swap afterwards.
	planSpare *profile
	// maxPlannedStart is the latest planned start among waiting jobs, used
	// as the FCFS lower bound for hypothetical placements.
	maxPlannedStart int64

	// debugCheck cross-checks the incremental run profile against a
	// from-scratch build on every plan rebuild.
	debugCheck bool //gridlint:keep-across-reset caller configuration, like SetDebugCrossCheck

	// notesBuf is the notification buffer reused by Advance; entryPool and
	// allocPool recycle dead queueEntry and allocation structs, carving
	// fresh ones out of block allocations (sim.Arena) so even a fresh run's
	// ramp-up allocates per block, not per job record. Together they make
	// the steady-state event loop allocation-free: a pooled struct is only
	// handed out again once no index, heap or plan can still reach the old
	// occupant (entries die under planDirty and every heap read re-plans
	// first; allocations die when popped from the finish heap).
	notesBuf  []Notification //gridlint:keep-across-reset truncated by Advance before every use
	entryPool sim.Arena[queueEntry]
	allocPool sim.Arena[allocation]
	// spanScratch is reused by the capacity-baseline builds.
	spanScratch []span //gridlint:keep-across-reset scratch, overwritten before every use

	// stateVersion increments on every mutation that can change what the
	// middleware observes about this cluster between two reallocation sweeps:
	// submissions, cancellations, job starts, early finishes (which release
	// reservation tails), outage reveals and explicit invalidations. The
	// meta-scheduler's dirty-cluster tracking compares versions to skip
	// re-gathering queues that provably did not change; plain time advances
	// do not bump it.
	stateVersion uint64

	// ectCache memoises snapshot completion-time estimates per job shape
	// (procs, scaled walltime) while the published plan is unchanged. A cached
	// start remains the true earliest start as long as the profile is
	// identical and the cached start is at or after the query's lower bound:
	// the snapshot lower bound is monotone within one plan version (time only
	// moves forward and the FCFS bound is fixed per plan), so entries are
	// reusable across reallocation sweeps on clusters nothing touched — the
	// dirty-cluster sweep optimisation — and across same-shape candidates
	// within one sweep. ectCacheLower tracks the largest lower bound served
	// from the cache; a query below it (only possible through out-of-order
	// direct snapshot use, never from the simulation driver) bypasses the
	// cache instead of trusting entries computed for a later bound.
	ectCache        map[ectKey]int64
	ectCacheVersion uint64
	ectCacheLower   int64
	ectCacheHits    int64

	// Request counters, reported by the server layer as system-load metrics.
	submissions   int64
	cancellations int64
	ectQueries    int64

	// Profile bookkeeping counters, exposed through ProfileStats.
	planRebuilds    int64
	planSplices     int64
	planAppends     int64
	planReuses      int64
	snapshots       int64
	snapshotHits    int64
	runProfRebuilds int64
}

// NewScheduler returns a scheduler for the given cluster running the given
// policy, with its clock at zero.
func NewScheduler(spec platform.ClusterSpec, policy Policy) (*Scheduler, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	s := &Scheduler{
		spec:        spec,
		policy:      policy,
		runningByID: make(map[int]*allocation),
		waitingByID: make(map[int]*queueEntry),
		frontSeq:    -1,
		nextStart:   noNextStart,
		debugCheck:  os.Getenv(debugProfileEnv) != "",
	}
	for _, e := range spec.Capacity {
		if e.Kind == platform.Maintenance {
			s.maintenance = append(s.maintenance, e)
		} else {
			s.outages = append(s.outages, e)
		}
	}
	s.runProf = s.capacityBaseProfile(0)
	s.runProfValid = true
	s.planProf = s.runProf.clone()
	s.planSpare = newProfile(0, spec.Cores)
	s.planBounded = policy == FCFS
	s.changedUntil = math.MinInt64
	return s, nil
}

// Reset returns the scheduler to the state NewScheduler(spec, policy) would
// produce — clock at zero, empty queue and running set, capacity timeline
// re-derived from the spec, all request counters cleared — while retaining
// every reusable buffer: the profile backings, the waiting/running slices and
// their indexes, the finish heap, the entry/allocation pools and the
// notification buffer. A reset scheduler is observationally identical to a
// fresh one (every query and event sequence is bit-for-bit the same), so a
// campaign worker can run thousands of scenarios on one scheduler without
// re-allocating its internals; the harness reuse tests prove the equivalence
// over the 72-configuration grid and random scenarios.
//
// What deliberately survives a Reset, beyond buffer capacity: the outage
// policy and debug cross-check settings (both caller configuration, like a
// fresh scheduler's defaults after SetOutagePolicy/SetDebugCrossCheck), and
// the monotone plan version (snapshots taken before the Reset can never
// falsely match the new plan). What must not survive — and does not — is any
// job, reservation, revealed outage, sequence number or statistic.
func (s *Scheduler) Reset(spec platform.ClusterSpec, policy Policy) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	s.spec = spec
	s.policy = policy
	s.now = 0
	for _, a := range s.running {
		s.allocPool.Put(a)
	}
	s.running = s.running[:0]
	clear(s.runningByID)
	for _, e := range s.waiting {
		s.entryPool.Put(e)
	}
	s.waiting = s.waiting[:0]
	clear(s.waitingByID)
	s.seq = 0
	s.frontSeq = -1
	s.maintenance = s.maintenance[:0]
	s.outages = s.outages[:0]
	for _, e := range spec.Capacity {
		if e.Kind == platform.Maintenance {
			s.maintenance = append(s.maintenance, e)
		} else {
			s.outages = append(s.outages, e)
		}
	}
	s.nextOutage = 0
	s.nextStart = noNextStart
	s.headVersion = 0
	s.finishHeap = s.finishHeap[:0]
	s.capacityBaseProfileInto(s.runProf, 0)
	s.runProfValid = true
	s.planProf.copyFrom(s.runProf)
	s.planSpare.reset(0, spec.Cores)
	s.planDirty = false
	s.planBounded = policy == FCFS
	s.changedUntil = math.MinInt64
	s.planVersion++
	s.maxPlannedStart = 0
	s.stateVersion++
	// Drop the memoised completion-time estimates outright. Stale entries
	// were already unreachable — they are keyed to the previous plan version,
	// which the bump above retires — but an explicit clear keeps the reset
	// self-contained instead of leaning on the cache's monotone-version
	// argument, and returns the memory of a large run to steady state.
	clear(s.ectCache)
	s.ectCacheVersion = 0
	s.ectCacheLower = 0
	s.submissions, s.cancellations, s.ectQueries = 0, 0, 0
	s.planRebuilds, s.planSplices, s.planAppends, s.planReuses = 0, 0, 0, 0
	s.snapshots, s.snapshotHits, s.runProfRebuilds = 0, 0, 0
	s.ectCacheHits = 0
	return nil
}

// capacityBaseProfile builds the zero-jobs availability profile from `from`
// onwards: the nominal core count reduced by every announced maintenance
// window and by every already revealed outage window, batched into a single
// merge pass. Unrevealed outages are deliberately absent — the scheduler
// must not plan around a failure it cannot know about yet.
func (s *Scheduler) capacityBaseProfile(from int64) *profile {
	prof := newProfile(from, s.spec.Cores)
	s.capacityBaseProfileInto(prof, from)
	return prof
}

// capacityBaseProfileInto is capacityBaseProfile building into a
// caller-owned profile, so the Reset reuse path re-derives the capacity
// baseline without allocating a fresh profile per scenario.
func (s *Scheduler) capacityBaseProfileInto(prof *profile, from int64) {
	prof.reset(from, s.spec.Cores)
	spans := s.spanScratch[:0]
	window := func(w platform.CapacityEvent) {
		if w.End <= from {
			return
		}
		start := w.Start
		if start < from {
			start = from
		}
		spans = append(spans, span{start, w.End, s.spec.Cores - w.Cores})
	}
	for _, w := range s.maintenance {
		window(w)
	}
	for _, w := range s.outages[:s.nextOutage] {
		window(w)
	}
	s.spanScratch = spans
	if err := prof.reserveAll(spans); err != nil {
		// Windows are validated non-overlapping and within the cluster
		// size, so a failed reservation is a programming error.
		panic(fmt.Sprintf("batch: capacity windows unreservable on %s: %v", s.spec.Name, err))
	}
}

// Spec returns the cluster description.
func (s *Scheduler) Spec() platform.ClusterSpec { return s.spec }

// Policy returns the local scheduling policy.
func (s *Scheduler) Policy() Policy { return s.policy }

// Now returns the scheduler's current virtual time.
func (s *Scheduler) Now() int64 { return s.now }

// StateVersion returns a counter that increments on every mutation that can
// change what the middleware observes about this cluster: submissions,
// cancellations, job starts, early finishes, outage reveals and explicit
// invalidations. Time advances that process no such event leave it
// untouched. The meta-scheduler's reallocation sweep records it per cluster
// and skips re-gathering queues whose version did not move — the snapshot it
// took last pass is provably still exact.
func (s *Scheduler) StateVersion() uint64 { return s.stateVersion }

// SetDebugCrossCheck toggles the incremental-vs-from-scratch profile
// cross-check on every plan rebuild (also enabled by the
// GRIDREALLOC_DEBUG_PROFILE environment variable). A mismatch panics,
// because it means the incremental profile diverged from the ground truth.
func (s *Scheduler) SetDebugCrossCheck(on bool) { s.debugCheck = on }

// SetOutagePolicy selects what happens to running jobs displaced by an
// unannounced capacity outage (kill by default).
func (s *Scheduler) SetOutagePolicy(p OutagePolicy) { s.outagePolicy = p }

// OutagePolicy returns the configured displacement policy.
func (s *Scheduler) OutagePolicy() OutagePolicy { return s.outagePolicy }

// Counters returns the number of submissions, cancellations and ECT queries
// served so far.
func (s *Scheduler) Counters() (submissions, cancellations, ectQueries int64) {
	return s.submissions, s.cancellations, s.ectQueries
}

// ProfileStats reports how the incremental machinery behaved: how many times
// the waiting-queue plan was rebuilt versus served from cache, how many ECT
// queries were answered from snapshots, and how often the incremental run
// profile had to be reconstructed from scratch through the invalidation path.
type ProfileStats struct {
	// PlanRebuilds counts re-plans of the waiting queue. Under CBF the
	// event loop re-plans after every mutation it observes; under FCFS it
	// plans only the queue head, so re-plans come from readers of the plan
	// (estimates, snapshots, listings, CurrentCompletion and the checks).
	PlanRebuilds int64
	// PlanSplices counts the FCFS re-plans among PlanRebuilds that stopped
	// early: a job kept its start after every window changed since the last
	// plan, so the rest of the queue kept its windows and the old plan
	// profile was spliced in from that start on.
	PlanSplices int64
	// PlanAppends counts submissions planned through the append fast path,
	// which places only the new job instead of re-planning the whole queue.
	PlanAppends int64
	// PlanReuses counts observations served without a re-plan.
	PlanReuses int64
	// Snapshots counts EstimateSnapshotInto calls, including the refresh a
	// query on a stale snapshot performs.
	Snapshots int64
	// SnapshotHits counts ECT queries answered from a snapshot.
	SnapshotHits int64
	// RunProfileRebuilds counts from-scratch reconstructions of the running
	// profile (the invalidation path; 0 in healthy runs after the initial
	// build).
	RunProfileRebuilds int64
	// ECTCacheHits counts snapshot estimate queries answered from the
	// per-shape memo instead of a profile slot search (see ectCache).
	ECTCacheHits int64
}

// ProfileStats returns the current profile bookkeeping counters.
func (s *Scheduler) ProfileStats() ProfileStats {
	return ProfileStats{
		PlanRebuilds:       s.planRebuilds,
		PlanSplices:        s.planSplices,
		PlanAppends:        s.planAppends,
		PlanReuses:         s.planReuses,
		Snapshots:          s.snapshots,
		SnapshotHits:       s.snapshotHits,
		RunProfileRebuilds: s.runProfRebuilds,
		ECTCacheHits:       s.ectCacheHits,
	}
}

// RunningCount returns the number of jobs currently executing.
func (s *Scheduler) RunningCount() int { return len(s.running) }

// WaitingCount returns the number of jobs currently queued.
func (s *Scheduler) WaitingCount() int { return len(s.waiting) }

// UsedCores returns the number of cores occupied by running jobs at the
// current time.
func (s *Scheduler) UsedCores() int {
	used := 0
	for _, a := range s.running {
		used += a.job.Procs
	}
	return used
}

// scaledRuntime returns the execution time of the job on this cluster,
// bounded by the rescaled walltime (walltime kill).
func (s *Scheduler) scaledRuntime(j workload.Job) int64 {
	run := s.spec.ScaleDuration(j.Runtime)
	wall := s.spec.ScaleDuration(j.Walltime)
	if run > wall {
		return wall
	}
	if run < 1 {
		run = 1
	}
	return run
}

// scaledWalltime returns the reservation length of the job on this cluster.
func (s *Scheduler) scaledWalltime(j workload.Job) int64 {
	w := s.spec.ScaleDuration(j.Walltime)
	if w < 1 {
		w = 1
	}
	return w
}

// Fits reports whether the job can ever run on this cluster.
func (s *Scheduler) Fits(j workload.Job) bool { return j.Procs <= s.spec.Cores }

// holdsJob reports whether the scheduler currently holds the job, waiting or
// running.
func (s *Scheduler) holdsJob(id int) bool {
	if _, ok := s.runningByID[id]; ok {
		return true
	}
	_, ok := s.waitingByID[id]
	return ok
}

// Submit enqueues a job at time now. The reallocations argument carries the
// number of times the job has already been moved between clusters, so the
// count survives migration. It returns an error if the job cannot fit, is a
// duplicate, or the timestamp is in the past.
func (s *Scheduler) Submit(j workload.Job, now int64, reallocations int) error {
	if now < s.now {
		return fmt.Errorf("%w: submit at %d, now %d", ErrTimeTravel, now, s.now)
	}
	if err := j.Validate(); err != nil {
		return err
	}
	if !s.Fits(j) {
		return fmt.Errorf("%w: job %d needs %d cores, cluster %q has %d", ErrTooWide, j.ID, j.Procs, s.spec.Name, s.spec.Cores)
	}
	if s.holdsJob(j.ID) {
		return fmt.Errorf("%w: job %d on cluster %q", ErrDuplicateJob, j.ID, s.spec.Name)
	}
	sameNow := now == s.now
	s.now = now
	s.submissions++
	s.stateVersion++
	e := s.newEntry()
	*e = queueEntry{
		job:      j,
		enqueued: now,
		seq:      s.seq,
		wall:     s.scaledWalltime(j),
		migrated: reallocations,
	}
	s.seq++
	s.waiting = append(s.waiting, e)
	s.waitingByID[j.ID] = e
	if sameNow && !s.planDirty {
		// Fast path: a job appended at the end of the queue cannot move any
		// earlier job under either policy, so only the new entry needs
		// planning, on top of the already published plan.
		s.appendToPlan(e)
	} else {
		s.dirtyPlan()
	}
	return nil
}

// placeEntry plans one job onto prof: the earliest slot at or after the
// policy's lower bound (FCFS forbids starting before prevStart, the latest
// start planned so far), with the end-of-horizon fallback for the
// cannot-happen case of no slot. It reserves the window and returns it,
// together with a cursor (the index of the segment the job starts in) that
// FCFS planning loops pass back as hint: FCFS lower bounds never decrease,
// so resuming the slot search at the previous start's segment scans each
// profile segment once per full re-plan instead of once per job. CBF
// callers pass hint 0 (backfilling may place a job in any earlier hole).
// Its search, slotFor, is the single planning rule shared by re-plans, the
// append fast path and the consistency checker, so the three can never
// drift apart.
func (s *Scheduler) placeEntry(prof *profile, e *queueEntry, prevStart int64, hint int) (start, end int64, cursor int, err error) {
	start, seg := s.slotFor(prof, e, prevStart, hint)
	end = start + e.wall
	cursor, err = prof.reserveAtHint(start, end, e.job.Procs, seg)
	return start, end, cursor, err
}

// slotFor is placeEntry without the reservation: the earliest slot of e on
// prof at or after the policy's lower bound, and the segment it falls in.
func (s *Scheduler) slotFor(prof *profile, e *queueEntry, prevStart int64, hint int) (int64, int) {
	lower := s.now
	if s.policy == FCFS && prevStart > lower {
		lower = prevStart
	}
	return earliestSlot(prof, e, lower, hint)
}

// earliestSlot is slotFor for an explicit lower bound: the earliest start of
// e at or after lower on prof, and the segment it falls in.
func earliestSlot(prof *profile, e *queueEntry, lower int64, hint int) (int64, int) {
	start, seg := prof.findSlotFrom(hint, lower, e.wall, e.job.Procs)
	if start == noSlot {
		// Cannot happen for admitted jobs (procs <= cores); guard anyway by
		// pushing the job to the end of the known horizon.
		start = prof.times[len(prof.times)-1]
		seg = len(prof.times) - 1
	}
	return start, seg
}

// appendToPlan plans a newly appended entry against the current plan
// profile without re-planning the rest of the queue. The reservation happens
// in place: reserve validates before mutating, so a failure cannot publish a
// bad profile.
func (s *Scheduler) appendToPlan(e *queueEntry) {
	start, end, _, err := s.placeEntry(s.planProf, e, s.maxPlannedStart, 0)
	if err != nil {
		// Fall back to a full re-plan rather than publishing a bad profile.
		s.dirtyPlan()
		return
	}
	e.plannedStart = start
	e.plannedEnd = end
	if start > s.maxPlannedStart {
		s.maxPlannedStart = start
	}
	if start < s.nextStart {
		s.nextStart = start
	}
	s.planVersion++
	s.planAppends++
}

// Cancel removes a waiting job from the queue. It returns ErrJobRunning for
// a job that already started (the middleware only reallocates jobs in
// waiting state) and ErrUnknownJob for a job the cluster does not hold. On
// success it returns the job's accumulated reallocation count so the caller
// can carry it to the destination cluster.
func (s *Scheduler) Cancel(jobID int, now int64) (workload.Job, int, error) {
	if now < s.now {
		return workload.Job{}, 0, fmt.Errorf("%w: cancel at %d, now %d", ErrTimeTravel, now, s.now)
	}
	s.now = now
	if _, ok := s.runningByID[jobID]; ok {
		return workload.Job{}, 0, fmt.Errorf("%w: job %d on cluster %q", ErrJobRunning, jobID, s.spec.Name)
	}
	e, ok := s.waitingByID[jobID]
	if !ok {
		return workload.Job{}, 0, fmt.Errorf("%w: job %d on cluster %q", ErrUnknownJob, jobID, s.spec.Name)
	}
	s.cancellations++
	s.stateVersion++
	delete(s.waitingByID, jobID)
	// The waiting slice is sorted by seq, so the entry's position is found by
	// binary search rather than a linear scan.
	i := sort.Search(len(s.waiting), func(i int) bool { return s.waiting[i].seq >= e.seq })
	s.waiting = append(s.waiting[:i], s.waiting[i+1:]...)
	// The cancelled window only frees cores: a bounded plan stays bounded.
	s.planDirty = true
	s.changedUntil = max(s.changedUntil, e.plannedEnd)
	if len(s.waiting) == 0 {
		// nextInternalEvent skips the re-plan for an empty queue, so the
		// earliest-start scalar must be cleared here or the last cancelled
		// job's planned start would surface as a phantom event.
		s.nextStart = noNextStart
	}
	job, migrated := e.job, e.migrated
	// The entry is fully unlinked from the waiting slice and index, and the
	// dirty plan forces a re-plan before any planned-start state is read
	// again, so the entry is safe to pool.
	s.entryPool.Put(e)
	return job, migrated, nil
}

// WaitingJobs returns a snapshot of the waiting queue in queue order,
// including each job's current predicted start and completion.
func (s *Scheduler) WaitingJobs() []WaitingJob {
	return s.AppendWaitingJobs(make([]WaitingJob, 0, len(s.waiting)))
}

// AppendWaitingJobs appends the waiting queue (in queue order) to dst and
// returns the extended slice, letting callers that poll every cluster each
// sweep reuse one buffer instead of allocating a fresh slice per call.
func (s *Scheduler) AppendWaitingJobs(dst []WaitingJob) []WaitingJob {
	s.observePlan()
	for i, e := range s.waiting {
		dst = append(dst, WaitingJob{
			Job:            e.job,
			EnqueuedAt:     e.enqueued,
			PlannedStart:   e.plannedStart,
			PlannedEnd:     e.plannedEnd,
			Reallocations:  e.migrated,
			QueuePosition:  i,
			ClusterName:    s.spec.Name,
			ClusterSpeedup: s.spec.Speed,
		})
	}
	return dst
}

// WaitingReallocations calls fn with the ID and reallocation count of every
// waiting job, in queue order. It reads nothing of the plan, so unlike
// AppendWaitingJobs it never forces a deferred re-plan: it serves callers
// that track migration counters and never look at planned windows.
func (s *Scheduler) WaitingReallocations(fn func(jobID, reallocations int)) {
	for _, e := range s.waiting {
		fn(e.job.ID, e.migrated)
	}
}

// CurrentCompletion returns the predicted completion time of a job already
// held by this cluster (waiting or running). For running jobs the prediction
// is the walltime end, which is all a real batch system can promise.
func (s *Scheduler) CurrentCompletion(jobID int) (int64, error) {
	if a, ok := s.runningByID[jobID]; ok {
		return a.wallEnd, nil
	}
	if e, ok := s.waitingByID[jobID]; ok {
		s.observePlan()
		return e.plannedEnd, nil
	}
	return 0, fmt.Errorf("%w: job %d on cluster %q", ErrUnknownJob, jobID, s.spec.Name)
}

// EstimateCompletion answers the middleware's "where would this job
// complete if I submitted it to you now" query without mutating any state.
// It returns ErrTooWide if the job can never run here.
func (s *Scheduler) EstimateCompletion(j workload.Job, now int64) (int64, error) {
	if ect, ok := s.TryEstimateCompletion(j, now); ok {
		return ect, nil
	}
	if now < s.now {
		return 0, fmt.Errorf("%w: estimate at %d, now %d", ErrTimeTravel, now, s.now)
	}
	if !s.Fits(j) {
		return 0, fmt.Errorf("%w: job %d needs %d cores, cluster %q has %d", ErrTooWide, j.ID, j.Procs, s.spec.Name, s.spec.Cores)
	}
	return 0, fmt.Errorf("%w: job %d on cluster %q", ErrTooWide, j.ID, s.spec.Name)
}

// TryEstimateCompletion is EstimateCompletion with a boolean instead of an
// error: ok is false when the job can never run here or the timestamp is in
// the past. The initial-mapping policy issues one such query per cluster
// per submission and treats "cannot run here" as an ordinary outcome, so
// this variant skips the error construction of the checked one.
func (s *Scheduler) TryEstimateCompletion(j workload.Job, now int64) (int64, bool) {
	if now < s.now || !s.Fits(j) {
		return 0, false
	}
	s.observePlan()
	s.ectQueries++
	lower := now
	if s.policy == FCFS && s.maxPlannedStart > lower {
		// FCFS: the hypothetical job goes to the end of the queue and cannot
		// start before the job currently last in the queue.
		lower = s.maxPlannedStart
	}
	wall := s.scaledWalltime(j)
	start := s.planProf.findSlot(lower, wall, j.Procs)
	if start == noSlot {
		return 0, false
	}
	return start + wall, true
}

// EstimateSnapshot is a view of the cluster's live plan at a given instant.
// It answers the same query as EstimateCompletion but can be taken once per
// cluster per reallocation sweep and reused across every candidate job and
// heuristic, avoiding one plan consultation per (job, cluster) pair. The
// view owns nothing: it reads the scheduler's published plan, and a query
// on a view whose plan changed since it was taken first re-takes it at its
// instant (see TryEstimateCompletionScaled), so a view always answers for
// the cluster's current state.
type EstimateSnapshot struct {
	sched   *Scheduler
	now     int64
	lower   int64
	version uint64
}

// EstimateSnapshotInto overwrites sn with a view of the plan at time now.
// Taking one is O(1) once the plan is current, and a caller that re-snapshots
// every cluster once per sweep reuses its snapshot storage.
func (s *Scheduler) EstimateSnapshotInto(sn *EstimateSnapshot, now int64) error {
	if now < s.now {
		return fmt.Errorf("%w: snapshot at %d, now %d", ErrTimeTravel, now, s.now)
	}
	s.observePlan()
	s.snapshots++
	lower := now
	if s.policy == FCFS && s.maxPlannedStart > lower {
		lower = s.maxPlannedStart
	}
	*sn = EstimateSnapshot{
		sched:   s,
		now:     now,
		lower:   lower,
		version: s.planVersion,
	}
	return nil
}

// Cluster returns the name of the cluster the snapshot was taken from.
func (sn *EstimateSnapshot) Cluster() string { return sn.sched.spec.Name }

// Time returns the instant the snapshot describes.
func (sn *EstimateSnapshot) Time() int64 { return sn.now }

// Stale reports whether the cluster's plan has changed since the snapshot
// was taken; the next query on a stale snapshot re-takes it first.
func (sn *EstimateSnapshot) Stale() bool {
	return sn.sched.planDirty || sn.sched.planVersion != sn.version
}

// EstimateCompletion answers the completion-time query against the snapshot.
// It returns ErrTooWide if the job can never run on the cluster, and
// ErrTimeTravel if the snapshot is stale and its instant is already past.
func (sn *EstimateSnapshot) EstimateCompletion(j workload.Job) (int64, error) {
	ect, ok := sn.TryEstimateCompletion(j)
	if !ok {
		s := sn.sched
		if !s.Fits(j) {
			return 0, fmt.Errorf("%w: job %d needs %d cores, cluster %q has %d", ErrTooWide, j.ID, j.Procs, s.spec.Name, s.spec.Cores)
		}
		if sn.Stale() {
			return 0, fmt.Errorf("%w: stale snapshot at %d, now %d", ErrTimeTravel, sn.now, s.now)
		}
		return 0, fmt.Errorf("%w: job %d on cluster %q", ErrTooWide, j.ID, s.spec.Name)
	}
	return ect, nil
}

// TryEstimateCompletion is EstimateCompletion with a boolean instead of an
// error: ok is false when the job can never run on the cluster. The
// reallocation sweep issues O(candidates x clusters) estimate queries per
// pass and treats "cannot run here" as an ordinary outcome, so the error
// construction of the checked variant — an allocation plus fmt formatting
// per too-wide pair — was pure overhead on the sweep hot path.
func (sn *EstimateSnapshot) TryEstimateCompletion(j workload.Job) (int64, bool) {
	return sn.TryEstimateCompletionScaled(j.Procs, sn.sched.scaledWalltime(j))
}

// ScaledWalltime returns the job's walltime rescaled to this cluster's
// speed — the reservation length every estimate for it here will use. A
// sweep that refreshes a cluster's estimates once per move caches it
// instead of repeating the floating-point rescale.
func (sn *EstimateSnapshot) ScaledWalltime(j workload.Job) int64 {
	return sn.sched.scaledWalltime(j)
}

// ectKey identifies a job shape for the snapshot estimate cache: two jobs
// with the same processor count and scaled walltime always receive the same
// answer from the same profile and lower bound.
type ectKey struct {
	procs int
	wall  int64
}

// cachedNoSlot marks a shape that has no feasible start anywhere in the
// profile; infeasibility at one lower bound implies infeasibility at every
// later one, so the entry is valid for the rest of the plan version.
const cachedNoSlot int64 = math.MinInt64

// TryEstimateCompletionScaled is TryEstimateCompletion for a caller that
// already holds the job's scaled walltime on this cluster.
//
// Answers are memoised per job shape while the published plan is unchanged
// (see ectCache): a cached start at or after the query's lower bound is still
// the earliest feasible start, because feasibility of a start does not depend
// on the bound and no earlier start in the narrower window could have been
// skipped. The cache makes same-shape candidates within one sweep and the
// whole column of a cluster no sweep touched O(1) instead of one slot search
// each — the query path of the dirty-cluster sweep optimisation.
//
// A stale view is re-taken at its instant before anything else, through the
// same EstimateSnapshotInto a caller would issue, so a sweep never needs to
// check staleness itself; ok is false when that refresh fails because the
// cluster's clock already passed the view's instant.
func (sn *EstimateSnapshot) TryEstimateCompletionScaled(procs int, wall int64) (int64, bool) {
	s := sn.sched
	if sn.Stale() {
		if err := s.EstimateSnapshotInto(sn, sn.now); err != nil {
			return 0, false
		}
	}
	if procs > s.spec.Cores {
		return 0, false
	}
	s.ectQueries++
	s.snapshotHits++
	if s.ectCacheVersion != s.planVersion || s.ectCache == nil {
		if s.ectCache == nil {
			s.ectCache = make(map[ectKey]int64, 64)
		} else {
			clear(s.ectCache)
		}
		s.ectCacheVersion = s.planVersion
		s.ectCacheLower = sn.lower
	}
	if sn.lower < s.ectCacheLower {
		// Out-of-order query below a bound the cache already served; answer
		// directly rather than trusting entries computed for a later bound.
		start := s.planProf.findSlot(sn.lower, wall, procs)
		if start == noSlot {
			return 0, false
		}
		return start + wall, true
	}
	s.ectCacheLower = sn.lower
	k := ectKey{procs, wall}
	if ect, ok := s.ectCache[k]; ok {
		if ect == cachedNoSlot {
			s.ectCacheHits++
			return 0, false
		}
		if ect-wall >= sn.lower {
			s.ectCacheHits++
			return ect, true
		}
	}
	start := s.planProf.findSlot(sn.lower, wall, procs)
	if start == noSlot {
		s.ectCache[k] = cachedNoSlot
		return 0, false
	}
	s.ectCache[k] = start + wall
	return start + wall, true
}

// internalEvent identifies the kind of the next scheduler-internal event.
type internalEvent int

const (
	evFinish internalEvent = iota
	evCapacity
	evStart
)

// Advance moves the cluster's clock to `now`, starting planned jobs,
// completing running jobs and revealing capacity outages whose time has
// come, in chronological order. It returns the notifications generated, in
// order. The returned slice is reused by the next Advance call on the same
// scheduler; callers that need the notifications beyond that must copy
// them.
//
//gridlint:pooled
func (s *Scheduler) Advance(now int64) ([]Notification, error) {
	if now < s.now {
		return nil, fmt.Errorf("%w: advance to %d, now %d", ErrTimeTravel, now, s.now)
	}
	notes := s.notesBuf[:0]
	for {
		t, kind, ok := s.nextInternalEvent()
		if !ok || t > now {
			break
		}
		switch kind {
		case evFinish:
			notes = s.finishDueAt(t, notes)
		case evCapacity:
			notes = s.revealNextOutage(notes)
		case evStart:
			notes = s.startDueAt(t, notes)
		}
	}
	s.now = now
	s.notesBuf = notes
	if len(notes) == 0 {
		return nil, nil
	}
	return notes, nil
}

// newEntry returns a queueEntry from the pool, or a fresh arena-backed one.
func (s *Scheduler) newEntry() *queueEntry {
	return s.entryPool.Get()
}

// newAllocation returns an allocation from the pool, or a fresh arena-backed
// one.
func (s *Scheduler) newAllocation() *allocation {
	return s.allocPool.Get()
}

// NextEventTime returns the earliest instant at which this cluster will
// change state on its own (a running job completes, a planned job starts, or
// a capacity outage strikes), or ok=false when the cluster is idle with an
// empty queue and no pending outage.
func (s *Scheduler) NextEventTime() (int64, bool) {
	t, _, ok := s.nextInternalEvent()
	return t, ok
}

// nextInternalEvent returns the time and kind of the next internal event by
// peeking the finish heap, the outage timeline and the earliest waiting
// start. At equal instants, completions run first (the freed cores may allow
// an earlier re-planned start), then outage reveals (so a job is not started
// into a window that just lost its cores), then starts.
func (s *Scheduler) nextInternalEvent() (int64, internalEvent, bool) {
	// The plan is consulted only for the earliest waiting start; with an
	// empty queue there is none, and the re-plan (refreshing the estimate
	// profile) stays deferred to the next observation. Under FCFS that start
	// is the queue head's, so a dirty plan stays dirty: only the head is
	// planned, and the full re-plan waits for the first reader.
	if len(s.waiting) > 0 && s.planDirty {
		if s.policy == FCFS {
			s.planHead()
		} else {
			s.ensurePlan()
		}
	}
	bestT := int64(0)
	kind := evStart
	found := false
	if len(s.finishHeap) > 0 {
		bestT, kind, found = s.finishHeap[0].end, evFinish, true
	}
	if s.nextOutage < len(s.outages) {
		if t := s.outages[s.nextOutage].Start; !found || t < bestT {
			bestT, kind, found = t, evCapacity, true
		}
	}
	if s.nextStart != noNextStart {
		if t := s.nextStart; !found || t < bestT {
			bestT, kind, found = t, evStart, true
		}
	}
	return bestT, kind, found
}

// planHead sets nextStart to the queue head's earliest slot on the run
// profile at or after now — the search placeEntry does for the first job of
// a full FCFS re-plan. No FCFS job may start before the head, so this is the
// full plan's earliest start. The answer is memoised against stateVersion:
// every mutation that dirties the plan bumps it, and between two mutations
// only time advances, which cannot pass a start the event loop has not yet
// taken.
func (s *Scheduler) planHead() {
	if s.headVersion == s.stateVersion {
		return
	}
	s.ensureRunProfile()
	s.nextStart, _ = earliestSlot(s.runProf, s.waiting[0], s.now, 0)
	s.headVersion = s.stateVersion
	if s.debugCheck {
		if n, first := s.scratchFCFSPrefix(s.nextStart); n == 0 {
			panic(fmt.Sprintf("batch: head-only next start on %s at t=%d diverged: head-only %d, from-scratch plan %d",
				s.spec.Name, s.now, s.nextStart, first))
		}
	}
}

// revealNextOutage makes the next unannounced capacity window visible to the
// scheduler: running jobs that no longer fit under the reduced capacity are
// displaced (killed or requeued per the outage policy), the lost cores are
// reserved in the incremental run profile for the remainder of the window,
// and the waiting-queue plan is invalidated so every planned start is
// recomputed under the new ceiling.
func (s *Scheduler) revealNextOutage(notes []Notification) []Notification {
	w := s.outages[s.nextOutage]
	s.nextOutage++
	if w.Start > s.now {
		s.now = w.Start
	}
	// An outage entirely in the past (the caller's clock jumped over the
	// window without observing it) changes nothing from now on.
	if w.End <= s.now {
		return notes
	}
	notes = s.displaceRunning(w, notes)
	s.stateVersion++
	if s.runProfValid {
		s.runProf.trimTo(s.now)
		if err := s.runProf.reserve(s.now, w.End, s.spec.Cores-w.Cores); err != nil {
			s.InvalidateRunProfile()
		}
	}
	s.dirtyPlan()
	return notes
}

// displaceRunning removes running jobs until the remaining usage fits the
// outage window's capacity, most recently started jobs first (seniority is
// protected, as on real clusters where a crash takes out the nodes assigned
// last). Displaced jobs are killed or requeued per the outage policy.
//
// Only revealNextOutage calls this, and it bumps stateVersion for the whole
// reveal (capacity change included), so the displacement writes ride on the
// caller's bump.
//
//gridlint:stateversion-bumped-by-caller
func (s *Scheduler) displaceRunning(w platform.CapacityEvent, notes []Notification) []Notification {
	used := 0
	for _, a := range s.running {
		used += a.job.Procs
	}
	if used <= w.Cores {
		return notes
	}
	victims := append([]*allocation(nil), s.running...)
	sort.Slice(victims, func(i, j int) bool {
		if victims[i].start != victims[j].start {
			return victims[i].start > victims[j].start
		}
		return victims[i].job.ID > victims[j].job.ID
	})
	displaced := make(map[int]bool)
	for _, a := range victims {
		if used <= w.Cores {
			break
		}
		used -= a.job.Procs
		displaced[a.job.ID] = true
		delete(s.runningByID, a.job.ID)
		s.releaseReservation(a, s.now)
		if s.outagePolicy == RequeueDisplaced {
			e := s.newEntry()
			*e = queueEntry{
				job:      a.job,
				enqueued: s.now,
				seq:      s.frontSeq,
				wall:     s.scaledWalltime(a.job),
				migrated: a.migrated,
			}
			s.frontSeq--
			s.waiting = append([]*queueEntry{e}, s.waiting...)
			s.waitingByID[a.job.ID] = e
			notes = append(notes, Notification{Kind: Requeued, JobID: a.job.ID, Time: s.now, Displaced: true})
		} else {
			notes = append(notes, Notification{Kind: Finished, JobID: a.job.ID, Time: s.now, Killed: true, Displaced: true})
		}
	}
	kept := s.running[:0]
	for _, a := range s.running {
		if !displaced[a.job.ID] {
			kept = append(kept, a)
		} else {
			s.allocPool.Put(a)
		}
	}
	s.running = kept
	// The finish heap is rebuilt wholesale: arbitrary removals from the
	// middle of a heap are not worth the complexity for an event as rare as
	// an outage.
	s.finishHeap = append(s.finishHeap[:0], s.running...)
	heap.Init(&s.finishHeap)
	return notes
}

// finishDueAt completes every running job whose end is exactly t, releasing
// the unused tail of each walltime reservation back into the incremental run
// profile. The freed cores may advance waiting jobs, so the plan is marked
// dirty; a released tail only frees cores, so a bounded plan stays bounded
// (see planBounded).
func (s *Scheduler) finishDueAt(t int64, notes []Notification) []Notification {
	n0 := len(notes)
	for len(s.finishHeap) > 0 && s.finishHeap[0].end == t {
		heap.Pop(&s.finishHeap)
	}
	released := false
	kept := s.running[:0]
	for _, a := range s.running {
		if a.end == t {
			notes = append(notes, Notification{Kind: Finished, JobID: a.job.ID, Time: t, Killed: a.killed})
			delete(s.runningByID, a.job.ID)
			if s.releaseReservation(a, t) {
				released = true
				s.changedUntil = max(s.changedUntil, a.wallEnd)
			}
			s.allocPool.Put(a)
			continue
		}
		kept = append(kept, a)
	}
	s.running = kept
	if len(notes) > n0 {
		s.now = t
		// A job that ran out its full walltime returns no cores the plan did
		// not already account for, so the published plan — whose remaining
		// starts are all at or after t — stays valid; only an early finish
		// (a released reservation tail) can advance waiting jobs. Exact
		// finishes equally leave every middleware-visible answer unchanged,
		// so the state version moves only with the released tail.
		if released {
			s.planDirty = true
			s.stateVersion++
		}
	}
	return notes
}

// releaseReservation returns the unused tail [t, wallEnd) of a finished
// job's reservation to the run profile, reporting whether the profile
// actually changed. A failure invalidates the incremental profile so the
// next plan rebuild reconstructs it from scratch (and reports true: the
// published plan can no longer be trusted).
func (s *Scheduler) releaseReservation(a *allocation, t int64) bool {
	if !s.runProfValid {
		return true
	}
	from := t
	if origin := s.runProf.times[0]; from < origin {
		from = origin
	}
	if a.wallEnd <= from {
		return false
	}
	if err := s.runProf.release(from, a.wallEnd, a.job.Procs); err != nil {
		s.InvalidateRunProfile()
	}
	return true
}

// startDueAt starts every waiting job whose start is due at t, reserving its
// walltime window in the incremental run profile. A started job occupies
// exactly the window it was planned to, so a clean plan stays clean.
//
// Under CBF the due jobs are those whose planned start is t, anywhere in the
// queue. Under FCFS they are a prefix of the queue, found without the plan:
// the head (whose earliest start is t, or this event would not be due), then
// each next job whose earliest slot at or after t on the updated run profile
// is t itself. That is the full plan's answer, because FCFS starts never
// decrease along the queue and the run profile now holds exactly the
// started jobs' planned windows; the first later slot is the next start.
func (s *Scheduler) startDueAt(t int64, notes []Notification) []Notification {
	if s.policy == FCFS {
		return s.startHeadPrefix(t, notes)
	}
	n0 := len(notes)
	next := noNextStart
	kept := s.waiting[:0]
	for _, e := range s.waiting {
		if e.plannedStart == t {
			notes = s.startEntry(e, t, notes)
			continue
		}
		if e.plannedStart < next {
			next = e.plannedStart
		}
		kept = append(kept, e)
	}
	s.waiting = kept
	s.nextStart = next
	if len(notes) > n0 {
		s.now = t
		// Started jobs left the waiting queue, so cached queue views are
		// stale even though the published plan itself is unchanged.
		s.stateVersion++
	}
	return notes
}

// startHeadPrefix is startDueAt under FCFS: it starts the queue prefix due
// at t and derives the next start from the queue head that remains.
func (s *Scheduler) startHeadPrefix(t int64, notes []Notification) []Notification {
	wantN, wantNext := -1, noNextStart
	if s.debugCheck {
		wantN, wantNext = s.scratchFCFSPrefix(t)
	}
	s.now = t
	next := noNextStart
	n := 0
	for ; n < len(s.waiting); n++ {
		e := s.waiting[n]
		if n > 0 {
			if !s.runProfValid {
				s.ensureRunProfile()
			}
			if start, _ := earliestSlot(s.runProf, e, t, 0); start != t {
				next = start
				break
			}
		}
		// An early start changes the job's window in planProf, which a
		// bounded re-plan accounts for; a late one drops the bound.
		switch {
		case e.plannedStart > t:
			s.changedUntil = max(s.changedUntil, e.plannedEnd)
		case e.plannedStart < t:
			s.dirtyPlan()
		}
		notes = s.startEntry(e, t, notes)
	}
	s.waiting = append(s.waiting[:0], s.waiting[n:]...)
	s.nextStart = next
	// Started jobs left the waiting queue, so cached queue views are stale
	// even though a clean plan stays clean; the new head's start is current
	// for the new version.
	s.stateVersion++
	s.headVersion = s.stateVersion
	if s.debugCheck && (n != wantN || next != wantNext) {
		panic(fmt.Sprintf("batch: head-only start on %s at t=%d diverged: started %d, next %d; from-scratch plan starts %d, next %d",
			s.spec.Name, t, n, next, wantN, wantNext))
	}
	return notes
}

// startEntry moves a waiting entry into execution at t: it builds the
// allocation, indexes it, pushes its completion on the finish heap, reserves
// its walltime window in the run profile and pools the entry. The caller
// removes the entry from the waiting slice and bumps stateVersion.
//
//gridlint:stateversion-bumped-by-caller
func (s *Scheduler) startEntry(e *queueEntry, t int64, notes []Notification) []Notification {
	run := s.scaledRuntime(e.job)
	wall := e.wall
	a := s.newAllocation()
	*a = allocation{
		job:      e.job,
		start:    t,
		end:      t + run,
		wallEnd:  t + wall,
		killed:   run == wall && e.job.KilledByWalltime(),
		migrated: e.migrated,
	}
	s.running = append(s.running, a)
	s.runningByID[a.job.ID] = a
	heap.Push(&s.finishHeap, a)
	delete(s.waitingByID, e.job.ID)
	if s.runProfValid {
		if err := s.runProf.reserve(t, a.wallEnd, a.job.Procs); err != nil {
			s.InvalidateRunProfile()
		}
	}
	s.entryPool.Put(e)
	return append(notes, Notification{Kind: Started, JobID: a.job.ID, Time: t})
}

// scratchFCFSPrefix plans the waiting queue from scratch under FCFS — on a
// run profile rebuilt from the running set — only as far as it needs to tell
// how many leading jobs start at t and where the first later one starts.
// It is the reference the debug cross-check holds head-only decisions
// (planHead, startHeadPrefix) to.
func (s *Scheduler) scratchFCFSPrefix(t int64) (n int, next int64) {
	prof := s.scratchRunProfile()
	prevStart := s.now
	cursor := 0
	for _, e := range s.waiting {
		start, _, cur, err := s.placeEntry(prof, e, prevStart, cursor)
		if err != nil {
			panic(fmt.Sprintf("batch: from-scratch plan reservation failed on %s: %v", s.spec.Name, err))
		}
		if start != t {
			return n, start
		}
		n++
		prevStart, cursor = start, cur
	}
	return n, noNextStart
}

// InvalidateRunProfile discards the incremental run profile; the next plan
// rebuild reconstructs it from the running set. This is the explicit
// recovery path for any suspected divergence, and the hook benchmarks use to
// measure the cost of the from-scratch build the incremental profile avoids.
func (s *Scheduler) InvalidateRunProfile() {
	s.runProfValid = false
	s.dirtyPlan()
	s.stateVersion++
}

// InvalidatePlan forces the next observation to re-plan the waiting queue
// even though no state changed. Together with InvalidateRunProfile it lets
// benchmarks compare the incremental scheduler against a from-scratch one.
func (s *Scheduler) InvalidatePlan() {
	s.dirtyPlan()
	s.stateVersion++
}

// dirtyPlan marks the plan for a full re-plan at the next observation.
func (s *Scheduler) dirtyPlan() {
	s.planDirty = true
	s.planBounded = false
}

// ensurePlan brings a dirty plan up to date, reporting whether it was dirty.
// It stays small enough to inline, so a read of a clean plan costs no call.
func (s *Scheduler) ensurePlan() bool {
	if !s.planDirty {
		return false
	}
	s.rebuildPlan()
	return true
}

// observePlan is ensurePlan for the external observation entry points
// (estimates, snapshots, queue listings): it additionally counts plan
// reuses, so PlanReuses measures how much middleware-facing load the cached
// plan absorbed rather than the driver's internal event polling.
func (s *Scheduler) observePlan() {
	if !s.ensurePlan() {
		s.planReuses++
	}
}

// scratchRunProfile builds the running-jobs availability profile from
// scratch — the capacity baseline (maintenance windows plus revealed
// outages) with every running job's walltime reservation subtracted. It is
// the reference the incremental profile is checked against, and the fallback
// of the invalidation path.
func (s *Scheduler) scratchRunProfile() *profile {
	prof := s.capacityBaseProfile(s.now)
	spans := make([]span, 0, len(s.running))
	for _, a := range s.running {
		if a.wallEnd > s.now {
			spans = append(spans, span{s.now, a.wallEnd, a.job.Procs})
		}
	}
	// Batched: one sorted merge over the profile instead of one O(profile)
	// breakpoint insertion per running job.
	if err := prof.reserveAll(spans); err != nil {
		panic(fmt.Sprintf("batch: inconsistent running set on %s: %v", s.spec.Name, err))
	}
	return prof
}

// ensureRunProfile brings the incremental run profile to the current time,
// rebuilding it from scratch if it was invalidated.
func (s *Scheduler) ensureRunProfile() {
	if !s.runProfValid {
		s.runProf = s.scratchRunProfile()
		s.runProfValid = true
		s.runProfRebuilds++
		return
	}
	s.runProf.trimTo(s.now)
}

// CheckProfileConsistency verifies that the incremental run profile matches
// the from-scratch build over the live horizon, and that the published plan
// (which may have been extended through the append fast path) is identical
// to what a full re-plan would produce. It is exported for the
// property-based tests; the run-profile comparison also runs on every plan
// rebuild when debug cross-checking is enabled.
func (s *Scheduler) CheckProfileConsistency() error {
	s.ensurePlan()
	return s.checkPlanAgainstScratch()
}

// checkPlanAgainstScratch is CheckProfileConsistency on a clean plan: it
// compares the run profile, every published window, planProf from now on,
// the FCFS lower bound and the earliest start against a from-scratch
// re-plan.
func (s *Scheduler) checkPlanAgainstScratch() error {
	if !s.runProfValid {
		return nil
	}
	s.runProf.trimTo(s.now)
	fresh := s.scratchRunProfile()
	if !s.runProf.equal(fresh) {
		return fmt.Errorf("batch: incremental run profile diverged on %s at t=%d: incremental %v/%v, from-scratch %v/%v",
			s.spec.Name, s.now, s.runProf.times, s.runProf.free, fresh.times, fresh.free)
	}
	// Re-plan every waiting job onto the fresh profile and compare against
	// the published plan.
	prevStart := s.now
	next := noNextStart
	cursor := 0
	for _, e := range s.waiting {
		start, end, cur, err := s.placeEntry(fresh, e, prevStart, cursor)
		if err != nil {
			return fmt.Errorf("batch: re-plan reservation failed on %s: %w", s.spec.Name, err)
		}
		if s.policy == FCFS {
			cursor = cur
		}
		if start != e.plannedStart || end != e.plannedEnd {
			return fmt.Errorf("batch: plan diverged on %s for job %d: published [%d,%d), re-plan [%d,%d)",
				s.spec.Name, e.job.ID, e.plannedStart, e.plannedEnd, start, end)
		}
		if start > prevStart {
			prevStart = start
		}
		next = min(next, start)
	}
	// fresh now holds the re-plan's profile. planProf may still carry
	// segments before now, which no query reads.
	if !s.planProf.equalFrom(fresh, s.now) {
		return fmt.Errorf("batch: plan profile diverged on %s at t=%d: published %v/%v, re-plan %v/%v",
			s.spec.Name, s.now, s.planProf.times, s.planProf.free, fresh.times, fresh.free)
	}
	if s.nextStart != next {
		return fmt.Errorf("batch: earliest planned start diverged on %s: published %d, re-plan %d", s.spec.Name, s.nextStart, next)
	}
	// maxPlannedStart may be stale (it is only refreshed on rebuilds, as
	// starts and idle time advances do not change any remaining plan); what
	// estimates observe is the effective FCFS lower bound max(now, max).
	published := s.maxPlannedStart
	if s.now > published {
		published = s.now
	}
	if published != prevStart {
		return fmt.Errorf("batch: FCFS lower bound diverged on %s: published %d, re-plan %d", s.spec.Name, published, prevStart)
	}
	return nil
}

// rebuildPlan recomputes the planned start and completion of every waiting
// job, according to the local policy, on top of the incrementally maintained
// running-jobs profile, and marks the plan clean. The waiting slice is kept
// in submission (seq) order by construction, so planning needs no sort. The
// plan is rebuilt in place in the cluster's plan buffer, or in its spare
// under a bounded FCFS plan, so steady-state re-planning allocates nothing.
//
// A bounded re-plan (see planBounded) stops early. Its changes only free
// cores, so no job starts later than before, and each job that moves
// raises changedUntil to the end of its old window. At the first job i that keeps its old
// start s_i with changedUntil <= s_i, every changed window has ended by s_i,
// so from s_i on the new profile equals the old planProf, and every later
// job, whose search starts at s_i, keeps its window too. The old profile
// from s_i on is then spliced into the new one, which replaces it.
func (s *Scheduler) rebuildPlan() {
	s.planRebuilds++
	s.ensureRunProfile()
	if s.debugCheck {
		if fresh := s.scratchRunProfile(); !s.runProf.equal(fresh) {
			panic(fmt.Sprintf("batch: incremental run profile diverged on %s at t=%d: incremental %v/%v, from-scratch %v/%v",
				s.spec.Name, s.now, s.runProf.times, s.runProf.free, fresh.times, fresh.free))
		}
	}
	bounded := s.planBounded
	prof := s.planProf
	if bounded {
		prof = s.planSpare
	}
	prof.copyFrom(s.runProf)
	// Planning k jobs inserts at most 2k breakpoints; growing once up front
	// replaces the log-many append doublings mid-plan.
	prof.grow(2 * len(s.waiting))
	// Waiting jobs are planned in queue order (submission order on this
	// cluster). FCFS additionally forbids starting before the previous
	// queued job, which also makes the slot-search cursor monotone.
	prevStart := s.now
	next := noNextStart
	cursor := 0
	changedUntil := s.changedUntil
	spliced := false
	for _, e := range s.waiting {
		start, seg := s.slotFor(prof, e, prevStart, cursor)
		if bounded {
			if start != e.plannedStart {
				// The new end matters only for a job that moves later, which
				// takes a caller that moved the clock past a start without
				// advancing the cluster.
				changedUntil = max(changedUntil, e.plannedEnd, start+e.wall)
			} else if changedUntil <= start {
				prof.spliceFrom(s.planProf, start)
				next = min(next, start)
				prevStart = s.waiting[len(s.waiting)-1].plannedStart
				spliced = true
				break
			}
		}
		end := start + e.wall
		cur, err := prof.reserveAtHint(start, end, e.job.Procs, seg)
		if err != nil {
			panic(fmt.Sprintf("batch: plan reservation failed on %s: %v", s.spec.Name, err))
		}
		e.plannedStart = start
		e.plannedEnd = end
		if start > prevStart {
			prevStart = start
		}
		if start < next {
			next = start
		}
		if s.policy == FCFS {
			cursor = cur
		}
	}
	if bounded {
		s.planProf, s.planSpare = prof, s.planProf
	}
	// Keep the combined running+planned profile for cheap completion-time
	// estimates; prevStart is the latest planned start (or now when the
	// queue is empty), which is exactly the FCFS lower bound for a
	// hypothetical extra job. Planning visited every waiting job, or the
	// splice kept the rest in order, so the earliest planned start falls out
	// of the same loop.
	s.maxPlannedStart = prevStart
	s.nextStart = next
	s.planVersion++
	s.planDirty = false
	s.planBounded = s.policy == FCFS
	s.changedUntil = math.MinInt64
	if spliced {
		s.planSplices++
		if s.debugCheck {
			if err := s.checkPlanAgainstScratch(); err != nil {
				panic(fmt.Sprintf("batch: spliced plan diverged from a rebuild: %v", err))
			}
		}
	}
}

// Snapshot describes the instantaneous state of the cluster, used by the
// Gantt renderer and by tests.
type Snapshot struct {
	ClusterName string
	Time        int64
	Running     []SnapshotJob
	Waiting     []SnapshotJob
}

// SnapshotJob is one job in a snapshot with its (planned or actual)
// execution window.
type SnapshotJob struct {
	JobID int
	Procs int
	Start int64
	End   int64
}

// Snapshot returns the current running and planned-waiting state.
func (s *Scheduler) Snapshot() Snapshot {
	s.observePlan()
	snap := Snapshot{
		ClusterName: s.spec.Name,
		Time:        s.now,
		Running:     make([]SnapshotJob, 0, len(s.running)),
		Waiting:     make([]SnapshotJob, 0, len(s.waiting)),
	}
	for _, a := range s.running {
		snap.Running = append(snap.Running, SnapshotJob{JobID: a.job.ID, Procs: a.job.Procs, Start: a.start, End: a.wallEnd})
	}
	for _, e := range s.waiting {
		snap.Waiting = append(snap.Waiting, SnapshotJob{JobID: e.job.ID, Procs: e.job.Procs, Start: e.plannedStart, End: e.plannedEnd})
	}
	return snap
}

// CheckInvariants verifies the internal consistency of the scheduler: no
// core over-subscription at any instant (running and planned), FCFS start
// ordering, planned windows in the future, and agreement between the slices
// and the job-ID indexes. It is exported for use by the property-based tests
// and returns a descriptive error on the first violation.
func (s *Scheduler) CheckInvariants() error {
	s.ensurePlan()
	if len(s.running) != len(s.runningByID) || len(s.waiting) != len(s.waitingByID) {
		return fmt.Errorf("index out of sync: %d/%d running, %d/%d waiting",
			len(s.running), len(s.runningByID), len(s.waiting), len(s.waitingByID))
	}
	// Running and planned reservations must fit under the capacity timeline
	// (maintenance windows and revealed outages), not just the nominal size.
	prof := s.capacityBaseProfile(s.now)
	for _, a := range s.running {
		if s.runningByID[a.job.ID] != a {
			return fmt.Errorf("running index misses job %d", a.job.ID)
		}
		if a.wallEnd > s.now {
			if err := prof.reserve(s.now, a.wallEnd, a.job.Procs); err != nil {
				return fmt.Errorf("running over-subscription: %w", err)
			}
		}
	}
	prevStart := int64(-1)
	// Outage requeues hand out negative sequence numbers (frontSeq), so the
	// order check must start below every possible seq.
	prevSeq := int64(math.MinInt64)
	for _, e := range s.waiting {
		if s.waitingByID[e.job.ID] != e {
			return fmt.Errorf("waiting index misses job %d", e.job.ID)
		}
		if e.plannedStart < s.now {
			return fmt.Errorf("job %d planned to start at %d before now %d", e.job.ID, e.plannedStart, s.now)
		}
		if e.plannedEnd <= e.plannedStart {
			return fmt.Errorf("job %d has empty planned window [%d,%d)", e.job.ID, e.plannedStart, e.plannedEnd)
		}
		if err := prof.reserve(e.plannedStart, e.plannedEnd, e.job.Procs); err != nil {
			return fmt.Errorf("planned over-subscription: %w", err)
		}
		if s.policy == FCFS && prevStart >= 0 && e.plannedStart < prevStart {
			return fmt.Errorf("FCFS order violated: job %d starts at %d before its predecessor at %d", e.job.ID, e.plannedStart, prevStart)
		}
		if e.seq <= prevSeq {
			return fmt.Errorf("queue order corrupted at job %d", e.job.ID)
		}
		prevStart = e.plannedStart
		prevSeq = e.seq
	}
	if prof.minFree() < 0 {
		return errors.New("profile went negative")
	}
	return s.CheckProfileConsistency()
}
