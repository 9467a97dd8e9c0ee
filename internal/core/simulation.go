package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"

	"gridrealloc/internal/batch"
	"gridrealloc/internal/platform"
	"gridrealloc/internal/server"
	"gridrealloc/internal/sim"
	"gridrealloc/internal/workload"
)

// Config describes one simulation run: a platform, a local batch policy (the
// same on every cluster, as in the paper), a trace, an initial mapping
// policy and a reallocation configuration.
type Config struct {
	// Platform is the set of clusters. Required.
	Platform platform.Platform
	// Policy is the local batch scheduling policy used by every cluster.
	Policy batch.Policy
	// Trace is the workload to replay. Required and non-empty.
	Trace *workload.Trace
	// Mapping is the online policy the agent uses at submission time. Nil
	// defaults to MCT, the policy used throughout the paper.
	Mapping MappingPolicy
	// Realloc configures the reallocation mechanism. The zero value means no
	// reallocation (the baseline runs).
	Realloc ReallocConfig
	// OutagePolicy selects what happens to jobs caught running by an
	// unannounced capacity outage: batch.KillDisplaced (the default) or
	// batch.RequeueDisplaced. It is irrelevant on platforms without
	// capacity events.
	OutagePolicy batch.OutagePolicy
	// ClampOversized controls what happens to jobs wider than the largest
	// cluster: when true (the harness default) their processor request is
	// clamped to the largest cluster, otherwise the run fails.
	ClampOversized bool
	// VerifyInvariants runs every cluster's batch.CheckInvariants — core
	// over-subscription under the capacity ceiling, FCFS/seniority queue
	// ordering, and the incremental-vs-from-scratch profile cross-check —
	// after every reallocation pass, at every capacity-window boundary
	// (start and end), and at the end of the run. The checks are
	// behaviour-neutral (forcing the lazy plan early is bit-identical to the
	// deferred rebuild) but expensive, so only validation harnesses enable
	// them.
	VerifyInvariants bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Platform.Validate(); err != nil {
		return err
	}
	if c.Trace == nil || len(c.Trace.Jobs) == 0 {
		return errors.New("core: configuration without a trace")
	}
	return nil
}

// JobRecord is the outcome of one job in a simulation run.
type JobRecord struct {
	// JobID identifies the job within the trace.
	JobID int
	// Submit is the grid-level submission time.
	Submit int64
	// Start is the time the job began executing, or -1 if it never started.
	Start int64
	// Completion is the time the job finished (or was killed), or -1 if it
	// never completed.
	Completion int64
	// Cluster is the cluster that finally executed the job.
	Cluster string
	// Procs is the job's processor request after any clamping.
	Procs int
	// Reallocations is the number of times the job was migrated between
	// clusters before starting.
	Reallocations int
	// Requeues is the number of times the job was pushed back from
	// execution to the waiting queue by a capacity outage.
	Requeues int
	// Killed reports whether the batch system killed the job, at its
	// walltime or in a capacity outage.
	Killed bool
}

// ResponseTime returns the time the job spent in the system from submission
// to completion, the user-centric quantity of the paper. It returns -1 for a
// job that never completed.
func (r JobRecord) ResponseTime() int64 {
	if r.Completion < 0 {
		return -1
	}
	return r.Completion - r.Submit
}

// WaitTime returns the time spent waiting before execution, or -1 for a job
// that never started.
func (r JobRecord) WaitTime() int64 {
	if r.Start < 0 {
		return -1
	}
	return r.Start - r.Submit
}

// Result is the outcome of a simulation run.
type Result struct {
	// Scenario echoes the trace name.
	Scenario string
	// PlatformName echoes the platform name.
	PlatformName string
	// Policy echoes the local batch policy.
	Policy batch.Policy
	// Algorithm and HeuristicName echo the reallocation configuration.
	Algorithm     Algorithm
	HeuristicName string
	// Jobs maps job ID to its record.
	Jobs map[int]*JobRecord
	// TotalReallocations is the number of migrations performed over the
	// whole run.
	TotalReallocations int64
	// ReallocationEvents is the number of periodic reallocation passes run.
	ReallocationEvents int64
	// OutageKills and OutageRequeues count running jobs displaced by
	// capacity outages (killed and requeued respectively); both stay zero on
	// platforms without capacity events.
	OutageKills    int64
	OutageRequeues int64
	// Makespan is the completion time of the last job.
	Makespan int64
	// ServerLoads reports the number of requests issued to each cluster's
	// batch system.
	ServerLoads []server.RequestLoad
	// EventsExecuted is the number of discrete events the engine processed.
	EventsExecuted uint64

	// digestLanes and digestFinal carry the incremental run digest: the
	// driver folds every job record into an order-independent accumulator
	// the instant the record becomes final, and finalizeDigest seals the
	// lanes together with the run-level totals when the run ends. Unexported
	// so a hand-built Result simply has no incremental digest (Digest
	// returns "").
	digestLanes [3]uint64
	digestFinal string
}

// Digest returns the run digest folded incrementally during the event loop:
// a hex SHA-256 over the run-level totals and the order-independent fold of
// every job record (see sim.DigestAcc). Two runs produce the same digest
// exactly when every job record and every run-level total agree, which is
// the identity the campaign oracles compare — without the sort-and-format
// post-pass over the records that harness.Digest pays. A Result not
// produced by Run returns "".
func (r *Result) Digest() string { return r.digestFinal }

// finalizeDigest seals the incremental record fold with the run-level
// totals. Run calls it last, after any quarantine perturbation, so the
// digest answers for exactly the Result handed back.
func (r *Result) finalizeDigest(acc *sim.DigestAcc) {
	l0, l1, n := acc.Lanes()
	r.digestLanes = [3]uint64{l0, l1, n}
	h := sha256.New()
	fmt.Fprintf(h, "run makespan=%d moves=%d events=%d kills=%d requeues=%d\n",
		r.Makespan, r.TotalReallocations, r.ReallocationEvents, r.OutageKills, r.OutageRequeues)
	var buf [24]byte
	binary.LittleEndian.PutUint64(buf[0:8], l0)
	binary.LittleEndian.PutUint64(buf[8:16], l1)
	binary.LittleEndian.PutUint64(buf[16:24], n)
	h.Write(buf[:])
	r.digestFinal = hex.EncodeToString(h.Sum(nil))
}

// VerifyDigest recomputes the incremental fold from the final records — the
// post-pass the event-loop fold exists to avoid — and reports whether both
// agree. It is the trust check for the incremental digest: a record folded
// before its final mutation, folded twice, or skipped shows up as a lane or
// count mismatch. The harness runs it once per campaign reference run.
func (r *Result) VerifyDigest() error {
	if r.digestFinal == "" {
		return errors.New("core: result carries no incremental digest")
	}
	var acc sim.DigestAcc
	// The fold commutes, so any iteration order would do; sorted records
	// keep the determinism analyzer's map-order rule satisfied without a
	// suppression — this is the cold trust path, run once per campaign
	// scenario, so the sort is free in practice.
	for _, rec := range r.SortedRecords() {
		acc.Add(recordFold(rec, sim.MixString(0, rec.Cluster)))
	}
	l0, l1, n := acc.Lanes()
	if want := [3]uint64{l0, l1, n}; want != r.digestLanes {
		return fmt.Errorf("core: incremental digest diverged from records: folded %d records to %x/%x, recomputed %d to %x/%x",
			r.digestLanes[2], r.digestLanes[0], r.digestLanes[1], n, l0, l1)
	}
	return nil
}

// recordFold hashes one finalized job record for the incremental digest.
// clusterHash must be sim.MixString(0, rec.Cluster); the driver passes the
// per-cluster hash it precomputed at reset so the hot fold never rescans
// the name.
func recordFold(rec *JobRecord, clusterHash uint64) uint64 {
	h := sim.Mix64(uint64(rec.JobID))
	h = sim.Mix64(h ^ uint64(rec.Submit))
	h = sim.Mix64(h ^ uint64(rec.Start))
	h = sim.Mix64(h ^ uint64(rec.Completion))
	h = sim.Mix64(h ^ clusterHash)
	h = sim.Mix64(h ^ uint64(rec.Procs))
	h = sim.Mix64(h ^ uint64(rec.Reallocations))
	h = sim.Mix64(h ^ uint64(rec.Requeues))
	if rec.Killed {
		h = sim.Mix64(h ^ 1)
	} else {
		h = sim.Mix64(h ^ 2)
	}
	return h
}

// SortedRecords returns the job records ordered by job ID.
func (r *Result) SortedRecords() []*JobRecord {
	out := make([]*JobRecord, 0, len(r.Jobs))
	//gridlint:unordered-ok records are collected then sorted by unique JobID
	for _, rec := range r.Jobs {
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].JobID < out[j].JobID })
	return out
}

// MeanResponseTime returns the average response time over completed jobs.
func (r *Result) MeanResponseTime() float64 {
	sum, n := 0.0, 0
	// Response times are integer-valued seconds well below 2^53, so the
	// float sum is exact in any accumulation order.
	//gridlint:unordered-ok exact-sum fold is order-insensitive
	for _, rec := range r.Jobs {
		if rt := rec.ResponseTime(); rt >= 0 {
			sum += float64(rt)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// CompletedJobs returns the number of jobs that completed.
func (r *Result) CompletedJobs() int {
	n := 0
	//gridlint:unordered-ok counting is order-insensitive
	for _, rec := range r.Jobs {
		if rec.Completion >= 0 {
			n++
		}
	}
	return n
}

// Run executes one simulation and returns its result. It is shorthand for
// NewSimulator().Run(cfg); callers that run many scenarios back to back
// should keep one Simulator per worker instead, so every run after the first
// reuses the pooled schedulers, profiles and scratch state.
func Run(cfg Config) (*Result, error) {
	return NewSimulator().Run(cfg)
}

// Simulator is a reusable simulation context: the cluster servers (and their
// batch schedulers with all pooled buffers), the event engine, the
// meta-scheduling agent and the driver's scratch state survive from one Run
// to the next, so a campaign worker executes thousands of scenarios without
// reconstructing them each time. Every component is reset at the start of a
// run and a reset component is observationally identical to a fresh one, so
// Run on a reused Simulator is digest-identical to Run on a fresh one (the
// reuse-equivalence tests prove this over the 72-configuration grid and
// random harness scenarios). Only the Result escapes a run.
//
// A Simulator is not safe for concurrent use; create one per worker (the
// internal/runner worker pool does exactly that).
type Simulator struct {
	engine  *sim.Engine
	servers []*server.Server // every server ever built; runs use a prefix
	agent   *Agent
	d       driver

	// poisoned simulates a pooled context whose Reset contract is broken:
	// once set it is deliberately never cleared — not by Reset, not by a
	// new Run — and every later result is perturbed. Fault-injection
	// support only (see Poison); always false in production.
	poisoned bool
}

// NewSimulator returns an empty simulation context; pooled state accumulates
// across Run calls.
func NewSimulator() *Simulator { return &Simulator{} }

// Poison marks the pooled context as contaminated: every later Run on it
// completes but returns a deterministically perturbed result (its makespan
// is off by one), and nothing — including the per-run Reset of every
// component — clears the mark. It exists for the fault-injection harness,
// which uses it to prove the campaign runner's quarantine rule: a simulator
// suspected of corruption (a task panicked on it) must be discarded, never
// returned to a pool, because a broken Reset is exactly the fault no later
// run can detect from the inside. Production code never calls this.
func (sm *Simulator) Poison() { sm.poisoned = true }

// Run executes one simulation and returns its result, reusing the
// simulator's pooled state.
func (sm *Simulator) Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	trace := cfg.Trace
	if cfg.ClampOversized {
		trace = trace.Clamp(cfg.Platform.MaxCores())
	} else if trace.MaxProcs() > cfg.Platform.MaxCores() {
		return nil, fmt.Errorf("core: trace %q contains a job wider (%d procs) than the largest cluster (%d cores)",
			trace.Name, trace.MaxProcs(), cfg.Platform.MaxCores())
	}

	// Reset the pooled servers onto this run's clusters, growing the pool on
	// first contact with a larger platform. A run uses the prefix
	// servers[:len(clusters)]; surplus servers from a previous, wider
	// platform stay banked for the next one that needs them.
	n := len(cfg.Platform.Clusters)
	for i, spec := range cfg.Platform.Clusters {
		if i < len(sm.servers) {
			if err := sm.servers[i].Reset(spec, cfg.Policy); err != nil {
				return nil, err
			}
		} else {
			srv, err := server.New(spec, cfg.Policy)
			if err != nil {
				return nil, err
			}
			sm.servers = append(sm.servers, srv)
		}
		sm.servers[i].Scheduler().SetOutagePolicy(cfg.OutagePolicy)
	}
	servers := sm.servers[:n:n]

	if sm.agent == nil {
		agent, err := NewAgent(servers, cfg.Mapping, cfg.Realloc)
		if err != nil {
			return nil, err
		}
		sm.agent = agent
	} else if err := sm.agent.reset(servers, cfg.Mapping, cfg.Realloc); err != nil {
		return nil, err
	}
	agent := sm.agent
	if sm.engine == nil {
		sm.engine = sim.NewEngine()
	} else {
		sm.engine.Reset()
	}

	result := &Result{
		Scenario:      trace.Name,
		PlatformName:  cfg.Platform.Name,
		Policy:        cfg.Policy,
		Algorithm:     cfg.Realloc.Algorithm,
		HeuristicName: agent.Realloc().Heuristic.Name(),
		Jobs:          make(map[int]*JobRecord, len(trace.Jobs)),
	}

	d := &sm.d
	d.reset(sm.engine, agent, servers, result, len(trace.Jobs), cfg.VerifyInvariants)

	// One block allocation for every record; the map holds pointers into it.
	records := make([]JobRecord, len(trace.Jobs))
	for i, job := range trace.Jobs {
		records[i] = JobRecord{
			JobID:  job.ID,
			Submit: job.Submit,
			Start:  -1, Completion: -1,
			Procs: job.Procs,
		}
		result.Jobs[job.ID] = &records[i]
	}
	// Schedule the submissions. Traces are sorted by (Submit, ID), so one
	// persistent event walks the trace: when it fires it reschedules itself
	// to the next job's submit time before handling the current one, keeping
	// the engine's queue small and the whole chain allocation-free no matter
	// how long the trace is. A hand-built unsorted trace falls back to
	// scheduling every submission upfront.
	sorted := true
	for i := 1; i < len(trace.Jobs); i++ {
		if trace.Jobs[i].Submit < trace.Jobs[i-1].Submit {
			sorted = false
			break
		}
	}
	if sorted {
		jobs := trace.Jobs
		next := 0
		var submitEv *sim.Event
		submitEv = d.engine.MustSchedule(sim.Time(jobs[0].Submit), sim.PrioritySubmission, "submit", func(now sim.Time) {
			job := jobs[next]
			next++
			if next < len(jobs) {
				// Rescheduling before handling preserves the engine-sequence
				// order the schedule-ahead pattern produced.
				if err := d.engine.Reschedule(submitEv, sim.Time(jobs[next].Submit)); err != nil {
					d.errs = append(d.errs, err)
				}
			}
			d.handleSubmission(job, int64(now))
		})
	} else {
		for _, job := range trace.Jobs {
			job := job
			d.engine.MustSchedule(sim.Time(job.Submit), sim.PrioritySubmission, fmt.Sprintf("submit-%d", job.ID), func(now sim.Time) {
				d.handleSubmission(job, int64(now))
			})
		}
	}

	// Schedule one wake per capacity event so clusters observe outages the
	// instant they strike (and maintenance boundaries the instant planning
	// could improve) instead of at the next job event. The per-cluster wake
	// refresh covers these instants too through NextEventTime, but an
	// explicit event also wakes an otherwise idle platform.
	for _, spec := range cfg.Platform.Clusters {
		for _, ev := range spec.Capacity {
			d.engine.MustSchedule(sim.Time(ev.Start), sim.PriorityFinish, "capacity-"+spec.Name, func(t sim.Time) {
				d.handleWake(int64(t))
				// A capacity boundary is where displacement, requeue seniority
				// and the reserved-cores bookkeeping can go wrong; verify
				// right after the reveal is processed.
				d.verifyInvariants()
			})
			if cfg.VerifyInvariants {
				// Capacity restoration (profile re-expansion, release of the
				// reserved outage cores) is just as fallible as the reveal;
				// check it too. The extra wake only exists on verified runs —
				// the wake handler is idempotent and observation timing never
				// changes outcomes, which the harness proves empirically by
				// comparing verified against unverified digests.
				d.engine.MustSchedule(sim.Time(ev.End), sim.PriorityFinish, "capacity-end-"+spec.Name, func(t sim.Time) {
					d.handleWake(int64(t))
					d.verifyInvariants()
				})
			}
		}
	}

	// Schedule the periodic reallocation, starting one hour (one period)
	// after the first submission, as in the paper's experiments. One
	// persistent event is rescheduled from pass to pass (tie-break-identical
	// to scheduling a fresh event each time), so a month of hourly passes
	// enqueues one event and one handler closure instead of hundreds.
	if cfg.Realloc.Algorithm != NoReallocation {
		first := trace.Jobs[0].Submit
		period := agent.Realloc().Period
		d.reallocEv = d.engine.MustSchedule(sim.Time(first+period), sim.PriorityRealloc, "realloc", d.handleReallocation)
	}

	if err := d.engine.RunAll(); err != nil {
		return nil, fmt.Errorf("core: simulation of %q failed: %w", trace.Name, err)
	}
	// Defensive drain: if any cluster still has work (should not happen,
	// wake events cover the tail), advance it to the end.
	if err := d.drain(); err != nil {
		return nil, err
	}
	if cfg.VerifyInvariants {
		for _, srv := range servers {
			if err := srv.Scheduler().CheckInvariants(); err != nil {
				return nil, fmt.Errorf("core: invariant violation on %s at end of %q: %w", srv.Name(), trace.Name, err)
			}
		}
	}

	result.ServerLoads = make([]server.RequestLoad, 0, len(servers))
	for _, srv := range servers {
		result.ServerLoads = append(result.ServerLoads, srv.Load())
	}
	result.TotalReallocations = agent.TotalReallocations()
	result.ReallocationEvents = agent.ReallocationEvents()
	result.EventsExecuted = d.engine.Steps()
	if sm.poisoned {
		// The simulated contamination: a digest-visible perturbation that
		// only the runner's quarantine (discard the simulator, never reuse
		// it) can keep out of later tasks' results.
		result.Makespan++
	}
	// Seal the incremental digest last, after the quarantine perturbation,
	// so it answers for exactly the Result handed back.
	result.finalizeDigest(&d.digest)
	return result, nil
}

// driver glues the event engine, the agent and the cluster servers together
// and records per-job outcomes. It lives inside a Simulator and is reset
// (keeping its slices) between runs.
//
//gridlint:resettable
type driver struct {
	engine  *sim.Engine
	agent   *Agent
	servers []*server.Server
	result  *Result
	// wakes holds one persistent wake-up event per cluster, rescheduled in
	// place as the cluster's next internal event moves; wakePending tracks
	// whether the event is currently queued (it is cleared when the event
	// fires or is cancelled), so the hot refresh path allocates nothing.
	wakes       []*sim.Event
	wakePending []bool
	wakeNames   []string
	// reallocEv is the single periodic reallocation event, rescheduled from
	// pass to pass.
	reallocEv *sim.Event
	// digest accumulates the incremental run digest; record folds each job
	// record in at the instant it becomes final. clusterHash carries the
	// per-cluster name hashes (index-aligned with servers), precomputed at
	// reset so the hot fold never rescans a name.
	digest      sim.DigestAcc
	clusterHash []uint64
	total       int
	completed   int
	// verify runs the per-cluster invariant checks at reallocation passes
	// and capacity events (Config.VerifyInvariants).
	verify bool
	errs   []error
}

// reset prepares the driver for one run, reusing its per-cluster slices.
func (d *driver) reset(engine *sim.Engine, agent *Agent, servers []*server.Server, result *Result, total int, verify bool) {
	d.engine = engine
	d.agent = agent
	d.servers = servers
	d.result = result
	n := len(servers)
	if cap(d.wakes) < n {
		d.wakes = make([]*sim.Event, n)
		d.wakePending = make([]bool, n)
		d.wakeNames = make([]string, n)
		d.clusterHash = make([]uint64, n)
	}
	d.wakes = d.wakes[:n]
	d.wakePending = d.wakePending[:n]
	d.wakeNames = d.wakeNames[:n]
	d.clusterHash = d.clusterHash[:n]
	for i, srv := range servers {
		// The wake events of the previous run died with the engine reset;
		// fresh closures are built lazily by refreshWakes.
		d.wakes[i] = nil
		d.wakePending[i] = false
		d.wakeNames[i] = "wake-" + srv.Name()
		d.clusterHash[i] = sim.MixString(0, srv.Name())
	}
	d.reallocEv = nil
	d.digest.Reset()
	d.total = total
	d.completed = 0
	d.verify = verify
	d.errs = d.errs[:0]
}

// verifyInvariants checks every cluster's scheduler invariants when the run
// was configured to verify them; violations are collected like any other
// driver error and surfaced by drain.
func (d *driver) verifyInvariants() {
	if !d.verify {
		return
	}
	for _, srv := range d.servers {
		if err := srv.Scheduler().CheckInvariants(); err != nil {
			d.errs = append(d.errs, fmt.Errorf("core: invariant violation on %s: %w", srv.Name(), err))
		}
	}
}

// advanceAll brings every cluster to the current time and records the
// notifications they emit.
func (d *driver) advanceAll(now int64) {
	for i, srv := range d.servers {
		notes, err := srv.Scheduler().Advance(now)
		if err != nil {
			d.errs = append(d.errs, err)
			continue
		}
		d.record(srv.Name(), d.clusterHash[i], notes)
	}
}

// record applies cluster notifications to the per-job records. clusterHash
// must be sim.MixString(0, cluster); a Finished notification makes the
// record final, so that is where it is folded into the incremental digest.
func (d *driver) record(cluster string, clusterHash uint64, notes []batch.Notification) {
	for _, n := range notes {
		rec, ok := d.result.Jobs[n.JobID]
		if !ok {
			d.errs = append(d.errs, fmt.Errorf("core: notification for unknown job %d", n.JobID))
			continue
		}
		switch n.Kind {
		case batch.Started:
			rec.Start = n.Time
			rec.Cluster = cluster
		case batch.Finished:
			rec.Completion = n.Time
			rec.Killed = n.Killed
			rec.Cluster = cluster
			if n.Time > d.result.Makespan {
				d.result.Makespan = n.Time
			}
			d.completed++
			d.agent.Forget(n.JobID)
			if n.Displaced {
				d.result.OutageKills++
			}
			// Finished is terminal: nothing mutates the record afterwards
			// (reallocation counting only touches waiting jobs), so fold it
			// into the digest now.
			d.digest.Add(recordFold(rec, clusterHash))
		case batch.Requeued:
			// The job lost its execution to an outage and is waiting again;
			// its eventual restart will overwrite Start.
			rec.Start = -1
			rec.Requeues++
			d.result.OutageRequeues++
		}
	}
}

// refreshWakes re-schedules the per-cluster wake-up events according to each
// cluster's next internal event. A wake that is already pending at the right
// instant is kept rather than moved: the handler is idempotent (it advances
// every cluster to the current time), so only the fire time matters. Each
// cluster owns one persistent event that is rescheduled in place —
// semantically identical to cancel-and-reinsert (the engine hands it a fresh
// tie-breaking sequence number) but without allocating an event and handler
// closure per refresh or flooding the engine's queue with tombstones.
func (d *driver) refreshWakes(now int64) {
	for i, srv := range d.servers {
		next, ok := srv.Scheduler().NextEventTime()
		if !ok {
			if d.wakePending[i] {
				d.wakes[i].Cancel()
				d.wakePending[i] = false
			}
			continue
		}
		if next < now {
			next = now
		}
		if d.wakePending[i] && d.wakes[i].Time == sim.Time(next) {
			continue
		}
		if d.wakes[i] == nil {
			i := i
			d.wakes[i] = d.engine.MustSchedule(sim.Time(next), sim.PriorityFinish, d.wakeNames[i], func(t sim.Time) {
				// A fired event must not be mistaken for a pending one by the
				// keep-if-same-time test above.
				d.wakePending[i] = false
				d.handleWake(int64(t))
			})
		} else if err := d.engine.Reschedule(d.wakes[i], sim.Time(next)); err != nil {
			d.errs = append(d.errs, err)
			continue
		}
		d.wakePending[i] = true
	}
}

func (d *driver) handleWake(now int64) {
	d.advanceAll(now)
	d.refreshWakes(now)
}

func (d *driver) handleSubmission(job workload.Job, now int64) {
	d.advanceAll(now)
	rec := d.result.Jobs[job.ID]
	cluster, err := d.agent.SubmitJob(job, now)
	if err != nil {
		d.errs = append(d.errs, fmt.Errorf("core: job %d could not be mapped: %w", job.ID, err))
		// The job is dropped; its record keeps Start/Completion at -1 and
		// Cluster empty — final from this moment, so fold it.
		d.completed++
		d.digest.Add(recordFold(rec, sim.MixString(0, "")))
		d.refreshWakes(now)
		return
	}
	rec.Cluster = cluster
	d.refreshWakes(now)
}

func (d *driver) handleReallocation(now sim.Time) {
	t := int64(now)
	d.advanceAll(t)
	if _, err := d.agent.Reallocate(t); err != nil {
		d.errs = append(d.errs, err)
	}
	d.updateReallocationCounts()
	d.verifyInvariants()
	d.refreshWakes(t)
	// Keep reallocating while jobs remain in the system, by rescheduling the
	// one persistent reallocation event (identical in tie-breaking to
	// scheduling a fresh event, without the per-pass allocations).
	if d.completed < d.total {
		if err := d.engine.Reschedule(d.reallocEv, now+sim.Time(d.agent.Realloc().Period)); err != nil {
			d.errs = append(d.errs, err)
		}
	}
}

// updateReallocationCounts copies the per-job migration counters from the
// waiting queues into the job records, so the final records reflect how many
// times each job moved before starting. It reads no planned window, so it
// leaves every cluster's deferred re-plan deferred.
func (d *driver) updateReallocationCounts() {
	for _, srv := range d.servers {
		name := srv.Name()
		srv.Scheduler().WaitingReallocations(func(jobID, reallocations int) {
			if rec, ok := d.result.Jobs[jobID]; ok {
				rec.Reallocations = reallocations
				rec.Cluster = name
			}
		})
	}
}

// drain advances the clusters past the last queued event, guarding against a
// missed wake-up. It is a no-op in normal runs.
func (d *driver) drain() error {
	for iter := 0; ; iter++ {
		if iter > 1<<22 {
			return errors.New("core: drain did not converge; a job can never start")
		}
		next := int64(-1)
		for _, srv := range d.servers {
			if t, ok := srv.Scheduler().NextEventTime(); ok && (next == -1 || t < next) {
				next = t
			}
		}
		if next == -1 {
			break
		}
		d.advanceAll(next)
	}
	if len(d.errs) > 0 {
		return fmt.Errorf("core: %d error(s) during simulation, first: %w", len(d.errs), d.errs[0])
	}
	return nil
}
