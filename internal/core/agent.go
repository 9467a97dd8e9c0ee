package core

import (
	"errors"
	"fmt"
	"sort"

	"gridrealloc/internal/batch"
	"gridrealloc/internal/server"
	"gridrealloc/internal/workload"
)

// Algorithm selects which reallocation mechanism the agent runs at each
// periodic reallocation event.
type Algorithm int

// The reallocation algorithms compared in the paper, plus the baseline.
const (
	// NoReallocation disables the mechanism; the agent only performs the
	// initial mapping. This is the reference every metric is compared to.
	NoReallocation Algorithm = iota
	// WithoutCancellation is Algorithm 1: consider every waiting job in
	// heuristic order and move it (cancel + resubmit) only when another
	// cluster offers a completion time at least MinGain seconds better.
	WithoutCancellation
	// WithCancellation is Algorithm 2: cancel every waiting job on every
	// cluster, then re-submit them one by one in heuristic order, each to
	// the cluster with the minimum estimated completion time.
	WithCancellation
)

// String returns a short identifier ("none", "realloc", "realloc-cancel").
func (a Algorithm) String() string {
	switch a {
	case WithoutCancellation:
		return "realloc"
	case WithCancellation:
		return "realloc-cancel"
	default:
		return "none"
	}
}

// ParseAlgorithm resolves an algorithm from its string form.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "none", "":
		return NoReallocation, nil
	case "realloc", "no-cancel", "algorithm1":
		return WithoutCancellation, nil
	case "realloc-cancel", "cancel", "algorithm2":
		return WithCancellation, nil
	default:
		return NoReallocation, fmt.Errorf("core: unknown reallocation algorithm %q", s)
	}
}

// DefaultReallocationPeriod is the paper's reallocation frequency: once per
// hour.
const DefaultReallocationPeriod int64 = 3600

// DefaultMinGain is the paper's minimum improvement (one minute) required
// before Algorithm 1 moves a job.
const DefaultMinGain int64 = 60

// ReallocConfig configures the reallocation mechanism of the agent.
type ReallocConfig struct {
	// Algorithm selects the mechanism (NoReallocation disables it).
	Algorithm Algorithm
	// Heuristic orders the candidates; nil defaults to MCT.
	Heuristic Heuristic
	// Period is the interval between reallocation events in seconds;
	// non-positive values default to DefaultReallocationPeriod.
	Period int64
	// MinGain is the minimum completion-time improvement (seconds) required
	// for Algorithm 1 to move a job; non-positive values default to
	// DefaultMinGain. Algorithm 2 ignores it.
	MinGain int64
	// SweepWorkers bounds the worker pool this run's reallocation sweeps fan
	// per-cluster work over; 0 uses GOMAXPROCS and 1 forces the sequential
	// path. Parallel and sequential sweeps are bit-identical, so this is a
	// performance knob and the lever determinism checks flip; being per run,
	// it lets concurrent simulations (the fuzz harness) use different
	// settings side by side.
	SweepWorkers int
	// SweepThreshold is the minimum number of (candidate, cluster) pairs a
	// sweep must hold before it fans out; 0 uses the tuned default of 2048.
	// Tests and the fuzz harness set 1 to force the parallel path onto small
	// fixtures.
	SweepThreshold int
}

// normalized returns the config with defaults applied.
func (c ReallocConfig) normalized() ReallocConfig {
	if c.Heuristic == nil {
		c.Heuristic = MCT()
	}
	if c.Period <= 0 {
		c.Period = DefaultReallocationPeriod
	}
	if c.MinGain <= 0 {
		c.MinGain = DefaultMinGain
	}
	return c
}

// Agent is the meta-scheduler of the paper's architecture: it maps every
// incoming job to a cluster (MappingPolicy) and periodically reallocates
// waiting jobs between clusters (ReallocConfig).
//
//gridlint:resettable
type Agent struct {
	//gridlint:cluster-indexed
	servers  []*server.Server
	byName   map[string]int // cluster name -> server index
	mapping  MappingPolicy
	realloc  ReallocConfig
	location map[int]int // jobID -> server index while the job is in the system

	totalReallocations int64
	reallocationEvents int64
	skippedRaces       int64
	skippedSweeps      int64

	// Dirty-cluster tracking between reallocation passes: gatherVersion[i]
	// is servers[i]'s batch.Scheduler StateVersion at the last gather, and
	// gatherValid[i] marks the cached queue view in scratchWaiting[i] as
	// exact. A cluster whose version did not move since the last pass had no
	// submission, cancellation, start, early finish or capacity reveal, so
	// its waiting queue and every planned window in it are bit-for-bit what
	// the last gather copied — the sweep reuses the cached view instead of
	// re-listing (and re-observing) the queue.
	//gridlint:cluster-indexed
	gatherVersion []uint64 //gridlint:keep-across-reset stale versions are inert while gatherValid is false
	//gridlint:cluster-indexed
	gatherValid []bool
	sorter      candidateOrderSorter //gridlint:keep-across-reset stateless sort scratch

	// Scratch buffers reused across reallocation passes, so a sweep's
	// bookkeeping (candidate gathering, the ECT matrix, the estimate slice)
	// allocates only when the platform outgrows every previous pass.
	//gridlint:cluster-indexed
	scratchWaiting       [][]batch.WaitingJob //gridlint:keep-across-reset capacity only; contents gated by gatherValid
	scratchCands         []Candidate          //gridlint:keep-across-reset capacity only, truncated before use
	scratchOrigins       []int                //gridlint:keep-across-reset capacity only, truncated before use
	scratchSortedCands   []Candidate          //gridlint:keep-across-reset capacity only, truncated before use
	scratchSortedOrigins []int                //gridlint:keep-across-reset capacity only, truncated before use
	scratchOrder         []int                //gridlint:keep-across-reset capacity only, truncated before use
	scratchEsts          []Estimate           //gridlint:keep-across-reset capacity only, truncated before use
	//gridlint:cluster-indexed
	scratchSnaps    []batch.EstimateSnapshot //gridlint:keep-across-reset capacity only, refreshed before use
	scratchECTs     []int64                  //gridlint:keep-across-reset capacity only, truncated before use
	scratchRows     [][]int64                //gridlint:keep-across-reset capacity only, truncated before use
	scratchWalls    []int64                  //gridlint:keep-across-reset capacity only, truncated before use
	scratchWallRows [][]int64                //gridlint:keep-across-reset capacity only, truncated before use
	//gridlint:cluster-indexed
	scratchErrs []error //gridlint:keep-across-reset capacity only, truncated before use
}

// NewAgent builds an agent over the given servers. Mapping defaults to MCT
// when nil.
func NewAgent(servers []*server.Server, mapping MappingPolicy, realloc ReallocConfig) (*Agent, error) {
	a := &Agent{
		byName:   make(map[string]int, len(servers)),
		location: make(map[int]int),
	}
	if err := a.reset(servers, mapping, realloc); err != nil {
		return nil, err
	}
	return a, nil
}

// reset re-points the agent at a server set and configuration, clearing all
// per-run state (locations, counters, dirty-cluster tracking) while keeping
// every scratch buffer, so the pooled simulator reuses one agent across
// thousands of scenarios. A reset agent behaves exactly like a fresh one.
func (a *Agent) reset(servers []*server.Server, mapping MappingPolicy, realloc ReallocConfig) error {
	if len(servers) == 0 {
		return errors.New("core: agent needs at least one server")
	}
	if mapping == nil {
		mapping = MCTMapping()
	}
	a.servers = servers
	clear(a.byName)
	for i, s := range servers {
		a.byName[s.Name()] = i
	}
	a.mapping = mapping
	a.realloc = realloc.normalized()
	clear(a.location)
	a.totalReallocations = 0
	a.reallocationEvents = 0
	a.skippedRaces = 0
	a.skippedSweeps = 0
	for i := range a.gatherValid {
		a.gatherValid[i] = false
	}
	return nil
}

// Servers returns the servers the agent manages, in platform order.
func (a *Agent) Servers() []*server.Server { return a.servers }

// Realloc returns the normalized reallocation configuration.
func (a *Agent) Realloc() ReallocConfig { return a.realloc }

// TotalReallocations returns the number of migrations performed so far. A
// job migrated several times is counted once per migration, as in the
// paper's "number of reallocations" metric.
func (a *Agent) TotalReallocations() int64 { return a.totalReallocations }

// ReallocationEvents returns the number of periodic reallocation passes run.
func (a *Agent) ReallocationEvents() int64 { return a.reallocationEvents }

// SkippedRaces returns the number of reallocation moves abandoned because
// the job started between the queue snapshot and the cancellation attempt.
// Such a race skips the one candidate instead of aborting the whole sweep.
func (a *Agent) SkippedRaces() int64 { return a.skippedRaces }

// SkippedSweeps returns the number of reallocation passes skipped outright
// because no cluster held a waiting job — a no-op sweep that would otherwise
// still force every cluster's deferred re-plan. Skipped passes are counted in
// ReallocationEvents like executed ones.
func (a *Agent) SkippedSweeps() int64 { return a.skippedSweeps }

// SubmitJob maps the job to a cluster using the mapping policy and submits
// it there. It returns the name of the chosen cluster.
func (a *Agent) SubmitJob(j workload.Job, now int64) (string, error) {
	idx, err := a.mapping.ChooseCluster(j, a.servers, now)
	if err != nil {
		return "", err
	}
	if err := a.servers[idx].Submit(j, now, 0); err != nil {
		return "", fmt.Errorf("core: submitting job %d to %s: %w", j.ID, a.servers[idx].Name(), err)
	}
	a.location[j.ID] = idx
	return a.servers[idx].Name(), nil
}

// JobCluster returns the name of the cluster currently holding the job, or
// "" when the agent does not know the job (never submitted or forgotten).
func (a *Agent) JobCluster(jobID int) string {
	idx, ok := a.location[jobID]
	if !ok {
		return ""
	}
	return a.servers[idx].Name()
}

// Forget drops the agent's location record for a completed job.
func (a *Agent) Forget(jobID int) { delete(a.location, jobID) }

// Reallocate runs one reallocation pass at time now using the configured
// algorithm and heuristic. It returns the number of migrations performed
// during this pass.
func (a *Agent) Reallocate(now int64) (int, error) {
	if a.realloc.Algorithm == NoReallocation {
		return 0, nil
	}
	a.reallocationEvents++
	total := 0
	for _, s := range a.servers {
		total += s.Scheduler().WaitingCount()
	}
	if total == 0 {
		// No waiting jobs anywhere: both algorithms would gather an empty
		// candidate set and return without touching any cluster. Skipping
		// before the gather spares every cluster the queue listing that
		// would force its deferred re-plan — behaviour-neutral, because the
		// lazy plan flush is bit-identical whenever it runs.
		a.skippedSweeps++
		return 0, nil
	}
	switch a.realloc.Algorithm {
	case WithoutCancellation:
		return a.reallocateWithoutCancellation(now, total)
	case WithCancellation:
		return a.reallocateWithCancellation(now, total)
	default:
		return 0, fmt.Errorf("core: unsupported algorithm %v", a.realloc.Algorithm)
	}
}

// gatherCandidates snapshots the waiting queues of every cluster. Listing a
// queue forces that cluster's deferred re-plan, so the per-cluster listings
// are fanned over the sweep worker pool when the platform is loaded enough
// to pay for it; the per-cluster slices are then merged in platform order,
// keeping the result identical to the sequential gather. Clusters whose
// scheduler state version did not move since the last gather are not
// re-listed at all: the cached view is provably bit-for-bit what a fresh
// listing would return (no mutation means no membership change and no plan
// change), which is the dirty-cluster half of the sweep-skipping
// optimisation.
//
// total is the summed WaitingCount the caller (Reallocate) already computed
// for the empty-sweep skip; sharing it keeps the skip decision and the
// gather's sizing in agreement.
func (a *Agent) gatherCandidates(total int) ([]Candidate, []int) {
	if cap(a.scratchWaiting) < len(a.servers) {
		a.scratchWaiting = make([][]batch.WaitingJob, len(a.servers))
		a.gatherVersion = make([]uint64, len(a.servers))
		a.gatherValid = make([]bool, len(a.servers))
	}
	perCluster := a.scratchWaiting[:len(a.servers)]
	versions := a.gatherVersion[:len(a.servers)]
	valid := a.gatherValid[:len(a.servers)]
	a.forEachCluster(len(a.servers), total, func(idx int) {
		v := a.servers[idx].Scheduler().StateVersion()
		if valid[idx] && versions[idx] == v {
			return
		}
		perCluster[idx] = a.servers[idx].Scheduler().AppendWaitingJobs(perCluster[idx][:0])
		versions[idx] = v
		valid[idx] = true
	})
	cands := a.scratchCands[:0]
	if cap(cands) < total {
		cands = make([]Candidate, 0, total)
	}
	origins := a.scratchOrigins[:0]
	if cap(origins) < total {
		origins = make([]int, 0, total)
	}
	for idx, s := range a.servers {
		for _, w := range perCluster[idx] {
			cands = append(cands, Candidate{
				Job:           w.Job,
				OriginCluster: s.Name(),
				OriginECT:     w.PlannedEnd,
				Reallocations: w.Reallocations,
			})
			origins = append(origins, idx)
		}
	}
	// Deterministic processing order regardless of server iteration:
	// submission time then job ID. The sort permutes both slices through an
	// index order so candidates and origins stay aligned; the persistent
	// sorter spares the closure and header allocations sort.SliceStable
	// would pay on every pass.
	order := a.scratchOrder[:0]
	for i := range cands {
		order = append(order, i)
	}
	a.sorter.order, a.sorter.cands = order, cands
	sort.Stable(&a.sorter)
	a.sorter.cands = nil
	a.scratchOrder = order
	if cap(a.scratchSortedCands) < len(cands) {
		a.scratchSortedCands = make([]Candidate, len(cands))
		a.scratchSortedOrigins = make([]int, len(cands))
	}
	sortedCands := a.scratchSortedCands[:len(cands)]
	sortedOrigins := a.scratchSortedOrigins[:len(cands)]
	for i, o := range order {
		sortedCands[i] = cands[o]
		sortedOrigins[i] = origins[o]
	}
	a.scratchCands = cands
	a.scratchOrigins = origins
	return sortedCands, sortedOrigins
}

// candidateOrderSorter stable-sorts the gather's index permutation by
// (submission time, job ID). It lives on the agent so the per-pass sort
// allocates nothing.
type candidateOrderSorter struct {
	order []int
	cands []Candidate
}

func (s *candidateOrderSorter) Len() int { return len(s.order) }
func (s *candidateOrderSorter) Less(x, y int) bool {
	return submitsBefore(s.cands[s.order[x]].Job, s.cands[s.order[y]].Job)
}
func (s *candidateOrderSorter) Swap(x, y int) {
	s.order[x], s.order[y] = s.order[y], s.order[x]
}

// sweep is the per-pass estimation state: one availability snapshot per
// cluster, taken once and reused across every candidate job and every
// heuristic iteration, plus the ECT matrix derived from the snapshots.
// After a migration only the two touched clusters are re-snapshotted and
// only their matrix columns recomputed, so a pass over n candidates and m
// clusters costs O(n*m) slot searches up front plus O(n) per move instead
// of O(n*m) per move.
type sweep struct {
	a   *Agent
	now int64
	//gridlint:cluster-indexed
	snaps []batch.EstimateSnapshot // one per cluster, refreshed in place
	ects  [][]int64                // [candidate][cluster]; NoEstimate when unavailable
	// walls caches each candidate's scaled walltime per cluster (0 = not
	// yet computed): a column refresh after a move re-estimates every
	// remaining candidate, and the reservation length does not change.
	walls [][]int64
}

// newSweep snapshots every cluster and fills the ECT matrix for the given
// candidates. The matrix backing is one flat allocation (reused across
// passes), and the per-cluster work — one snapshot plus that cluster's
// matrix column — is fanned over the bounded worker pool on sweeps large
// enough to pay for it. Each worker touches exactly one cluster's scheduler
// and writes only its own column and error slot, so the merged result is
// bit-identical to the sequential sweep regardless of scheduling order;
// errors are surfaced in platform order for the same reason.
func (a *Agent) newSweep(now int64, cands []Candidate) (*sweep, error) {
	n, m := len(cands), len(a.servers)
	if cap(a.scratchSnaps) < m {
		a.scratchSnaps = make([]batch.EstimateSnapshot, m)
		a.scratchErrs = make([]error, m)
	}
	if cap(a.scratchECTs) < n*m {
		a.scratchECTs = make([]int64, n*m)
		a.scratchWalls = make([]int64, n*m)
	}
	if cap(a.scratchRows) < n {
		a.scratchRows = make([][]int64, n)
		a.scratchWallRows = make([][]int64, n)
	}
	sw := &sweep{
		a:     a,
		now:   now,
		snaps: a.scratchSnaps[:m],
		ects:  a.scratchRows[:n],
		walls: a.scratchWallRows[:n],
	}
	flat := a.scratchECTs[:n*m]
	flatW := a.scratchWalls[:n*m]
	for i := range flatW {
		flatW[i] = 0
	}
	for i := range sw.ects {
		sw.ects[i] = flat[i*m : (i+1)*m : (i+1)*m]
		sw.walls[i] = flatW[i*m : (i+1)*m : (i+1)*m]
	}
	errs := a.scratchErrs[:m]
	a.forEachCluster(m, n*m, func(idx int) {
		if err := a.servers[idx].EstimateSnapshotInto(&sw.snaps[idx], now); err != nil {
			errs[idx] = err
			return
		}
		errs[idx] = nil
		for i := range cands {
			sw.ects[i][idx] = sw.query(i, idx, cands[i].Job)
		}
	})
	for idx, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: snapshotting %s: %w", a.servers[idx].Name(), err)
		}
	}
	return sw, nil
}

// query answers one (job, cluster) ECT from the cluster's snapshot,
// returning NoEstimate when the job can never run there. A snapshot whose
// plan changed under it — which only happens when a capacity event fires at
// the sweep instant, as the sweep itself refreshes the clusters it mutates —
// re-takes itself on the query, so estimates never reflect capacity the
// cluster lost.
func (sw *sweep) query(i, idx int, j workload.Job) int64 {
	wall := sw.walls[i][idx]
	if wall == 0 {
		wall = sw.snaps[idx].ScaledWalltime(j)
		sw.walls[i][idx] = wall
	}
	ect, ok := sw.snaps[idx].TryEstimateCompletionScaled(j.Procs, wall)
	if !ok {
		return NoEstimate
	}
	return ect
}

// refreshCluster re-snapshots one cluster (whose queue just changed) and
// recomputes its matrix column for the remaining candidates.
func (sw *sweep) refreshCluster(idx int, cands []Candidate) error {
	if err := sw.a.servers[idx].EstimateSnapshotInto(&sw.snaps[idx], sw.now); err != nil {
		return fmt.Errorf("core: snapshotting %s: %w", sw.a.servers[idx].Name(), err)
	}
	for i := range cands {
		sw.ects[i][idx] = sw.query(i, idx, cands[i].Job)
	}
	return nil
}

// remove drops the candidate's matrix and wall-cache rows, mirroring the
// caller's removal from the candidate slice.
func (sw *sweep) remove(i int) {
	sw.ects = append(sw.ects[:i], sw.ects[i+1:]...)
	sw.walls = append(sw.walls[:i], sw.walls[i+1:]...)
}

// estimate builds the Estimate for one candidate from its matrix row. When
// hypothetical is true, the origin cluster is treated like any other cluster
// (the job is no longer queued there, as in Algorithm 2); otherwise the
// origin cluster contributes originECT, the job's current planned
// completion.
func (sw *sweep) estimate(i, origin int, originECT int64, hypothetical bool) Estimate {
	est := Estimate{BestECT: NoEstimate, SecondECT: NoEstimate, BestOtherECT: NoEstimate}
	for idx, s := range sw.a.servers {
		ect := sw.ects[i][idx]
		other := idx != origin
		if idx == origin && !hypothetical {
			ect = originECT
		}
		if ect == NoEstimate {
			continue
		}
		if ect < est.BestECT {
			est.SecondECT = est.BestECT
			est.BestECT = ect
			est.BestCluster = s.Name()
		} else if ect < est.SecondECT {
			est.SecondECT = ect
		}
		if other && ect < est.BestOtherECT {
			est.BestOtherECT = ect
			est.BestOtherCluster = s.Name()
		}
	}
	return est
}

// reallocateWithoutCancellation implements Algorithm 1 of the paper.
func (a *Agent) reallocateWithoutCancellation(now int64, totalWaiting int) (int, error) {
	cands, origins := a.gatherCandidates(totalWaiting)
	if len(cands) == 0 {
		return 0, nil
	}
	sw, err := a.newSweep(now, cands)
	if err != nil {
		return 0, err
	}
	if cap(a.scratchEsts) < len(cands) {
		a.scratchEsts = make([]Estimate, len(cands))
	}
	ests := a.scratchEsts[:len(cands)]
	for i := range cands {
		ests[i] = sw.estimate(i, origins[i], cands[i].OriginECT, false)
	}
	moves := 0
	for len(cands) > 0 {
		pick := a.realloc.Heuristic.Select(cands, ests)
		c, origin := cands[pick], origins[pick]
		est := ests[pick]

		moved := false
		destIdx := -1
		if est.BestOtherECT != NoEstimate && est.BestOtherECT+a.realloc.MinGain < c.OriginECT {
			var ok bool
			destIdx, ok = a.byName[est.BestOtherCluster]
			if !ok {
				return moves, fmt.Errorf("core: unknown destination cluster %q", est.BestOtherCluster)
			}
			switch err := a.moveJob(c, origin, destIdx, now); {
			case err == nil:
				moves++
				moved = true
			case errors.Is(err, batch.ErrJobRunning):
				// The job started between the queue snapshot and the cancel;
				// it is no longer a candidate. Skip it, keep the sweep going.
				a.skippedRaces++
			default:
				return moves, err
			}
		}

		// Drop the handled candidate.
		cands = append(cands[:pick], cands[pick+1:]...)
		origins = append(origins[:pick], origins[pick+1:]...)
		ests = append(ests[:pick], ests[pick+1:]...)
		sw.remove(pick)

		// A migration changes exactly two clusters' queues; refresh their
		// snapshots and matrix columns and rebuild the estimates. Estimates
		// against untouched clusters are reused from the matrix. When
		// nothing moved, the platform state is unchanged and everything
		// stays valid.
		if moved && len(cands) > 0 {
			if err := sw.refreshCluster(origin, cands); err != nil {
				return moves, err
			}
			if err := sw.refreshCluster(destIdx, cands); err != nil {
				return moves, err
			}
			for i := range cands {
				// Only jobs queued on a touched cluster can have a changed
				// planned completion.
				if origins[i] == origin || origins[i] == destIdx {
					if ect, err := a.servers[origins[i]].CurrentCompletion(cands[i].Job.ID); err == nil {
						cands[i].OriginECT = ect
					}
				}
				ests[i] = sw.estimate(i, origins[i], cands[i].OriginECT, false)
			}
		}
	}
	return moves, nil
}

// moveJob cancels the job on its origin cluster and submits it to the
// destination cluster, preserving and incrementing its reallocation count.
// A batch.ErrJobRunning from the cancellation is passed through unwrapped in
// meaning (via errors.Is) so the caller can skip the candidate.
func (a *Agent) moveJob(c Candidate, origin, destIdx int, now int64) error {
	job, migrated, err := a.servers[origin].Cancel(c.Job.ID, now)
	if err != nil {
		return fmt.Errorf("core: cancelling job %d on %s: %w", c.Job.ID, a.servers[origin].Name(), err)
	}
	if err := a.servers[destIdx].Submit(job, now, migrated+1); err != nil {
		// Try to put the job back where it was rather than losing it; this
		// should never fail because the slot was just freed.
		if backErr := a.servers[origin].Submit(job, now, migrated); backErr != nil {
			return fmt.Errorf("core: job %d lost during reallocation: %v (restore failed: %v)", job.ID, err, backErr)
		}
		return fmt.Errorf("core: resubmitting job %d to %s: %w", job.ID, a.servers[destIdx].Name(), err)
	}
	a.location[job.ID] = destIdx
	a.totalReallocations++
	return nil
}

// reallocateWithCancellation implements Algorithm 2 of the paper: cancel all
// waiting jobs everywhere, then re-place them one at a time in heuristic
// order on the cluster with the minimum estimated completion time.
func (a *Agent) reallocateWithCancellation(now int64, totalWaiting int) (int, error) {
	cands, origins := a.gatherCandidates(totalWaiting)
	if len(cands) == 0 {
		return 0, nil
	}
	// Cancel every waiting job. A job that started since the queue snapshot
	// is skipped (it is no longer reallocatable), not a fatal error.
	keptC := cands[:0]
	keptO := origins[:0]
	for i, c := range cands {
		job, migrated, err := a.servers[origins[i]].Cancel(c.Job.ID, now)
		if errors.Is(err, batch.ErrJobRunning) {
			a.skippedRaces++
			continue
		}
		if err != nil {
			return 0, fmt.Errorf("core: cancelling job %d on %s: %w", c.Job.ID, a.servers[origins[i]].Name(), err)
		}
		c.Job = job
		c.Reallocations = migrated
		keptC = append(keptC, c)
		keptO = append(keptO, origins[i])
	}
	cands, origins = keptC, keptO
	if len(cands) == 0 {
		return 0, nil
	}
	// Snapshot the emptied queues once; each placement below changes exactly
	// one cluster, whose snapshot and matrix column are then refreshed.
	sw, err := a.newSweep(now, cands)
	if err != nil {
		return 0, err
	}
	moves := 0
	if cap(a.scratchEsts) < len(cands) {
		a.scratchEsts = make([]Estimate, len(cands))
	}
	ests := a.scratchEsts[:len(cands)]
	for len(cands) > 0 {
		// The origin cluster answers hypothetically because the job is no
		// longer queued there.
		ests = ests[:len(cands)]
		for i := range cands {
			cands[i].OriginECT = sw.ects[i][origins[i]]
			ests[i] = sw.estimate(i, origins[i], cands[i].OriginECT, true)
		}
		pick := a.realloc.Heuristic.Select(cands, ests)
		c, origin, est := cands[pick], origins[pick], ests[pick]

		destIdx := origin
		if est.BestCluster != "" {
			if idx, ok := a.byName[est.BestCluster]; ok {
				destIdx = idx
			}
		}
		migrated := c.Reallocations
		if destIdx != origin {
			migrated++
			moves++
			a.totalReallocations++
		}
		if err := a.servers[destIdx].Submit(c.Job, now, migrated); err != nil {
			return moves, fmt.Errorf("core: resubmitting job %d to %s: %w", c.Job.ID, a.servers[destIdx].Name(), err)
		}
		a.location[c.Job.ID] = destIdx

		cands = append(cands[:pick], cands[pick+1:]...)
		origins = append(origins[:pick], origins[pick+1:]...)
		sw.remove(pick)
		if len(cands) > 0 {
			if err := sw.refreshCluster(destIdx, cands); err != nil {
				return moves, err
			}
		}
	}
	return moves, nil
}
