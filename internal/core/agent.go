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
	gatherVersion []uint64 //gridlint:keep-across-reset stale versions are inert while gatherValid is false
	gatherValid   []bool
	sorter        candidateOrderSorter //gridlint:keep-across-reset stateless sort scratch

	// Scratch buffers reused across reallocation passes, so a sweep's
	// bookkeeping (candidate gathering, the ECT matrix, the estimates)
	// allocates only when the platform outgrows every previous pass.
	scratchWaiting       [][]batch.WaitingJob //gridlint:keep-across-reset capacity only; contents gated by gatherValid
	scratchCands         []Candidate          //gridlint:keep-across-reset capacity only, truncated before use
	scratchOrigins       []int                //gridlint:keep-across-reset capacity only, truncated before use
	scratchSortedCands   []Candidate          //gridlint:keep-across-reset capacity only, truncated before use
	scratchSortedOrigins []int                //gridlint:keep-across-reset capacity only, truncated before use
	scratchOrder         []int                //gridlint:keep-across-reset capacity only, truncated before use
	sweep                sweep                //gridlint:keep-across-reset buffers only; newSweep re-arms every field before use
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

// gatherCandidates snapshots the waiting queues of every cluster and merges
// them in platform order. Listing a queue forces that cluster's deferred
// re-plan, so clusters whose scheduler state version did not move since the
// last gather are not re-listed at all: the cached view is provably
// bit-for-bit what a fresh listing would return (no mutation means no
// membership change and no plan change), which is the dirty-cluster half of
// the sweep-skipping optimisation.
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
	for idx, s := range a.servers {
		v := s.Scheduler().StateVersion()
		if valid[idx] && versions[idx] == v {
			continue
		}
		perCluster[idx] = s.Scheduler().AppendWaitingJobs(perCluster[idx][:0])
		versions[idx] = v
		valid[idx] = true
	}
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

// reallocateWithoutCancellation implements Algorithm 1 of the paper.
//
// A move cancels the job on its origin, which can lower that cluster's
// ECTs, and appends it to its destination's queue, which can only raise
// that cluster's. So after a move the origin column is re-queried for every
// remaining candidate that reads it, while the destination column's stale
// cells stay lower bounds. MinMin's heap needs every stale cell to be a
// lower bound, so here MinMin scans like the other heuristics.
func (a *Agent) reallocateWithoutCancellation(now int64, totalWaiting int) (int, error) {
	cands, origins := a.gatherCandidates(totalWaiting)
	if len(cands) == 0 {
		return 0, nil
	}
	reads := readsOf(a.realloc.Heuristic)
	sw, err := a.newSweep(now, cands, false, reads != readsOrder)
	if err != nil {
		return 0, err
	}
	if reads == readsOrder {
		return a.moveInOrder(sw, cands, origins)
	}
	return a.moveBySelect(sw, cands, origins, reads)
}

// moveInOrder is Algorithm 1 under MCT: candidates are handled in
// submission order, the order gatherCandidates sorted them in, and only the
// handled candidate's row is queried.
func (a *Agent) moveInOrder(sw *sweep, cands []Candidate, origins []int) (int, error) {
	moves := 0
	for p, c := range cands {
		var est Estimate
		sw.materialise(p, c.Job, origins[p])
		sw.settle(&est, p, c.Job, origins[p], c.OriginECT, 2)
		dest, err := a.tryMove(c, origins[p], est, sw.now)
		if err != nil {
			return moves, err
		}
		if dest < 0 {
			continue
		}
		moves++
		if p+1 < len(cands) {
			if err := a.afterMove(sw, cands[p+1:], origins[p+1:], origins[p], dest); err != nil {
				return moves, err
			}
		}
	}
	return moves, nil
}

// moveBySelect is Algorithm 1 under a heuristic that reads estimates: the
// estimate fields the heuristic reads are kept exact for Select. A
// heuristic that declares no reads has every stale cell re-queried after
// each move, as an eager sweep would; otherwise only the origin column is,
// and settle re-queries a destination cell only when a read field depends
// on it.
func (a *Agent) moveBySelect(sw *sweep, cands []Candidate, origins []int, reads ectReads) (int, error) {
	order, ests, need := sw.order, sw.ests, reads.need()
	for p, c := range cands {
		order[p] = p
		sw.settle(&ests[p], p, c.Job, origins[p], c.OriginECT, need)
	}
	moves := 0
	for len(cands) > 0 {
		pick := a.realloc.Heuristic.Select(cands, ests)
		c, origin := cands[pick], origins[pick]
		// The move reads BestOtherECT whatever Select read.
		est := ests[pick]
		sw.settle(&est, order[pick], c.Job, origin, c.OriginECT, 2)
		dest, err := a.tryMove(c, origin, est, sw.now)
		if err != nil {
			return moves, err
		}
		cands = append(cands[:pick], cands[pick+1:]...)
		origins = append(origins[:pick], origins[pick+1:]...)
		ests = append(ests[:pick], ests[pick+1:]...)
		order = append(order[:pick], order[pick+1:]...)
		if dest < 0 {
			continue
		}
		moves++
		if len(cands) == 0 {
			break
		}
		if err := a.afterMove(sw, cands, origins, origin, dest); err != nil {
			return moves, err
		}
		for i, c := range cands {
			p := order[i]
			if reads == 0 {
				sw.materialise(p, c.Job, origins[i])
			} else if origins[i] != origin {
				sw.cell(p, origin, c.Job)
			}
			sw.settle(&ests[i], p, c.Job, origins[i], c.OriginECT, need)
		}
	}
	return moves, nil
}

// tryMove applies Algorithm 1's rule to one candidate: move it to the best
// other cluster when that beats its current planned completion by more than
// MinGain. It returns the destination, or -1 when the job stays — no
// sufficient gain, or it started since the gather (a race that skips the
// candidate instead of aborting the pass).
func (a *Agent) tryMove(c Candidate, origin int, est Estimate, now int64) (int, error) {
	if est.BestOtherECT == NoEstimate || est.BestOtherECT+a.realloc.MinGain >= c.OriginECT {
		return -1, nil
	}
	destIdx, ok := a.byName[est.BestOtherCluster]
	if !ok {
		return -1, fmt.Errorf("core: unknown destination cluster %q", est.BestOtherCluster)
	}
	switch err := a.moveJob(c, origin, destIdx, now); {
	case err == nil:
		return destIdx, nil
	case errors.Is(err, batch.ErrJobRunning):
		a.skippedRaces++
		return -1, nil
	default:
		return -1, err
	}
}

// afterMove refreshes the two clusters a move changed and the planned
// completion of every remaining candidate queued on one of them; no other
// candidate's planned completion can have changed.
func (a *Agent) afterMove(sw *sweep, cands []Candidate, origins []int, origin, dest int) error {
	if err := sw.refreshCluster(origin); err != nil {
		return err
	}
	if err := sw.refreshCluster(dest); err != nil {
		return err
	}
	for i := range cands {
		if origins[i] == origin || origins[i] == dest {
			if ect, err := a.servers[origins[i]].CurrentCompletion(cands[i].Job.ID); err == nil {
				cands[i].OriginECT = ect
			}
		}
	}
	return nil
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
	// Snapshot the emptied queues once. Each placement below appends one job
	// to one cluster's queue: the feasible set shrinks and FCFS's lower bound
	// only grows, so that column's ECTs can only rise and every stale cell of
	// the pass is a lower bound.
	reads := readsOf(a.realloc.Heuristic)
	sw, err := a.newSweep(now, cands, true, reads != readsOrder)
	if err != nil {
		return 0, err
	}
	switch {
	case reads == readsOrder:
		return a.placeInOrder(sw, cands, origins)
	case reads&readsMin != 0:
		return a.placeMinFirst(sw, cands, origins)
	default:
		return a.placeBySelect(sw, cands, origins, reads)
	}
}

// placeInOrder is Algorithm 2 under MCT: candidates are placed in
// submission order and only the placed candidate's row is queried, so a
// pass costs n*m queries instead of the eager matrix's n*m plus one column
// per placement.
func (a *Agent) placeInOrder(sw *sweep, cands []Candidate, origins []int) (int, error) {
	moves := 0
	for p, c := range cands {
		var est Estimate
		sw.materialise(p, c.Job, origins[p])
		sw.settle(&est, p, c.Job, origins[p], 0, 2)
		dest, err := a.place(sw, c, origins[p], est, len(cands)-p-1)
		if dest != origins[p] {
			moves++
		}
		if err != nil {
			return moves, err
		}
	}
	return moves, nil
}

// placeMinFirst is Algorithm 2 under MinMin: a lazy min-heap of rows keyed
// by their smallest entry, a lower bound of their BestECT. The root is
// settled (its smallest entry made current); if its key no longer beats its
// children it sinks and the new root is tried, otherwise its key is exact
// and no other row's true key can be smaller, so it is exactly the
// candidate MinMin's Select would pick.
func (a *Agent) placeMinFirst(sw *sweep, cands []Candidate, origins []int) (int, error) {
	h := sw.order
	var est Estimate
	for p, c := range cands {
		h[p] = p
		sw.settle(&est, p, c.Job, origins[p], 0, 1)
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		sw.siftDown(h, i, cands)
	}
	moves := 0
	for len(h) > 0 {
		p := h[0]
		sw.settle(&est, p, cands[p].Job, origins[p], 0, 1)
		sw.siftDown(h, 0, cands)
		if h[0] != p {
			continue
		}
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		sw.siftDown(h, 0, cands)
		dest, err := a.place(sw, cands[p], origins[p], est, len(h))
		if dest != origins[p] {
			moves++
		}
		if err != nil {
			return moves, err
		}
	}
	return moves, nil
}

// placeBySelect is Algorithm 2 under a heuristic that scans every estimate:
// the estimate fields (and OriginECT) the heuristic reads are kept exact for
// Select. A heuristic that declares no reads has every stale cell
// re-queried after each placement, as an eager sweep would; otherwise a row
// is revisited only when the placement's cluster holds an entry a read
// field depends on (see sweep.affected).
func (a *Agent) placeBySelect(sw *sweep, cands []Candidate, origins []int, reads ectReads) (int, error) {
	order, ests, need := sw.order, sw.ests, reads.need()
	for p, c := range cands {
		order[p] = p
		sw.settle(&ests[p], p, c.Job, origins[p], 0, need)
		cands[p].OriginECT = sw.cell(p, origins[p], c.Job)
	}
	moves := 0
	for len(cands) > 0 {
		pick := a.realloc.Heuristic.Select(cands, ests)
		c, origin, est := cands[pick], origins[pick], ests[pick]
		// The placement reads BestCluster whatever Select read.
		sw.settle(&est, order[pick], c.Job, origin, 0, 1)
		cands = append(cands[:pick], cands[pick+1:]...)
		origins = append(origins[:pick], origins[pick+1:]...)
		ests = append(ests[:pick], ests[pick+1:]...)
		order = append(order[:pick], order[pick+1:]...)
		dest, err := a.place(sw, c, origin, est, len(cands))
		if dest != origin {
			moves++
		}
		if err != nil {
			return moves, err
		}
		for i, c := range cands {
			p := order[i]
			switch {
			case reads == 0:
				sw.materialise(p, c.Job, origins[i])
			case sw.affected(p, dest, origins[i], reads):
				// A read field depends on the placement's cell, so settling
				// would query it anyway.
				sw.cell(p, dest, c.Job)
			default:
				continue
			}
			sw.settle(&ests[i], p, c.Job, origins[i], 0, need)
			if reads == 0 || reads&readsOrigin != 0 {
				cands[i].OriginECT = sw.cell(p, origins[i], c.Job)
			}
		}
	}
	return moves, nil
}

// place resubmits a cancelled candidate to the cluster of its minimum ECT —
// its origin when no cluster can estimate it — and returns that cluster.
// While remaining candidates need estimates, the cluster's column is
// refreshed.
func (a *Agent) place(sw *sweep, c Candidate, origin int, est Estimate, remaining int) (int, error) {
	destIdx := origin
	if est.BestCluster != "" {
		if idx, ok := a.byName[est.BestCluster]; ok {
			destIdx = idx
		}
	}
	migrated := c.Reallocations
	if destIdx != origin {
		migrated++
		a.totalReallocations++
	}
	if err := a.servers[destIdx].Submit(c.Job, sw.now, migrated); err != nil {
		return destIdx, fmt.Errorf("core: resubmitting job %d to %s: %w", c.Job.ID, a.servers[destIdx].Name(), err)
	}
	a.location[c.Job.ID] = destIdx
	if remaining == 0 {
		return destIdx, nil
	}
	return destIdx, sw.refreshCluster(destIdx)
}
