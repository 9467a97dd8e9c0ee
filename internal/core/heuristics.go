// Package core implements the paper's primary contribution: the
// meta-scheduling agent that maps incoming jobs onto clusters and the two
// task-reallocation algorithms (with and without cancellation of the waiting
// queues) together with the six (re)scheduling heuristics used to order the
// jobs during a reallocation pass. It also contains the simulation driver
// that replays a trace on a platform and records per-job completion times.
package core

import (
	"fmt"
	"math"

	"gridrealloc/internal/workload"
)

// Candidate is a waiting job considered for reallocation.
type Candidate struct {
	// Job is the job itself (reference-speed runtime and walltime).
	Job workload.Job
	// OriginCluster is the name of the cluster currently (or, under the
	// cancellation algorithm, previously) holding the job.
	OriginCluster string
	// OriginECT is the job's estimated completion time on its origin
	// cluster: its planned completion when it is still queued there, or the
	// hypothetical completion time of resubmitting it there after the
	// cancellation algorithm emptied the queues.
	OriginECT int64
	// Reallocations is the number of times the job has already been moved.
	Reallocations int
}

// Estimate carries the per-candidate completion-time estimates a heuristic
// may use to order the candidates. All times are absolute virtual times.
type Estimate struct {
	// BestECT is the smallest estimated completion time across all clusters
	// (including the origin cluster's own estimate).
	BestECT int64
	// BestCluster is the name of the cluster achieving BestECT.
	BestCluster string
	// SecondECT is the second smallest estimated completion time, or
	// NoEstimate when fewer than two clusters can run the job.
	SecondECT int64
	// BestOtherECT is the smallest estimated completion time on a cluster
	// different from the origin cluster, or NoEstimate when no other cluster
	// can run the job.
	BestOtherECT int64
	// BestOtherCluster is the name of the cluster achieving BestOtherECT.
	BestOtherCluster string
}

// NoEstimate marks an absent completion-time estimate (for example the
// second-best ECT on a platform where only one cluster is large enough for
// the job).
const NoEstimate int64 = math.MaxInt64

// Gain returns the time the candidate would gain by moving to the best other
// cluster (OriginECT − BestOtherECT). A negative value means the move would
// delay the job. It returns (-NoEstimate) when no other cluster can run the
// job, so gain-ordered heuristics push such jobs last.
func (e Estimate) Gain(c Candidate) int64 { return gain(c.OriginECT, e.BestOtherECT) }

// gain is Estimate.Gain on the two times it reads. The built-in gain
// heuristics score every candidate at every placement, and passing the
// 96-byte Candidate by value to Gain copied it on each score.
func gain(originECT, bestOtherECT int64) int64 {
	if bestOtherECT == NoEstimate {
		return -NoEstimate
	}
	return originECT - bestOtherECT
}

// Sufferage returns the difference between the two best estimated completion
// times, the quantity the Sufferage heuristic maximises. It returns 0 when
// only one cluster can run the job (the job does not suffer from losing a
// choice it does not have).
func (e Estimate) Sufferage() int64 {
	if e.SecondECT == NoEstimate || e.BestECT == NoEstimate {
		return 0
	}
	return e.SecondECT - e.BestECT
}

// Heuristic orders the candidates of a reallocation pass. Implementations
// must be deterministic: ties are expected to be broken by submission time
// and then job ID, which the helper pickBest guarantees.
//
// A custom heuristic sees fully materialised estimates: before every Select
// the sweep brings every candidate's estimate (and, under Algorithm 2, its
// OriginECT) up to date with every move made so far in the pass, exactly as
// if each cluster were re-queried after every mutation. The six built-in
// heuristics declare which estimates they read, so the sweep evaluates only
// those, with bit-identical results (see ectReads).
type Heuristic interface {
	// Name returns the identifier used in the paper's tables ("Mct",
	// "MinMin", ...).
	Name() string
	// Select returns the index (into cands) of the candidate to handle
	// next. Both slices have the same length and are non-empty.
	Select(cands []Candidate, ests []Estimate) int
}

// ectReads is what a built-in heuristic's Select reads, which bounds the
// ECT-matrix cells a reallocation sweep must evaluate for it: a set of
// estimate fields, plus the shape of the pick where the sweep can exploit
// it. The zero value is the contract of a heuristic that declares nothing:
// every estimate may be read, so every stale cell is re-queried before each
// Select.
type ectReads uint8

const (
	readsBest   ectReads = 1 << iota // Estimate.BestECT
	readsSecond                      // Estimate.SecondECT
	readsOther                       // Estimate.BestOtherECT
	readsOrigin                      // Candidate.OriginECT
	// readsOrder marks a Select that reads no estimate and handles the
	// candidates in submission order (MCT): only the handled candidate's
	// row is ever queried.
	readsOrder
	// readsMin marks a Select that picks the minimum BestECT (MinMin),
	// which a lazy min-heap over lower bounds answers under Algorithm 2.
	readsMin
)

// need is how many of a row's smallest entries must be current for the
// fields r reads to be exact.
func (r ectReads) need() int {
	if r == 0 || r&(readsSecond|readsOther) != 0 {
		return 2
	}
	return 1
}

// readsDeclarer is implemented by the built-in heuristics. It is unexported,
// so a custom heuristic — or a built-in wrapped in another type — reads
// everything.
type readsDeclarer interface {
	ectReads() ectReads
}

// readsOf returns what h's Select reads.
func readsOf(h Heuristic) ectReads {
	if d, ok := h.(readsDeclarer); ok {
		return d.ectReads()
	}
	return 0
}

// The six heuristics of Section 2.2.2.
type (
	mctHeuristic        struct{}
	minMinHeuristic     struct{}
	maxMinHeuristic     struct{}
	maxGainHeuristic    struct{}
	maxRelGainHeuristic struct{}
	sufferageHeuristic  struct{}
)

// MCT returns the online heuristic that handles jobs in their submission
// order.
func MCT() Heuristic { return mctHeuristic{} }

// MinMin returns the heuristic that selects the job with the smallest best
// estimated completion time (gives priority to small jobs).
func MinMin() Heuristic { return minMinHeuristic{} }

// MaxMin returns the heuristic that selects the job with the largest best
// estimated completion time (gives priority to large jobs).
func MaxMin() Heuristic { return maxMinHeuristic{} }

// MaxGain returns the heuristic that selects the job with the largest
// absolute gain from moving to another cluster.
func MaxGain() Heuristic { return maxGainHeuristic{} }

// MaxRelGain returns the heuristic that selects the job with the largest
// gain divided by its processor count, preferring small tasks unless a large
// task has a very large gain.
func MaxRelGain() Heuristic { return maxRelGainHeuristic{} }

// Sufferage returns the heuristic that selects the job that would suffer the
// most from not being given its best cluster (largest difference between its
// two best estimated completion times).
func Sufferage() Heuristic { return sufferageHeuristic{} }

func (mctHeuristic) Name() string        { return "Mct" }
func (minMinHeuristic) Name() string     { return "MinMin" }
func (maxMinHeuristic) Name() string     { return "MaxMin" }
func (maxGainHeuristic) Name() string    { return "MaxGain" }
func (maxRelGainHeuristic) Name() string { return "MaxRelGain" }
func (sufferageHeuristic) Name() string  { return "Sufferage" }

func (mctHeuristic) ectReads() ectReads        { return readsOrder }
func (minMinHeuristic) ectReads() ectReads     { return readsMin | readsBest }
func (maxMinHeuristic) ectReads() ectReads     { return readsBest }
func (maxGainHeuristic) ectReads() ectReads    { return readsOther | readsOrigin }
func (maxRelGainHeuristic) ectReads() ectReads { return readsOther | readsOrigin }
func (sufferageHeuristic) ectReads() ectReads  { return readsBest | readsSecond }

// pickBest returns the index of the candidate with the highest score;
// ties are broken by earliest submission time, then smallest job ID, so that
// every heuristic is fully deterministic.
func pickBest(cands []Candidate, score func(i int) float64) int {
	best := 0
	bestScore := score(0)
	for i := 1; i < len(cands); i++ {
		s := score(i)
		switch {
		case s > bestScore:
			best, bestScore = i, s
		case s == bestScore:
			if submitsBefore(cands[i].Job, cands[best].Job) {
				best = i
			}
		}
	}
	return best
}

func submitsBefore(a, b workload.Job) bool {
	if a.Submit != b.Submit {
		return a.Submit < b.Submit
	}
	return a.ID < b.ID
}

func (mctHeuristic) Select(cands []Candidate, _ []Estimate) int {
	best := 0
	for i := 1; i < len(cands); i++ {
		if submitsBefore(cands[i].Job, cands[best].Job) {
			best = i
		}
	}
	return best
}

func (minMinHeuristic) Select(cands []Candidate, ests []Estimate) int {
	return pickBest(cands, func(i int) float64 { return -float64(ests[i].BestECT) })
}

func (maxMinHeuristic) Select(cands []Candidate, ests []Estimate) int {
	return pickBest(cands, func(i int) float64 {
		if ests[i].BestECT == NoEstimate {
			// A job no cluster can estimate should not win "largest ECT".
			return -math.MaxFloat64
		}
		return float64(ests[i].BestECT)
	})
}

func (maxGainHeuristic) Select(cands []Candidate, ests []Estimate) int {
	return pickBest(cands, func(i int) float64 { return float64(gain(cands[i].OriginECT, ests[i].BestOtherECT)) })
}

func (maxRelGainHeuristic) Select(cands []Candidate, ests []Estimate) int {
	return pickBest(cands, func(i int) float64 {
		procs := cands[i].Job.Procs
		if procs <= 0 {
			procs = 1
		}
		return float64(gain(cands[i].OriginECT, ests[i].BestOtherECT)) / float64(procs)
	})
}

func (sufferageHeuristic) Select(cands []Candidate, ests []Estimate) int {
	return pickBest(cands, func(i int) float64 { return float64(ests[i].Sufferage()) })
}

// Heuristics returns the six heuristics in the order of the paper's tables:
// MCT, MinMin, MaxMin, MaxGain, MaxRelGain, Sufferage.
func Heuristics() []Heuristic {
	return []Heuristic{MCT(), MinMin(), MaxMin(), MaxGain(), MaxRelGain(), Sufferage()}
}

// HeuristicByName resolves a heuristic from its table name (case-sensitive).
func HeuristicByName(name string) (Heuristic, error) {
	for _, h := range Heuristics() {
		if h.Name() == name {
			return h, nil
		}
	}
	return nil, fmt.Errorf("core: unknown heuristic %q", name)
}
