package core

import (
	"fmt"

	"gridrealloc/internal/batch"
	"gridrealloc/internal/workload"
)

// sweep is the per-pass estimation state: one availability snapshot per
// cluster, taken once and reused across every candidate job and every
// heuristic iteration, plus a lazily evaluated ECT matrix over those
// snapshots. Rows are candidates in gather order (a row's index never
// changes during the pass) and columns are clusters.
//
// Every column carries a version that refreshCluster bumps whenever the pass
// mutates that cluster, and every cell remembers the version it was queried
// at. A cell whose column moved on is stale, and cell re-queries it only
// when something reads it. Because nothing but the pass itself mutates a
// cluster during a pass, that late re-query returns exactly what an eager
// column refresh right after the mutation would have stored: the sweep
// never answers from an older plan, it only skips the queries no reader
// needs. What a reader needs depends on the heuristic (see ectReads and
// the two reallocation algorithms):
//
//   - a row read in full (MCT's picked job, custom heuristics) has every
//     stale cell re-queried first;
//   - a column that can only rise (every column in Algorithm 2, the
//     destination of a move in Algorithm 1) leaves its stale cells as lower
//     bounds, so a row is revisited only when a field the heuristic reads
//     depends on the bumped column (affected), and settle re-queries a cell
//     only when it reaches the row's smallest entries, keeping those fields
//     exact.
//
// The sweep lives on the Agent and its buffers are reused across passes, so
// a steady-state pass allocates nothing per candidate.
type sweep struct {
	a   *Agent
	now int64
	m   int // number of clusters: the row stride of cells
	// hypothetical is true under Algorithm 2, whose candidates are no longer
	// queued anywhere: the origin column is estimated like any other. Under
	// Algorithm 1 the origin column is replaced by the candidate's current
	// planned completion (OriginECT) and its cells are never read.
	hypothetical bool
	cols         []sweepCol
	cells        []ectCell  // [row*m + cluster]
	tops         [][2]int32 // per row: the columns of its two smallest (ECT, cluster) pairs, -1 when absent
	ests         []Estimate // per Select position: the estimates handed to the heuristic
	order        []int      // per Select position: its row, or MinMin's heap of rows
}

// sweepCol is one cluster's column: its snapshot and the version its cells
// are compared against.
type sweepCol struct {
	snap batch.EstimateSnapshot
	ver  uint32
}

// ectCell is one (candidate, cluster) entry of the ECT matrix.
type ectCell struct {
	ect int64 // NoEstimate when the job can never run on the cluster
	// wall caches the job's scaled walltime on the cluster (0 = not yet
	// computed): re-queries of a cell reuse the reservation length.
	wall int64
	ver  uint32 // column version ect was queried at; 0 = never queried
}

// newSweep snapshots every cluster at now and arms the ECT matrix for the
// given candidates with every cell unqueried. With fill set it also queries
// every cell: every heuristic except MCT needs each row's minimum before
// its first pick. Clusters are visited in platform order, so a snapshot
// error is reported for the first failing cluster.
func (a *Agent) newSweep(now int64, cands []Candidate, hypothetical, fill bool) (*sweep, error) {
	n, m := len(cands), len(a.servers)
	sw := &a.sweep
	sw.a, sw.now, sw.m, sw.hypothetical = a, now, m, hypothetical
	if cap(sw.cols) < m {
		sw.cols = make([]sweepCol, m)
	}
	sw.cols = sw.cols[:m]
	if cap(sw.cells) < n*m {
		sw.cells = make([]ectCell, n*m)
	}
	sw.cells = sw.cells[:n*m]
	clear(sw.cells)
	if cap(sw.tops) < n {
		sw.tops = make([][2]int32, n)
		sw.ests = make([]Estimate, n)
		sw.order = make([]int, n)
	}
	sw.tops, sw.ests, sw.order = sw.tops[:n], sw.ests[:n], sw.order[:n]
	for idx := range sw.cols {
		col := &sw.cols[idx]
		col.ver = 1
		if err := a.servers[idx].EstimateSnapshotInto(&col.snap, now); err != nil {
			return nil, fmt.Errorf("core: snapshotting %s: %w", a.servers[idx].Name(), err)
		}
		if fill {
			for p := range cands {
				sw.cell(p, idx, cands[p].Job)
			}
		}
	}
	return sw, nil
}

// cell returns row p's ECT on cluster c for job j, re-querying the cluster's
// snapshot first when the cell is stale. A snapshot whose plan changed
// under it re-takes itself on the query, so a cell never reflects capacity
// the cluster lost.
func (sw *sweep) cell(p, c int, j workload.Job) int64 {
	col := &sw.cols[c]
	e := &sw.cells[p*sw.m+c]
	if e.ver == col.ver {
		return e.ect
	}
	if e.wall == 0 {
		e.wall = col.snap.ScaledWalltime(j)
	}
	ect, ok := col.snap.TryEstimateCompletionScaled(j.Procs, e.wall)
	if !ok {
		ect = NoEstimate
	}
	e.ect, e.ver = ect, col.ver
	return ect
}

// refreshCluster re-snapshots a cluster the pass just mutated and bumps its
// column version, which makes every cell of the column stale. No cell is
// re-queried here; each is re-queried when next read.
func (sw *sweep) refreshCluster(c int) error {
	col := &sw.cols[c]
	if err := sw.a.servers[c].EstimateSnapshotInto(&col.snap, sw.now); err != nil {
		return fmt.Errorf("core: snapshotting %s: %w", sw.a.servers[c].Name(), err)
	}
	col.ver++
	return nil
}

// materialise re-queries every stale cell of row p, leaving the row exactly
// as an eager sweep would hold it. Under Algorithm 1 the origin column is
// skipped: the row reads the candidate's OriginECT there instead.
func (sw *sweep) materialise(p int, j workload.Job, origin int) {
	for c := 0; c < sw.m; c++ {
		if c != origin || sw.hypothetical {
			sw.cell(p, c, j)
		}
	}
}

// fresh reports whether row p's entry for cluster c is current. Algorithm
// 1's origin entry is the candidate's OriginECT, which is always current.
func (sw *sweep) fresh(p, c, origin int) bool {
	return (c == origin && !sw.hypothetical) || sw.cells[p*sw.m+c].ver == sw.cols[c].ver
}

// rowEstimate scans row p's entries as they stand, stale or not, with
// Algorithm 1's origin column replaced by originECT, into est. It returns
// the columns of the row's two smallest (ECT, cluster) pairs, -1 when
// absent; the scan breaks ties by platform order, as an eager estimate
// does.
func (sw *sweep) rowEstimate(est *Estimate, p, origin int, originECT int64) [2]int32 {
	*est = Estimate{BestECT: NoEstimate, SecondECT: NoEstimate, BestOtherECT: NoEstimate}
	top, other := [2]int32{-1, -1}, -1
	for c, e := range sw.cells[p*sw.m : (p+1)*sw.m] {
		v := e.ect
		if c == origin && !sw.hypothetical {
			v = originECT
		}
		switch {
		case v == NoEstimate:
			continue
		case v < est.BestECT:
			est.SecondECT, top[1] = est.BestECT, top[0]
			est.BestECT, top[0] = v, int32(c)
		case v < est.SecondECT:
			est.SecondECT, top[1] = v, int32(c)
		}
		if c != origin && v < est.BestOtherECT {
			est.BestOtherECT, other = v, c
		}
	}
	if top[0] >= 0 {
		est.BestCluster = sw.a.servers[top[0]].Name()
	}
	if other >= 0 {
		est.BestOtherCluster = sw.a.servers[other].Name()
	}
	return top
}

// settle makes row p's first need (1 or 2) smallest entries current and
// writes the row's estimate into est, recording its top two in tops[p]. It
// relies on the row's stale cells being lower bounds: a stale entry outside
// the top two can only rise, so it cannot displace them, and only a stale
// entry that reaches the top is re-queried (after which the row is scanned
// again, until its top is current). Every estimate field depends only on
// the two smallest pairs and the origin, so with need 2 the estimate is
// exactly the eager one; with need 1 only BestECT and BestCluster are.
func (sw *sweep) settle(est *Estimate, p int, j workload.Job, origin int, originECT int64, need int) {
	for {
		top := sw.rowEstimate(est, p, origin, originECT)
		stale := -1
		for k := 0; k < need && stale < 0; k++ {
			if c := int(top[k]); c >= 0 && !sw.fresh(p, c, origin) {
				stale = c
			}
		}
		if stale < 0 {
			sw.tops[p] = top
			return
		}
		sw.cell(p, stale, j)
	}
}

// affected reports whether a bump of cluster c's column can change a field
// of row p's estimate that reads covers: BestECT when c holds the row's
// smallest entry, SecondECT when it holds one of its two smallest,
// BestOtherECT when it holds its smallest entry off the origin, OriginECT
// when it is the origin. A stale entry outside those only rises, so it
// cannot change them.
func (sw *sweep) affected(p, c, origin int, reads ectReads) bool {
	top := sw.tops[p]
	other := top[0]
	if int(other) == origin {
		other = top[1]
	}
	return reads&readsBest != 0 && int(top[0]) == c ||
		reads&readsSecond != 0 && (int(top[0]) == c || int(top[1]) == c) ||
		reads&readsOther != 0 && int(other) == c ||
		reads&readsOrigin != 0 && origin == c
}

// The MinMin heap orders rows by (BestECT, submission time, job ID), the
// order pickBest realises for MinMin's score. Keys are compared as float64,
// as pickBest compares scores, so two ECTs only a float can confuse tie
// exactly as they would under Select. A row's key is its settled minimum,
// which stays a lower bound of its true minimum while its cells go stale.
func (sw *sweep) heapLess(cands []Candidate, p, q int) bool {
	kp, kq := float64(sw.minECT(p)), float64(sw.minECT(q))
	if kp != kq {
		return kp < kq
	}
	return submitsBefore(cands[p].Job, cands[q].Job)
}

// minECT is row p's heap key: the (possibly stale) value of its smallest
// entry.
func (sw *sweep) minECT(p int) int64 {
	if c := sw.tops[p][0]; c >= 0 {
		return sw.cells[p*sw.m+int(c)].ect
	}
	return NoEstimate
}

// siftDown restores the heap property below position i of h.
func (sw *sweep) siftDown(h []int, i int, cands []Candidate) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		least := l
		if r := l + 1; r < len(h) && sw.heapLess(cands, h[r], h[l]) {
			least = r
		}
		if !sw.heapLess(cands, h[least], h[i]) {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}
