// Package batch simulates a cluster's local resource management system
// (batch scheduler). It models the two policies the paper evaluates —
// First Come First Served (FCFS) without backfilling and Conservative
// Back-Filling (CBF) — on top of an availability profile, and exposes the
// restricted set of operations the grid middleware is allowed to use:
// submission, cancellation of waiting jobs, estimation of completion times
// and listing of the waiting queue.
//
// The scheduler plans reservations using the jobs' requested walltimes
// (rescaled to the cluster speed) because that is all a real batch system
// knows; the actual runtimes only manifest as early completions (or
// walltime kills), which trigger a re-plan. That gap between plan and
// reality is precisely what the paper's reallocation mechanism exploits.
package batch

import (
	"fmt"
	"os"
	"sort"
)

// noSlot is returned by findSlot when the request can never be satisfied.
const noSlot int64 = -1

// Bucket summaries (profile engine v2). The breakpoint array is covered by
// fixed-width buckets of bucketLen consecutive segments; each bucket stores
// the maximum and minimum free-core count over its segments. findSlotFrom
// uses the maxima to skip whole buckets that cannot host a start (the
// generalization of the single firstFree hint to arbitrary widths) and the
// minima to validate whole buckets of a candidate window at once, so slot
// searches on deep queues and saturated clusters touch O(n/bucketLen)
// summaries plus O(bucketLen) segments instead of scanning every segment.
//
// The summaries are maintained eagerly and exactly: a uniform
// reserve/release over a segment range adjusts fully covered buckets by
// the delta and recomputes the (at most two) partial ones, while
// breakpoint insertion and removal — which shift every later segment index
// and already pay a memmove over the tail — resummarize the suffix at the
// same asymptotic cost. Exactness is what keeps the skips firing on the
// profiles that need them most: a deep plan rebuilt by hundreds of
// interleaved insertions retains tight bounds for every slot search in
// between (a conservative-bounds variant was measured to decay into plain
// scans exactly there). Profiles shorter than bucketActivate segments
// carry no summaries at all (the arrays are empty and every search falls
// back to the plain scan), so the common shallow-queue profile — including
// every profile of the paper-scale campaign scenarios — pays nothing for
// the machinery.
const (
	bucketShift = 5
	bucketLen   = 1 << bucketShift
	// bucketActivate is the segment count at which the summaries switch
	// on. Below it a plain scan touches so few segments that maintaining
	// summaries costs more than it saves.
	bucketActivate = 2 * bucketLen
)

// numBuckets returns the number of summary buckets covering n segments.
func numBuckets(n int) int { return (n + bucketLen - 1) >> bucketShift }

// debugProfile enables the profile's internal structural checks on every
// mutating operation (the same switch that enables the scheduler's
// incremental-vs-from-scratch cross-check).
var debugProfile = os.Getenv(debugProfileEnv) != ""

// profile is a step function of free cores over time: free[i] cores are
// available in [times[i], times[i+1]), and the last segment extends to
// infinity. Breakpoints are strictly increasing. The zero value is not
// usable; use newProfile.
type profile struct {
	times []int64
	free  []int
	// bmax and bmin are the per-bucket free-core summaries described at
	// bucketShift: bmax[b]/bmin[b] are the maximum/minimum of
	// free[b*bucketLen : (b+1)*bucketLen] (the last bucket may be
	// partial). Both are empty while the profile has fewer than
	// bucketActivate segments.
	bmax  []int
	bmin  []int
	cores int
	// firstFree is a conservative skip hint: every segment before index
	// firstFree has zero free cores, so no slot search can start there. A
	// saturated cluster's profile grows a long all-zero prefix that every
	// CBF placement and every completion estimate would otherwise rescan.
	// Reservations preserve the invariant (they only remove cores); releases
	// and reshaping operations reset the hint to 0, which is always valid.
	firstFree int
}

// newProfile returns a profile with all cores free from `start` onwards.
func newProfile(start int64, cores int) *profile {
	return &profile{times: []int64{start}, free: []int{cores}, cores: cores}
}

// copyFrom makes p an independent copy of src, reusing p's backing arrays
// when they are large enough. This is the single place profile storage is
// allocated for copies: growth allocates the segment slices together with
// exact capacity, so clone and every scratch-buffer reuse path share the
// same allocation discipline. Each pairwise capacity check names both
// slices — the arrays usually grow in lockstep, but nothing guarantees it
// (a hand-built or partially grown buffer can diverge), and reusing one
// array while reallocating logically from the other's capacity would slice
// beyond cap or alias stale data.
func (p *profile) copyFrom(src *profile) {
	n := len(src.times)
	if cap(p.times) < n || cap(p.free) < n {
		p.times = make([]int64, n)
		p.free = make([]int, n)
	}
	p.times = p.times[:n]
	p.free = p.free[:n]
	copy(p.times, src.times)
	copy(p.free, src.free)
	nb := len(src.bmax)
	if cap(p.bmax) < nb || cap(p.bmin) < nb {
		p.bmax = make([]int, nb)
		p.bmin = make([]int, nb)
	}
	p.bmax = p.bmax[:nb]
	p.bmin = p.bmin[:nb]
	copy(p.bmax, src.bmax)
	copy(p.bmin, src.bmin)
	p.cores = src.cores
	p.firstFree = src.firstFree
	p.debugCheck()
}

// reset makes p the all-free profile newProfile would return, reusing its
// backing arrays.
func (p *profile) reset(start int64, cores int) {
	p.times = append(p.times[:0], start)
	p.free = append(p.free[:0], cores)
	p.bmax = p.bmax[:0]
	p.bmin = p.bmin[:0]
	p.cores = cores
	p.firstFree = 0
}

// clone returns an independent copy of the profile.
func (p *profile) clone() *profile {
	c := &profile{}
	c.copyFrom(p)
	return c
}

// grow reserves capacity for at least extra additional breakpoints, so a
// planning loop that is about to insert a known number of them pays one
// allocation instead of successive append doublings. The bucket summaries
// are pre-sized for the same segment count, keeping insertions within the
// grown capacity allocation-free end to end.
func (p *profile) grow(extra int) {
	need := len(p.times) + extra
	if cap(p.times) < need || cap(p.free) < need {
		nt := make([]int64, len(p.times), need)
		nf := make([]int, len(p.free), need)
		copy(nt, p.times)
		copy(nf, p.free)
		p.times = nt
		p.free = nf
	}
	nb := numBuckets(need)
	if cap(p.bmax) < nb || cap(p.bmin) < nb {
		bx := make([]int, len(p.bmax), nb)
		bn := make([]int, len(p.bmin), nb)
		copy(bx, p.bmax)
		copy(bn, p.bmin)
		p.bmax = bx
		p.bmin = bn
	}
}

// resummarizeFrom rebuilds every bucket summary covering a segment index
// >= from, switching the summaries on or off at the bucketActivate
// threshold. It is the hook for every reshaping mutation: breakpoint
// insertion and removal shift the segment indexes after the edit point, so
// the suffix of buckets — and only the suffix — goes stale. The callers
// already pay a memmove over the same suffix, so the rebuild does not
// change their complexity.
func (p *profile) resummarizeFrom(from int) {
	n := len(p.times)
	if n < bucketActivate {
		p.bmax = p.bmax[:0]
		p.bmin = p.bmin[:0]
		return
	}
	nb := numBuckets(n)
	if len(p.bmax) == 0 {
		from = 0 // first activation: every bucket needs a summary
	}
	if cap(p.bmax) < nb || cap(p.bmin) < nb {
		// Headroom for a further bucketLen buckets so steady growth does
		// not reallocate the summaries on every crossing of a bucket
		// boundary.
		bx := make([]int, len(p.bmax), nb+bucketLen)
		bn := make([]int, len(p.bmin), nb+bucketLen)
		copy(bx, p.bmax)
		copy(bn, p.bmin)
		p.bmax = bx
		p.bmin = bn
	}
	p.bmax = p.bmax[:nb]
	p.bmin = p.bmin[:nb]
	for b := from >> bucketShift; b < nb; b++ {
		lo := b << bucketShift
		hi := lo + bucketLen
		if hi > n {
			hi = n
		}
		p.recomputeBucket(b, lo, hi)
	}
}

// recomputeBucket refreshes bucket b's summary from free[lo:hi].
func (p *profile) recomputeBucket(b, lo, hi int) {
	mx, mn := p.free[lo], p.free[lo]
	for _, f := range p.free[lo+1 : hi] {
		if f > mx {
			mx = f
		}
		if f < mn {
			mn = f
		}
	}
	p.bmax[b] = mx
	p.bmin[b] = mn
}

// resummarizeIfActive forwards to resummarizeFrom unless the profile is
// both below the activation threshold and already summary-free, in which
// case there is nothing to rebuild. The guard lives in this inlinable
// wrapper so the hot mutation paths of shallow profiles — where the
// summaries never switch on — do not even pay the call.
func (p *profile) resummarizeIfActive(from int) {
	if len(p.bmax) != 0 || len(p.times) >= bucketActivate {
		p.resummarizeFrom(from)
	}
}

// bucketsAdjustIfActive forwards to bucketsAdjust when summaries exist;
// like resummarizeIfActive it keeps inactive profiles call-free.
func (p *profile) bucketsAdjustIfActive(si, ei, delta int) {
	if len(p.bmax) != 0 {
		p.bucketsAdjust(si, ei, delta)
	}
}

// bucketsAdjust applies a uniform free-count delta over segments [si, ei)
// to the summaries: a bucket fully inside the range shifts its max and min
// by the delta, and the at most two partial boundary buckets are
// recomputed. Callers apply the delta to the segments first.
func (p *profile) bucketsAdjust(si, ei, delta int) {
	if len(p.bmax) == 0 {
		return
	}
	n := len(p.times)
	for b := si >> bucketShift; b <= (ei-1)>>bucketShift; b++ {
		lo := b << bucketShift
		hi := lo + bucketLen
		if hi > n {
			hi = n
		}
		if si <= lo && ei >= hi {
			p.bmax[b] += delta
			p.bmin[b] += delta
			continue
		}
		p.recomputeBucket(b, lo, hi)
	}
}

// segmentIndex returns the index of the segment containing time t, assuming
// t >= p.times[0].
func (p *profile) segmentIndex(t int64) int {
	// sort.Search finds the first breakpoint strictly greater than t; the
	// containing segment is the one before it.
	idx := sort.Search(len(p.times), func(i int) bool { return p.times[i] > t })
	return idx - 1
}

// ensureBreak inserts a breakpoint at time t (if not already present) and
// returns its index. t must be >= p.times[0].
func (p *profile) ensureBreak(t int64) int {
	return p.ensureBreakFrom(0, t)
}

// segmentIndexFrom is segmentIndex resuming its binary search at hint, for
// callers that already located an earlier segment. A hint that is exactly
// the containing segment — the usual case when a reservation follows a slot
// search, including a hint whose breakpoint equals t exactly — costs one
// comparison; an out-of-range or too-late hint falls back to a full search.
// The hint is positional, not temporal: any in-range hint with
// times[hint] <= t resumes correctly even if it was taken before a reshaping
// mutation, because the binary search over times[hint:] still brackets t.
func (p *profile) segmentIndexFrom(hint int, t int64) int {
	if hint < 0 || hint >= len(p.times) || p.times[hint] > t {
		hint = 0
	} else if hint+1 == len(p.times) || p.times[hint+1] > t {
		return hint
	}
	return hint + sort.Search(len(p.times)-hint, func(i int) bool { return p.times[hint+i] > t }) - 1
}

// ensureBreakFrom is ensureBreak resuming its segment search at hint, for
// callers that already located an earlier segment (a reservation inserts its
// end breakpoint at or after its start's segment, and a planning loop knows
// the segment the slot search returned). A t that is already a breakpoint —
// including the profile origin, which trimTo may have moved onto a time that
// never was an explicit breakpoint — returns the existing index without
// inserting.
func (p *profile) ensureBreakFrom(hint int, t int64) int {
	idx := p.segmentIndexFrom(hint, t)
	if p.times[idx] == t {
		return idx
	}
	// Split the segment: insert t after idx with the same free count.
	p.times = append(p.times, 0)
	p.free = append(p.free, 0)
	copy(p.times[idx+2:], p.times[idx+1:])
	copy(p.free[idx+2:], p.free[idx+1:])
	p.times[idx+1] = t
	p.free[idx+1] = p.free[idx]
	p.resummarizeIfActive(idx + 1)
	return idx + 1
}

// freeAt returns the number of free cores at time t (t >= p.times[0]).
func (p *profile) freeAt(t int64) int {
	return p.free[p.segmentIndex(t)]
}

// reserve subtracts procs cores in [start, end). It returns an error if the
// reservation would make any segment negative, which indicates a scheduling
// bug rather than a recoverable condition. Availability is validated before
// any count is decremented, so a failed reserve leaves the step function
// unchanged (at worst with redundant breakpoints) — which is what lets the
// scheduler mutate a live profile in place instead of cloning defensively.
func (p *profile) reserve(start, end int64, procs int) error {
	_, err := p.reserveAt(start, end, procs)
	return err
}

// reserveAt is reserve, returning additionally the index of the segment that
// begins at start. Planning loops with monotone lower bounds (FCFS) use the
// index as a resume cursor for the next findSlotFrom, so a full queue
// re-plan scans each profile segment once instead of once per job.
func (p *profile) reserveAt(start, end int64, procs int) (int, error) {
	return p.reserveAtHint(start, end, procs, 0)
}

// reserveAtHint is reserveAt with a segment hint for start — typically the
// index findSlotFrom just returned — saving the two full binary searches of
// the plain breakpoint insertion.
func (p *profile) reserveAtHint(start, end int64, procs, hint int) (int, error) {
	if end <= start {
		return 0, fmt.Errorf("batch: reserve with end %d <= start %d", end, start)
	}
	if start < p.times[0] {
		return 0, fmt.Errorf("batch: reserve starting at %d before profile origin %d", start, p.times[0])
	}
	si, ei := p.ensureBreakPair(hint, start, end)
	for i := si; i < ei; i++ {
		if p.free[i] < procs {
			return si, fmt.Errorf("batch: reservation of %d cores in [%d,%d) exceeds availability %d at t=%d",
				procs, start, end, p.free[i], p.times[i])
		}
	}
	for i := si; i < ei; i++ {
		p.free[i] -= procs
	}
	p.bucketsAdjustIfActive(si, ei, -procs)
	// Advance the skip hint over any prefix this reservation zeroed out.
	// (Breakpoint insertion cannot invalidate the hint: splitting a zero
	// segment only produces zero segments.)
	for p.firstFree < len(p.free)-1 && p.free[p.firstFree] == 0 {
		p.firstFree++
	}
	p.debugCheck()
	return si, nil
}

// ensureBreakPair inserts breakpoints at start and end (end > start) in a
// single pass and returns their indexes. When both breakpoints are new, the
// slice tail beyond end moves once by two slots instead of once per
// insertion — and the pair shares one segment search, resumed at hint.
func (p *profile) ensureBreakPair(hint int, start, end int64) (int, int) {
	is := p.segmentIndexFrom(hint, start)
	ie := p.segmentIndexFrom(is, end)
	sNew := p.times[is] != start
	eNew := p.times[ie] != end
	if !sNew && !eNew {
		return is, ie
	}
	n := len(p.times)
	shift := 0
	if sNew {
		shift++
	}
	if eNew {
		shift++
	}
	for i := 0; i < shift; i++ {
		p.times = append(p.times, 0)
		p.free = append(p.free, 0)
	}
	var ri, re int
	switch {
	case sNew && eNew:
		endFree := p.free[ie]
		copy(p.times[ie+3:n+2], p.times[ie+1:n])
		copy(p.free[ie+3:n+2], p.free[ie+1:n])
		copy(p.times[is+2:ie+2], p.times[is+1:ie+1])
		copy(p.free[is+2:ie+2], p.free[is+1:ie+1])
		p.times[is+1] = start
		p.free[is+1] = p.free[is]
		p.times[ie+2] = end
		p.free[ie+2] = endFree
		ri, re = is+1, ie+2
	case sNew:
		copy(p.times[is+2:n+1], p.times[is+1:n])
		copy(p.free[is+2:n+1], p.free[is+1:n])
		p.times[is+1] = start
		p.free[is+1] = p.free[is]
		ri, re = is+1, ie+1
	default: // eNew only
		copy(p.times[ie+2:n+1], p.times[ie+1:n])
		copy(p.free[ie+2:n+1], p.free[ie+1:n])
		p.times[ie+1] = end
		p.free[ie+1] = p.free[ie]
		ri, re = is, ie+1
	}
	// Indexes from the first inserted slot onward shifted; the summaries of
	// the buckets covering them went stale with them.
	from := ie + 1
	if sNew {
		from = is + 1
	}
	p.resummarizeIfActive(from)
	return ri, re
}

// span is one [start, end) x procs reservation of a batched reserveAll.
type span struct {
	start, end int64
	procs      int
}

// reserveAll applies a batch of reservations in a single sweep: the spans'
// boundaries are sorted once (k log k) and merged with the existing
// breakpoints in one pass (n + k), instead of paying one O(n) breakpoint
// insertion per span. The result is the same step function k individual
// reserves would produce, emitted in canonical (merged) form. From-scratch
// profile builds — the capacity baseline and the invalidation-recovery
// rebuild of the running-jobs profile — are its callers.
func (p *profile) reserveAll(spans []span) error {
	if len(spans) == 0 {
		return nil
	}
	type boundary struct {
		t     int64
		delta int
	}
	bounds := make([]boundary, 0, 2*len(spans))
	for _, s := range spans {
		if s.end <= s.start {
			return fmt.Errorf("batch: reserve with end %d <= start %d", s.end, s.start)
		}
		if s.start < p.times[0] {
			return fmt.Errorf("batch: reserve starting at %d before profile origin %d", s.start, p.times[0])
		}
		bounds = append(bounds, boundary{s.start, s.procs}, boundary{s.end, -s.procs})
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i].t < bounds[j].t })
	outT := make([]int64, 0, len(p.times)+len(bounds))
	outF := make([]int, 0, len(p.times)+len(bounds))
	base := p.free[0]
	reserved := 0
	i, bi := 0, 0
	for i < len(p.times) || bi < len(bounds) {
		var t int64
		if bi >= len(bounds) || (i < len(p.times) && p.times[i] <= bounds[bi].t) {
			t = p.times[i]
		} else {
			t = bounds[bi].t
		}
		if i < len(p.times) && p.times[i] == t {
			base = p.free[i]
			i++
		}
		for bi < len(bounds) && bounds[bi].t == t {
			reserved += bounds[bi].delta
			bi++
		}
		f := base - reserved
		if f < 0 {
			return fmt.Errorf("batch: batched reservation exceeds availability at t=%d (%d over)", t, -f)
		}
		if n := len(outF); n == 0 || outF[n-1] != f {
			outT = append(outT, t)
			outF = append(outF, f)
		}
	}
	p.times = outT
	p.free = outF
	p.firstFree = 0
	p.resummarizeFrom(0)
	p.debugCheck()
	return nil
}

// release adds procs cores back in [start, end), undoing the tail of an
// earlier reservation (a job that finished before its walltime returns the
// remainder of its reservation). It returns an error if any segment would
// exceed the cluster size, which indicates a release without a matching
// reservation.
func (p *profile) release(start, end int64, procs int) error {
	if end <= start {
		return fmt.Errorf("batch: release with end %d <= start %d", end, start)
	}
	if start < p.times[0] {
		return fmt.Errorf("batch: release starting at %d before profile origin %d", start, p.times[0])
	}
	si, ei := p.ensureBreakPair(0, start, end)
	for i := si; i < ei; i++ {
		if p.free[i]+procs > p.cores {
			return fmt.Errorf("batch: release of %d cores in [%d,%d) exceeds cluster size %d at t=%d",
				procs, start, end, p.cores, p.times[i])
		}
		p.free[i] += procs
	}
	// Freed cores may re-open the prefix; 0 is the always-valid hint.
	p.firstFree = 0
	// Reserves and releases on a canonical profile can only create
	// equal-adjacent segments at the released window's two boundaries, so a
	// local merge there keeps the profile canonical without normalize's
	// full scan per early finish. The merges remove at most two breakpoints
	// at or after si, so one suffix resummarize covers both them and the
	// incremented range.
	p.mergeAt(ei)
	p.mergeAt(si)
	p.resummarizeIfActive(si)
	p.debugCheck()
	return nil
}

// mergeAt removes breakpoint i when its segment continues the previous one
// with the same free count. The caller resummarizes the suffix.
func (p *profile) mergeAt(i int) {
	if i <= 0 || i >= len(p.times) || p.free[i] != p.free[i-1] {
		return
	}
	p.times = append(p.times[:i], p.times[i+1:]...)
	p.free = append(p.free[:i], p.free[i+1:]...)
}

// trimTo drops every breakpoint before t, making t the new origin. The free
// count at t is preserved. A t at or before the current origin is a no-op.
func (p *profile) trimTo(t int64) {
	if t <= p.times[0] {
		return
	}
	idx := p.segmentIndex(t)
	n := copy(p.times, p.times[idx:])
	p.times = p.times[:n]
	p.times[0] = t
	n = copy(p.free, p.free[idx:])
	p.free = p.free[:n]
	p.normalize()
}

// normalize merges adjacent segments with equal free counts, keeping the
// step function in canonical form so profiles can be compared and stay small
// under repeated release/trim cycles. Its callers add cores or shift
// segments, either of which can move the first free segment left, so the
// skip hint resets to the always-valid 0.
func (p *profile) normalize() {
	p.firstFree = 0
	out := 0
	for i := 1; i < len(p.times); i++ {
		if p.free[i] == p.free[out] {
			continue
		}
		out++
		p.times[out] = p.times[i]
		p.free[out] = p.free[i]
	}
	p.times = p.times[:out+1]
	p.free = p.free[:out+1]
	p.resummarizeFrom(0)
	p.debugCheck()
}

// equal reports whether two profiles describe the same step function. Both
// sides are compared in canonical (normalized) form without being mutated.
func (p *profile) equal(o *profile) bool {
	a, b := p.clone(), o.clone()
	a.normalize()
	b.normalize()
	if a.cores != b.cores || len(a.times) != len(b.times) {
		return false
	}
	for i := range a.times {
		if a.times[i] != b.times[i] || a.free[i] != b.free[i] {
			return false
		}
	}
	return true
}

// equalFrom reports whether two profiles describe the same step function
// from t on; t must not precede either origin.
func (p *profile) equalFrom(o *profile, t int64) bool {
	a, b := p.clone(), o.clone()
	a.trimTo(t)
	b.trimTo(t)
	return a.equal(b)
}

// spliceFrom replaces p from t on with src's step function from t on: p
// keeps its segments before t, and src's segments from the one containing t
// follow, merged at t when the two sides agree there. t must not precede
// either origin. It is one pass over the spliced tail, allocation-free once
// p has room for it.
func (p *profile) spliceFrom(src *profile, t int64) {
	k := p.segmentIndex(t)
	if p.times[k] < t {
		k++
	}
	j := src.segmentIndex(t)
	p.times, p.free = p.times[:k], p.free[:k]
	if k == 0 || p.free[k-1] != src.free[j] {
		p.times = append(p.times, t)
		p.free = append(p.free, src.free[j])
	}
	p.times = append(p.times, src.times[j+1:]...)
	p.free = append(p.free, src.free[j+1:]...)
	// Segments before k are unchanged, so the skip hint stays valid up to k.
	p.firstFree = min(p.firstFree, len(p.free)-1, k)
	p.resummarizeIfActive(k)
	p.debugCheck()
}

// findSlot returns the earliest start time >= earliest at which procs cores
// are continuously free for `duration` seconds, or noSlot when procs exceeds
// the cluster size. duration must be positive.
func (p *profile) findSlot(earliest, duration int64, procs int) int64 {
	start, _ := p.findSlotFrom(0, earliest, duration, procs)
	return start
}

// findSlotFrom is findSlot with a resume cursor: the search starts at
// segment hint instead of binary-searching from the beginning, and the index
// of the segment containing the returned start is handed back so a monotone
// caller (FCFS planning, whose lower bounds never decrease) can resume the
// next search there. A hint that is out of range or past earliest falls back
// to 0, so a stale cursor degrades to the plain search rather than
// misbehaving.
//
// Both scan loops consult the bucket summaries: the start-candidate scan
// jumps over buckets whose maximum free count cannot host procs cores at
// all, and the window-validation scan swallows whole buckets whose minimum
// already satisfies procs. Each skip is taken only when provably equivalent
// to the plain scan, so the result is bit-identical with and without
// summaries.
func (p *profile) findSlotFrom(hint int, earliest, duration int64, procs int) (int64, int) {
	if procs > p.cores || procs <= 0 || duration <= 0 {
		return noSlot, 0
	}
	if earliest < p.times[0] {
		earliest = p.times[0]
	}
	// No slot can begin inside the all-zero prefix tracked by the skip
	// hint; jumping the search past it spares every placement and estimate
	// on a saturated cluster a scan over segments that cannot host anything.
	if ff := p.firstFree; ff > 0 && ff < len(p.times) && p.times[ff] > earliest {
		earliest = p.times[ff]
		if hint < ff {
			hint = ff
		}
	}
	if hint < 0 || hint >= len(p.times) || p.times[hint] > earliest {
		hint = 0
	}
	start := earliest
	// The segment containing start, found within times[hint:] — the cursor
	// caller has already established times[hint] <= start. Local slice
	// headers let the compiler drop bounds checks in the scan loops.
	times, free := p.times, p.free
	bmax, bmin := p.bmax, p.bmin
	n := len(times)
	idx := hint + sort.Search(n-hint, func(i int) bool { return times[hint+i] > start }) - 1
	for {
		// Advance start until the current segment has enough cores.
		for idx < n && free[idx] < procs {
			idx++
			if idx&(bucketLen-1) == 0 {
				// idx reached a bucket head: whole buckets that top out
				// below procs cannot host a start — hop over them. The
				// summaries are consulted only at bucket boundaries so the
				// common per-segment step stays one AND and a rarely-taken
				// branch; hopping past n is caught right below, exactly as
				// the plain scan's exit would.
				for b := idx >> bucketShift; b < len(bmax) && bmax[b] < procs; b++ {
					idx += bucketLen
				}
			}
			if idx >= n {
				// The final segment always has the idle cluster... not
				// necessarily: running jobs bounded by walltime eventually
				// end, so the last segment has at least procs free unless a
				// reservation extends to infinity, which never happens.
				return noSlot, 0
			}
			start = times[idx]
		}
		if idx >= n {
			return noSlot, 0
		}
		// Check that availability holds until start+duration.
		end := start + duration
		ok := true
		for j := idx; j < n; {
			segStart := times[j]
			if segStart >= end {
				break
			}
			if free[j] < procs {
				// Not enough here; restart the search from this breakpoint.
				start = segStart
				idx = j
				ok = false
				break
			}
			j++
			if j&(bucketLen-1) == 0 {
				// j reached a bucket head: buckets whose minimum already
				// satisfies procs cannot fail the window, wherever it ends —
				// swallow them whole. Overshooting past the window's end or
				// the last (partial) bucket is harmless: the loop conditions
				// re-establish the plain scan's exit.
				for b := j >> bucketShift; b < len(bmin) && bmin[b] >= procs; b++ {
					j += bucketLen
				}
			}
		}
		if ok {
			return start, idx
		}
	}
}

// minFree returns the minimum number of free cores over the whole profile.
// It is used by invariant checks in tests.
func (p *profile) minFree() int {
	m := p.cores
	for _, f := range p.free {
		if f < m {
			m = f
		}
	}
	return m
}

// maxFree returns the maximum number of free cores over the whole profile.
func (p *profile) maxFree() int {
	m := 0
	for _, f := range p.free {
		if f > m {
			m = f
		}
	}
	return m
}

// debugCheck runs the structural validator when GRIDREALLOC_DEBUG_PROFILE
// is set; a violation panics, because a malformed profile means a bug in
// this file, not a recoverable input condition.
func (p *profile) debugCheck() {
	if !debugProfile {
		return
	}
	if err := p.check(); err != nil {
		panic(err)
	}
}

// check validates every structural invariant the profile relies on: length
// coupling of the segment arrays, strictly increasing breakpoints, free
// counts within [0, cores], a sound firstFree hint (only zero segments
// before it) and bucket summaries that match a recomputation. The property
// tests call it after every operation; the GRIDREALLOC_DEBUG_PROFILE paths
// call it after every mutation.
func (p *profile) check() error {
	if len(p.times) != len(p.free) {
		return fmt.Errorf("batch: profile arrays diverged: %d times, %d free", len(p.times), len(p.free))
	}
	if len(p.times) == 0 {
		return fmt.Errorf("batch: profile has no segments")
	}
	for i := 1; i < len(p.times); i++ {
		if p.times[i] <= p.times[i-1] {
			return fmt.Errorf("batch: breakpoints not strictly increasing at %d: %d then %d", i, p.times[i-1], p.times[i])
		}
	}
	for i, f := range p.free {
		if f < 0 || f > p.cores {
			return fmt.Errorf("batch: free count %d out of [0,%d] at segment %d", f, p.cores, i)
		}
	}
	if p.firstFree < 0 || p.firstFree >= len(p.free) {
		return fmt.Errorf("batch: firstFree %d out of range [0,%d)", p.firstFree, len(p.free))
	}
	for i := 0; i < p.firstFree; i++ {
		if p.free[i] != 0 {
			return fmt.Errorf("batch: firstFree %d skips non-zero segment %d (%d free)", p.firstFree, i, p.free[i])
		}
	}
	if len(p.bmax) != len(p.bmin) {
		return fmt.Errorf("batch: bucket arrays diverged: %d bmax, %d bmin", len(p.bmax), len(p.bmin))
	}
	if len(p.times) < bucketActivate {
		if len(p.bmax) != 0 {
			return fmt.Errorf("batch: %d segments carry %d bucket summaries below the activation threshold", len(p.times), len(p.bmax))
		}
		return nil
	}
	if nb := numBuckets(len(p.times)); len(p.bmax) != nb {
		return fmt.Errorf("batch: %d bucket summaries for %d segments, want %d", len(p.bmax), len(p.times), nb)
	}
	for b := range p.bmax {
		lo := b << bucketShift
		hi := lo + bucketLen
		if hi > len(p.free) {
			hi = len(p.free)
		}
		mx, mn := p.free[lo], p.free[lo]
		for _, f := range p.free[lo+1 : hi] {
			if f > mx {
				mx = f
			}
			if f < mn {
				mn = f
			}
		}
		if p.bmax[b] != mx || p.bmin[b] != mn {
			return fmt.Errorf("batch: bucket %d summary (max %d, min %d) disagrees with segments (max %d, min %d)",
				b, p.bmax[b], p.bmin[b], mx, mn)
		}
	}
	return nil
}
