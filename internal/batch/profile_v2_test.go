package batch

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// --- Satellite: diverged-capacity buffer regression -------------------------
//
// grow and copyFrom reuse backing arrays based on capacity checks. The old
// code consulted cap(p.times) alone; a profile whose times and free arrays
// had diverged capacities (possible after independent append growth, or in
// any hand-built buffer) would slice free beyond its capacity — a panic —
// or keep appending into a too-small array. Both paths now check both caps.

// divergedProfile builds a single-segment profile whose backing arrays have
// deliberately different capacities.
func divergedProfile(tcap, fcap, cores int) *profile {
	p := &profile{
		times: make([]int64, 1, tcap),
		free:  make([]int, 1, fcap),
		cores: cores,
	}
	p.times[0] = 0
	p.free[0] = cores
	return p
}

func TestCopyFromDivergedCaps(t *testing.T) {
	src := newProfile(0, 8)
	for _, tt := range []int64{10, 20, 30, 40, 50} {
		if err := src.reserve(tt, tt+5, 1); err != nil {
			t.Fatal(err)
		}
	}
	n := len(src.times)
	if n < 4 {
		t.Fatalf("source profile too small to exercise the copy: %d segments", n)
	}
	for _, tc := range []struct {
		name       string
		tcap, fcap int
	}{
		{"times-large-free-small", 4 * n, 1}, // old code: free[:n] beyond cap → panic
		{"free-large-times-small", 1, 4 * n},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dst := divergedProfile(tc.tcap, tc.fcap, 8)
			dst.copyFrom(src)
			if !dst.equal(src) {
				t.Fatal("copy into diverged-cap buffers lost the step function")
			}
			if err := dst.check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestGrowDivergedCaps(t *testing.T) {
	for _, tc := range []struct {
		name       string
		tcap, fcap int
	}{
		{"times-large-free-small", 64, 1}, // old code: cap(times) satisfied → free never grown
		{"free-large-times-small", 1, 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := divergedProfile(tc.tcap, tc.fcap, 8)
			p.grow(16)
			need := 1 + 16
			if cap(p.times) < need || cap(p.free) < need {
				t.Fatalf("grow(16) left caps %d/%d, need %d for both", cap(p.times), cap(p.free), need)
			}
			// The grown profile must absorb that many breakpoints without
			// losing the coupling.
			for i := int64(1); i <= 16; i++ {
				p.ensureBreak(i * 10)
			}
			if err := p.check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// --- Satellite: hint semantics at exact breakpoints and the trimmed origin --

func TestSegmentIndexFromBoundaries(t *testing.T) {
	p := newProfile(0, 10)
	// Breakpoints 0, 10, 20, 30.
	if err := p.reserve(10, 20, 2); err != nil {
		t.Fatal(err)
	}
	if err := p.reserve(20, 30, 5); err != nil {
		t.Fatal(err)
	}
	if got, want := len(p.times), 4; got != want {
		t.Fatalf("fixture has %d breakpoints, want %d", got, want)
	}
	cases := []struct {
		name string
		hint int
		t    int64
		want int
	}{
		{"exact-breakpoint-at-hint", 1, 10, 1},
		{"exact-breakpoint-past-hint", 0, 20, 2},
		{"hint-is-containing-segment", 1, 15, 1},
		{"hint-before-containing-segment", 1, 25, 2},
		{"hint-too-late-falls-back", 2, 15, 1},
		{"hint-at-last-segment", 3, 35, 3},
		{"exact-breakpoint-at-last", 3, 30, 3},
		{"hint-out-of-range-high", 7, 25, 2},
		{"hint-negative", -1, 25, 2},
		{"origin-exact", 0, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := p.segmentIndexFrom(tc.hint, tc.t); got != tc.want {
				t.Fatalf("segmentIndexFrom(%d, %d) = %d, want %d", tc.hint, tc.t, got, tc.want)
			}
		})
	}
}

func TestEnsureBreakFromBoundaries(t *testing.T) {
	build := func() *profile {
		p := newProfile(0, 10)
		if err := p.reserve(10, 20, 2); err != nil {
			t.Fatal(err)
		}
		if err := p.reserve(20, 30, 5); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		name     string
		hint     int
		t        int64
		wantIdx  int
		inserted bool
	}{
		{"existing-breakpoint-at-hint", 1, 10, 1, false},
		{"existing-breakpoint-past-hint", 0, 30, 3, false},
		{"split-mid-segment", 0, 15, 2, true},
		{"split-last-segment", 3, 40, 4, true},
		{"split-with-stale-late-hint", 3, 5, 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := build()
			before := len(p.times)
			idx := p.ensureBreakFrom(tc.hint, tc.t)
			if idx != tc.wantIdx {
				t.Fatalf("ensureBreakFrom(%d, %d) = %d, want %d", tc.hint, tc.t, idx, tc.wantIdx)
			}
			if p.times[idx] != tc.t {
				t.Fatalf("breakpoint at index %d is %d, want %d", idx, p.times[idx], tc.t)
			}
			if grew := len(p.times) > before; grew != tc.inserted {
				t.Fatalf("insertion = %v, want %v", grew, tc.inserted)
			}
			if err := p.check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTrimmedOriginBoundaries pins the origin semantics after trimTo moves
// the first breakpoint onto an instant that never was one: searches, breaks
// and reservations anchored exactly at the new origin must resolve to
// segment 0 without inserting anything, and times before it must clamp (in
// findSlot) or be rejected (in reserve/release).
func TestTrimmedOriginBoundaries(t *testing.T) {
	p := newProfile(0, 10)
	if err := p.reserve(10, 30, 4); err != nil {
		t.Fatal(err)
	}
	p.trimTo(15) // origin now 15, mid-reservation; 15 was never a breakpoint
	if p.times[0] != 15 {
		t.Fatalf("origin after trim = %d, want 15", p.times[0])
	}
	if got := p.segmentIndexFrom(0, 15); got != 0 {
		t.Fatalf("segmentIndexFrom(0, origin) = %d, want 0", got)
	}
	if got := p.freeAt(15); got != 6 {
		t.Fatalf("freeAt(origin) = %d, want 6", got)
	}
	before := len(p.times)
	if idx := p.ensureBreak(15); idx != 0 || len(p.times) != before {
		t.Fatalf("ensureBreak(origin) = %d (len %d→%d), want index 0 with no insertion", idx, before, len(p.times))
	}
	// A search from before the trimmed origin clamps to it.
	if got := p.findSlot(0, 5, 10); got != 30 {
		t.Fatalf("findSlot(before-origin) = %d, want 30", got)
	}
	if got := p.findSlot(0, 5, 6); got != 15 {
		t.Fatalf("findSlot(before-origin, fits-at-origin) = %d, want origin 15", got)
	}
	// Reservations anchored exactly at the trimmed origin are legal; before
	// it they are not.
	if err := p.reserve(15, 20, 6); err != nil {
		t.Fatalf("reserve at trimmed origin: %v", err)
	}
	if err := p.reserve(14, 20, 1); err == nil {
		t.Fatal("reserve before trimmed origin unexpectedly succeeded")
	}
	if err := p.check(); err != nil {
		t.Fatal(err)
	}
}

// --- Satellite: property test against a naive reference step function ------

// refProfile is a deliberately naive step-function implementation: plain
// linear scans, no hints, no buckets, no merging discipline beyond keeping
// the function canonical. It re-derives every answer from the definition so
// the v2 engine has an independent oracle.
type refProfile struct {
	times []int64
	free  []int
	cores int
}

func newRefProfile(start int64, cores int) *refProfile {
	return &refProfile{times: []int64{start}, free: []int{cores}, cores: cores}
}

func (r *refProfile) segAt(t int64) int {
	i := 0
	for i+1 < len(r.times) && r.times[i+1] <= t {
		i++
	}
	return i
}

func (r *refProfile) split(t int64) {
	i := r.segAt(t)
	if r.times[i] == t {
		return
	}
	r.times = append(r.times, 0)
	r.free = append(r.free, 0)
	copy(r.times[i+2:], r.times[i+1:])
	copy(r.free[i+2:], r.free[i+1:])
	r.times[i+1] = t
	r.free[i+1] = r.free[i]
}

func (r *refProfile) add(start, end int64, delta int) error {
	r.split(start)
	r.split(end)
	for i := range r.times {
		if r.times[i] >= start && r.times[i] < end {
			f := r.free[i] + delta
			if f < 0 || f > r.cores {
				return fmt.Errorf("ref: %d free out of range at t=%d", f, r.times[i])
			}
		}
	}
	for i := range r.times {
		if r.times[i] >= start && r.times[i] < end {
			r.free[i] += delta
		}
	}
	return nil
}

func (r *refProfile) trim(t int64) {
	if t <= r.times[0] {
		return
	}
	i := r.segAt(t)
	r.times = append(r.times[:0], r.times[i:]...)
	r.free = append(r.free[:0], r.free[i:]...)
	r.times[0] = t
}

// findSlot checks every candidate start (the earliest time and every later
// breakpoint) directly against the definition.
func (r *refProfile) findSlot(earliest, duration int64, procs int) int64 {
	if procs > r.cores || procs <= 0 || duration <= 0 {
		return noSlot
	}
	if earliest < r.times[0] {
		earliest = r.times[0]
	}
	cands := []int64{earliest}
	for _, t := range r.times {
		if t > earliest {
			cands = append(cands, t)
		}
	}
	for _, c := range cands {
		ok := true
		for i := range r.times {
			segStart := r.times[i]
			segEnd := int64(1<<62 - 1)
			if i+1 < len(r.times) {
				segEnd = r.times[i+1]
			}
			if segEnd <= c || segStart >= c+duration {
				continue
			}
			if r.free[i] < procs {
				ok = false
				break
			}
		}
		if ok {
			return c
		}
	}
	return noSlot
}

// matches reports whether the v2 profile and the reference describe the
// same step function, comparing the free count at both sides' breakpoints.
func (r *refProfile) matches(p *profile) error {
	for _, t := range r.times {
		if got, want := p.freeAt(t), r.free[r.segAt(t)]; got != want {
			return fmt.Errorf("free at %d: v2 %d, ref %d", t, got, want)
		}
	}
	for _, t := range p.times {
		if t < r.times[0] {
			return fmt.Errorf("v2 breakpoint %d before ref origin %d", t, r.times[0])
		}
		if got, want := p.freeAt(t), r.free[r.segAt(t)]; got != want {
			return fmt.Errorf("free at %d: v2 %d, ref %d", t, got, want)
		}
	}
	return nil
}

type refReservation struct {
	start, end int64
	procs      int
}

// TestProfileMatchesReferenceModel drives the v2 engine and the naive
// reference through the same randomized operation sequences — reserve at
// found slots, release of reservation tails, trims, slot queries across
// widths and durations — and requires identical answers plus a clean
// structural check after every step. The horizon and reservation density
// push the profile well past the bucket-activation threshold so the skip
// paths in findSlotFrom are exercised, not just the plain scans. Failures
// name the seed and step, so any counterexample replays deterministically.
func TestProfileMatchesReferenceModel(t *testing.T) {
	seeds := []int64{1, 7, 42, 1234, 99991}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			const cores = 48
			p := newProfile(0, cores)
			ref := newRefProfile(0, cores)
			var live []refReservation
			now := int64(0)
			for step := 0; step < 400; step++ {
				switch op := rng.Intn(10); {
				case op < 5: // reserve at the earliest slot
					procs := 1 + rng.Intn(cores)
					duration := int64(1 + rng.Intn(2000))
					earliest := now + int64(rng.Intn(500))
					hint := rng.Intn(len(p.times) + 2)
					start, idx := p.findSlotFrom(hint, earliest, duration, procs)
					if want := ref.findSlot(earliest, duration, procs); start != want {
						t.Fatalf("step %d: findSlotFrom(hint=%d) = %d, ref %d", step, hint, start, want)
					}
					if start == noSlot {
						break
					}
					if _, err := p.reserveAtHint(start, start+duration, procs, idx); err != nil {
						t.Fatalf("step %d: reserve: %v", step, err)
					}
					if err := ref.add(start, start+duration, -procs); err != nil {
						t.Fatalf("step %d: ref reserve: %v", step, err)
					}
					live = append(live, refReservation{start, start + duration, procs})
				case op < 7: // release the tail of a live reservation
					if len(live) == 0 {
						break
					}
					i := rng.Intn(len(live))
					res := live[i]
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
					if res.start < p.times[0] {
						// Part of the window fell behind the trimmed origin;
						// releasing it would be rejected by both sides.
						break
					}
					from := res.start + rng.Int63n(res.end-res.start)
					if err := p.release(from, res.end, res.procs); err != nil {
						t.Fatalf("step %d: release: %v", step, err)
					}
					if err := ref.add(from, res.end, res.procs); err != nil {
						t.Fatalf("step %d: ref release: %v", step, err)
					}
				case op < 8: // advance time and trim
					now += int64(rng.Intn(300))
					p.trimTo(now)
					ref.trim(now)
				default: // pure queries
					procs := 1 + rng.Intn(cores)
					duration := int64(1 + rng.Intn(3000))
					earliest := now + int64(rng.Intn(2000))
					got := p.findSlot(earliest, duration, procs)
					if want := ref.findSlot(earliest, duration, procs); got != want {
						t.Fatalf("step %d: findSlot(%d,%d,%d) = %d, ref %d", step, earliest, duration, procs, got, want)
					}
				}
				if err := p.check(); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if err := ref.matches(p); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
			if len(p.times) < bucketActivate {
				t.Fatalf("sequence never activated the bucket summaries (%d segments); the skip paths went untested", len(p.times))
			}
		})
	}
}

// TestBucketSummaryActivation pins the activation threshold: summaries are
// absent below it, consistent above it, and dropped again when a trim
// shrinks the profile back under it.
func TestBucketSummaryActivation(t *testing.T) {
	p := newProfile(0, 4)
	for i := 0; len(p.times) < bucketActivate; i++ {
		if err := p.reserve(int64(10+20*i), int64(20+20*i), 1); err != nil {
			t.Fatal(err)
		}
		if len(p.times) < bucketActivate && len(p.bmax) != 0 {
			t.Fatalf("summaries active at %d segments, below threshold %d", len(p.times), bucketActivate)
		}
	}
	if len(p.bmax) != numBuckets(len(p.times)) {
		t.Fatalf("summaries not active at %d segments: %d buckets", len(p.times), len(p.bmax))
	}
	if err := p.check(); err != nil {
		t.Fatal(err)
	}
	p.trimTo(p.times[len(p.times)-2])
	if len(p.times) >= bucketActivate {
		t.Fatalf("trim fixture still has %d segments", len(p.times))
	}
	if len(p.bmax) != 0 || len(p.bmin) != 0 {
		t.Fatalf("summaries survived deactivation: %d/%d buckets", len(p.bmax), len(p.bmin))
	}
}

// TestProfileCheckDetectsCorruption feeds the structural validator one
// broken profile per invariant: a validator that only ever sees healthy
// profiles in the property tests could silently stop detecting anything.
func TestProfileCheckDetectsCorruption(t *testing.T) {
	// deep returns a healthy profile above the bucket activation threshold.
	deep := func() *profile {
		p := newProfile(0, 4)
		for i := 0; len(p.times) < bucketActivate; i++ {
			if err := p.reserve(int64(10+20*i), int64(20+20*i), 1); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}
	cases := []struct {
		name string
		prof func() *profile
		want string
	}{
		{"arrays diverged", func() *profile { return &profile{times: []int64{0, 10}, free: []int{4}, cores: 4} }, "arrays diverged"},
		{"no segments", func() *profile { return &profile{cores: 4} }, "no segments"},
		{"breakpoints not increasing", func() *profile { return &profile{times: []int64{0, 10, 10}, free: []int{4, 2, 4}, cores: 4} }, "not strictly increasing"},
		{"free above cores", func() *profile { return &profile{times: []int64{0, 10}, free: []int{4, 5}, cores: 4} }, "out of [0,4]"},
		{"firstFree out of range", func() *profile { p := newProfile(0, 4); p.firstFree = 1; return p }, "firstFree 1 out of range"},
		{"firstFree skips free cores", func() *profile { return &profile{times: []int64{0, 10}, free: []int{4, 0}, cores: 4, firstFree: 1} }, "skips non-zero segment"},
		{"bucket arrays diverged", func() *profile { p := newProfile(0, 4); p.bmax = []int{4}; return p }, "bucket arrays diverged"},
		{"summaries below threshold", func() *profile { p := newProfile(0, 4); p.bmax, p.bmin = []int{4}, []int{4}; return p }, "below the activation threshold"},
		{"wrong bucket count", func() *profile { p := deep(); p.bmax, p.bmin = p.bmax[:1], p.bmin[:1]; return p }, "bucket summaries for"},
		{"stale summary", func() *profile { p := deep(); p.bmax[0]++; return p }, "disagrees with segments"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.prof().check()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("check() = %v, want an error mentioning %q", err, tc.want)
			}
		})
	}
	// Under the debug switch, a mutation that leaves a broken profile panics.
	defer func(on bool) { debugProfile = on }(debugProfile)
	debugProfile = true
	defer func() {
		if recover() == nil {
			t.Fatal("debugCheck accepted a corrupt profile")
		}
	}()
	(&profile{cores: 4}).debugCheck()
}
