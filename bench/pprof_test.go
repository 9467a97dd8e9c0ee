package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"gridrealloc/internal/core"
	"gridrealloc/internal/scenario"
)

// pb is a minimal protobuf encoder for hand-built test profiles.
type pb struct{ b []byte }

func (p *pb) varint(x uint64) {
	for x >= 0x80 {
		p.b = append(p.b, byte(x)|0x80)
		x >>= 7
	}
	p.b = append(p.b, byte(x))
}

func (p *pb) key(num, wire int) { p.varint(uint64(num)<<3 | uint64(wire)) }

func (p *pb) uint(num int, x uint64) { p.key(num, wireVarint); p.varint(x) }

func (p *pb) bytes(num int, b []byte) {
	p.key(num, wireBytes)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pb) packed(num int, xs ...uint64) {
	var q pb
	for _, x := range xs {
		q.varint(x)
	}
	p.bytes(num, q.b)
}

// testProfile builds a profile whose stacks are lists of frames, leaf first;
// a frame holding several names is one location with inlined lines,
// innermost first. Each stack gets the given CPU nanoseconds.
type testStack struct {
	frames [][]string
	ns     int64
}

func buildProfile(stacks []testStack) []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	strIdx := map[string]uint64{}
	str := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		strs = append(strs, s)
		strIdx[s] = uint64(len(strs) - 1)
		return strIdx[s]
	}
	var p pb
	for _, t := range [][2]uint64{{1, 2}, {3, 4}} {
		var vt pb
		vt.uint(1, t[0])
		vt.uint(2, t[1])
		p.bytes(1, vt.b)
	}
	funcs := map[string]uint64{}
	var locs, fns pb
	nextLoc := uint64(1)
	for _, st := range stacks {
		var ids []uint64
		for _, fr := range st.frames {
			var loc pb
			loc.uint(1, nextLoc)
			for _, name := range fr {
				id, ok := funcs[name]
				if !ok {
					id = uint64(len(funcs) + 1)
					funcs[name] = id
					var fn pb
					fn.uint(1, id)
					fn.uint(2, str(name))
					fns.bytes(5, fn.b)
				}
				var line pb
				line.uint(1, id)
				loc.bytes(4, line.b)
			}
			locs.bytes(4, loc.b)
			ids = append(ids, nextLoc)
			nextLoc++
		}
		var s pb
		s.packed(1, ids...)
		s.packed(2, 1, uint64(st.ns))
		p.bytes(2, s.b)
	}
	p.b = append(p.b, locs.b...)
	p.b = append(p.b, fns.b...)
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	return p.b
}

const (
	fBatchAdvance = "gridrealloc/internal/batch.(*Scheduler).Advance"
	fReallocate   = "gridrealloc/internal/core.(*Agent).Reallocate"
	fSweepWorker  = "gridrealloc/internal/core.forEachClusterWith.func1"
	fSnapshotECT  = "gridrealloc/internal/batch.(*EstimateSnapshot).TryEstimateCompletionScaled"
)

func TestAttributeSelfAndInclusive(t *testing.T) {
	raw := buildProfile([]testStack{
		// Allocation inside the batch scheduler counts toward batch.
		{[][]string{{"runtime.mallocgc"}, {fBatchAdvance}, {"gridrealloc/internal/core.(*driver).advanceAll"}}, 30},
		// An inlined snapshot query inside the reallocation sweep: batch.
		{[][]string{{fSnapshotECT, "gridrealloc/internal/core.(*sweep).query"}, {fReallocate}}, 20},
		// A sweep worker goroutine: core, and inclusive in Reallocate.
		{[][]string{{"gridrealloc/internal/core.(*Agent).newSweep.func1"}, {fSweepWorker}}, 10},
		// Platform and server are not named layers: walk to the caller.
		{[][]string{{"gridrealloc/internal/platform.Platform.MaxCores"}, {"gridrealloc/internal/scenario.BuildRunConfig"}}, 5},
		{[][]string{{"encoding/json.(*encodeState).marshal"}, {"gridrealloc/internal/service.writeJSON"}, {"net/http.HandlerFunc.ServeHTTP"}}, 10},
		{[][]string{{"syscall.Syscall"}, {"net.(*conn).Write"}}, 5},
		{[][]string{{"runtime.scanobject"}, {"runtime.gcDrain"}, {"runtime.gcBgMarkWorker"}}, 15},
		{[][]string{{"runtime.futex"}, {"runtime.findRunnable"}}, 3},
		// The benchmark's own code is no layer either.
		{[][]string{{"main.openLoop"}}, 2},
	})
	p, err := parseProfile(raw)
	if err != nil {
		t.Fatal(err)
	}
	a := attribute(p)
	if a.total != 100 {
		t.Fatalf("total = %d, want 100", a.total)
	}
	want := map[string]float64{"batch": 0.50, "core": 0.10, "scenario": 0.05, "json": 0.10,
		"http": 0.05, "gc": 0.15, "other": 0.05}
	sum := 0.0
	for _, l := range layers {
		sum += a.self[l]
		if math.Abs(a.self[l]-want[l]) > 1e-9 {
			t.Errorf("self[%s] = %g, want %g", l, a.self[l], want[l])
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("self fractions sum to %g", sum)
	}
	for m, w := range map[string]float64{"core.reallocate_frac": 0.30, "batch.advance_frac": 0.30,
		"batch.ect_frac": 0.20, "core.submit_frac": 0} {
		if math.Abs(a.inclusive[m]-w) > 1e-9 {
			t.Errorf("%s = %g, want %g", m, a.inclusive[m], w)
		}
	}
	// gzip-compressed input decodes the same.
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	zw.Write(raw)
	zw.Close()
	pz, err := parseProfile(zbuf.Bytes())
	if err != nil || attribute(pz).total != 100 {
		t.Fatalf("gzip profile: %v", err)
	}
}

func TestParseProfileRejectsCorruptInput(t *testing.T) {
	good := buildProfile([]testStack{{[][]string{{fBatchAdvance}}, 7}})
	if _, err := parseProfile(good); err != nil {
		t.Fatal(err)
	}
	var badLoc pb // a sample naming location 9, which does not exist
	badLoc.bytes(6, nil)
	var s pb
	s.packed(1, 9)
	badLoc.bytes(2, s.b)
	var badFunc pb // a location naming function 3, which does not exist
	var loc, line pb
	line.uint(1, 3)
	loc.uint(1, 1)
	loc.bytes(4, line.b)
	badFunc.bytes(4, loc.b)
	var badStr pb // a sample type naming string 40
	var vt pb
	vt.uint(1, 40)
	badStr.bytes(1, vt.b)
	badStr.bytes(6, nil)
	for name, data := range map[string][]byte{
		"truncated":           good[:len(good)-3],
		"overlong length":     {0x12, 0xff, 0x01, 0x00},
		"field zero":          {0x00, 0x01},
		"group wire type":     {0x0b},
		"bad gzip":            {0x1f, 0x8b, 0x08, 0x00, 0x01},
		"unknown location":    badLoc.b,
		"unknown function":    badFunc.b,
		"string out of range": badStr.b,
		"varint overflow":     {0x08, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
	} {
		if _, err := parseProfile(data); !errors.Is(err, errCorrupt) {
			t.Errorf("%s: err = %v, want errCorrupt", name, err)
		}
	}
}

// TestAttributeCapturedProfile profiles a real simulation in this test and
// splits it by layer.
func TestAttributeCapturedProfile(t *testing.T) {
	cfg, err := scenario.BuildRunConfig(scenario.Config{Scenario: "apr", TraceFraction: 0.05,
		Algorithm: "realloc-cancel", Heuristic: "MinMin"})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := profiled(func() error {
		sim := core.NewSimulator()
		for deadline := time.Now().Add(600 * time.Millisecond); time.Now().Before(deadline); {
			if _, err := sim.Run(cfg); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		t.Fatal(err)
	}
	a := attribute(p)
	if a.total == 0 {
		t.Skip("profile captured no samples")
	}
	sum := 0.0
	for _, l := range layers {
		sum += a.self[l]
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("self fractions sum to %g", sum)
	}
	if a.self["batch"] <= 0 || a.self["core"] <= 0 {
		t.Errorf("batch %g and core %g must both be > 0", a.self["batch"], a.self["core"])
	}
	if a.inclusive["core.reallocate_frac"] <= 0 {
		t.Errorf("Reallocate never on the stack")
	}
	// Profiling cannot start twice.
	if err := pprof.StartCPUProfile(&bytes.Buffer{}); err == nil {
		_, perr := profiled(func() error { return nil })
		pprof.StopCPUProfile()
		if perr == nil {
			t.Errorf("profiled succeeded while another profile was running")
		}
	}
}
