package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads the CPU profiles runtime/pprof writes and splits their
// samples by layer. It decodes only the profile.proto fields attribution
// needs (sample types, samples, locations with their inlined lines,
// functions and the string table), so the benchmark takes no module
// dependency for it.

// cpuProfile is the decoded subset of one profile.proto message.
type cpuProfile struct {
	// sampleTypes names each value column, e.g. "samples/count" and
	// "cpu/nanoseconds".
	sampleTypes []string
	samples     []profSample
	// frames maps a location ID to the function names it covers, innermost
	// (inlined callee) first.
	frames map[uint64][]string
}

type profSample struct {
	locs   []uint64 // leaf first
	values []int64
}

// errCorrupt wraps every malformed-input failure of parseProfile.
var errCorrupt = errors.New("corrupt profile")

// parseProfile decodes a (possibly gzip-compressed) profile.proto message.
// Every reference must resolve: a sample naming an unknown location, a
// location naming an unknown function, or a string index out of range is
// rejected, as is any truncated or mistyped field.
func parseProfile(data []byte) (*cpuProfile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("%w: %v", errCorrupt, err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", errCorrupt, err)
		}
		data = raw
	}
	var (
		strs      []string
		typeIdx   [][2]uint64 // (type, unit) string indexes per sample type
		samples   []profSample
		locLines  = map[uint64][]uint64{} // location -> function IDs, innermost first
		locOrder  []uint64
		funcNames = map[uint64]uint64{} // function -> name string index
	)
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var t [2]uint64
			if err := eachField(b, func(n, w int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					if w != wireVarint {
						return fmt.Errorf("%w: value type field %d has wire type %d", errCorrupt, n, w)
					}
					t[n-1] = v
				}
				return nil
			}); err != nil {
				return err
			}
			typeIdx = append(typeIdx, t)
		case 2: // sample
			s, err := parseSample(b)
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			id, fns, err := parseLocation(b)
			if err != nil {
				return err
			}
			if _, dup := locLines[id]; dup || id == 0 {
				return fmt.Errorf("%w: location id %d repeated or zero", errCorrupt, id)
			}
			locLines[id] = fns
			locOrder = append(locOrder, id)
		case 5: // function
			var id, name uint64
			if err := eachField(b, func(n, w int, v uint64, _ []byte) error {
				if (n == 1 || n == 2) && w != wireVarint {
					return fmt.Errorf("%w: function field %d has wire type %d", errCorrupt, n, w)
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcNames[id] = name
		case 6: // string_table
			if wire != wireBytes {
				return fmt.Errorf("%w: string table entry has wire type %d", errCorrupt, wire)
			}
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", fmt.Errorf("%w: string index %d out of range (%d strings)", errCorrupt, i, len(strs))
		}
		return strs[i], nil
	}
	p := &cpuProfile{samples: samples, frames: make(map[uint64][]string, len(locOrder))}
	for _, t := range typeIdx {
		typ, err := str(t[0])
		if err != nil {
			return nil, err
		}
		unit, err := str(t[1])
		if err != nil {
			return nil, err
		}
		p.sampleTypes = append(p.sampleTypes, typ+"/"+unit)
	}
	for _, id := range locOrder {
		names := make([]string, 0, len(locLines[id]))
		for _, fid := range locLines[id] {
			si, ok := funcNames[fid]
			if !ok {
				return nil, fmt.Errorf("%w: location %d names unknown function %d", errCorrupt, id, fid)
			}
			name, err := str(si)
			if err != nil {
				return nil, err
			}
			names = append(names, name)
		}
		p.frames[id] = names
	}
	for _, s := range samples {
		if len(s.values) != len(p.sampleTypes) {
			return nil, fmt.Errorf("%w: sample has %d values for %d sample types", errCorrupt, len(s.values), len(p.sampleTypes))
		}
		for _, l := range s.locs {
			if _, ok := p.frames[l]; !ok {
				return nil, fmt.Errorf("%w: sample names unknown location %d", errCorrupt, l)
			}
		}
	}
	return p, nil
}

func parseSample(b []byte) (profSample, error) {
	var s profSample
	err := eachField(b, func(n, w int, v uint64, raw []byte) error {
		switch n {
		case 1:
			locs, err := appendVarints(s.locs, w, v, raw)
			s.locs = locs
			return err
		case 2:
			vals, err := appendVarints(nil, w, v, raw)
			for _, x := range vals {
				s.values = append(s.values, int64(x))
			}
			return err
		}
		return nil
	})
	return s, err
}

func parseLocation(b []byte) (id uint64, fns []uint64, err error) {
	err = eachField(b, func(n, w int, v uint64, raw []byte) error {
		switch n {
		case 1:
			if w != wireVarint {
				return fmt.Errorf("%w: location id has wire type %d", errCorrupt, w)
			}
			id = v
		case 4: // line
			var fid uint64
			if w != wireBytes {
				return fmt.Errorf("%w: location line has wire type %d", errCorrupt, w)
			}
			if err := eachField(raw, func(n, w int, v uint64, _ []byte) error {
				if n == 1 {
					if w != wireVarint {
						return fmt.Errorf("%w: line function id has wire type %d", errCorrupt, w)
					}
					fid = v
				}
				return nil
			}); err != nil {
				return err
			}
			fns = append(fns, fid)
		}
		return nil
	})
	return id, fns, err
}

// appendVarints appends a repeated varint field, accepting both the packed
// (one length-delimited run) and the unpacked (one varint per field)
// encodings.
func appendVarints(dst []uint64, wire int, v uint64, raw []byte) ([]uint64, error) {
	switch wire {
	case wireVarint:
		return append(dst, v), nil
	case wireBytes:
		for len(raw) > 0 {
			x, n := uvarint(raw)
			if n <= 0 {
				return dst, fmt.Errorf("%w: truncated packed varint", errCorrupt)
			}
			dst = append(dst, x)
			raw = raw[n:]
		}
		return dst, nil
	}
	return dst, fmt.Errorf("%w: repeated varint field has wire type %d", errCorrupt, wire)
}

const (
	wireVarint = 0
	wire64     = 1
	wireBytes  = 2
	wire32     = 5
)

// eachField walks the fields of one protobuf message, handing fn each
// field's number, wire type, varint value (wireVarint) or payload
// (wireBytes). Fixed-width fields are skipped; groups and unknown wire
// types are rejected.
func eachField(b []byte, fn func(num, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return fmt.Errorf("%w: truncated field key", errCorrupt)
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		if num == 0 {
			return fmt.Errorf("%w: field number 0", errCorrupt)
		}
		var v uint64
		var payload []byte
		switch wire {
		case wireVarint:
			v, n = uvarint(b)
			if n <= 0 {
				return fmt.Errorf("%w: truncated varint in field %d", errCorrupt, num)
			}
			b = b[n:]
		case wireBytes:
			l, n := uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return fmt.Errorf("%w: field %d overruns the message", errCorrupt, num)
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case wire64, wire32:
			w := 8
			if wire == wire32 {
				w = 4
			}
			if len(b) < w {
				return fmt.Errorf("%w: truncated fixed field %d", errCorrupt, num)
			}
			b = b[w:]
			continue
		default:
			return fmt.Errorf("%w: field %d has unsupported wire type %d", errCorrupt, num, wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// uvarint decodes one base-128 varint; n <= 0 reports truncation or
// overflow.
func uvarint(b []byte) (v uint64, n int) {
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		v |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// layers is the attribution order of profile self time. Every sample lands
// in exactly one of them, so their fractions sum to 1.
var layers = []string{"workload", "scenario", "core", "batch", "sim", "runner", "service", "http", "json", "gc", "other"}

// namedLayer maps a function to the layer its package belongs to, or ""
// when the package is not a named layer (the runtime, the rest of the
// standard library, this benchmark's own code, and the small internal
// helpers platform, server, metrics and stats, whose self time goes to the
// layer that called them).
func namedLayer(fn string) string {
	pkg := funcPackage(fn)
	switch {
	case pkg == "net/http" || strings.HasPrefix(pkg, "net/http/") || pkg == "net":
		return "http"
	case pkg == "encoding/json":
		return "json"
	case strings.HasPrefix(pkg, "gridrealloc/internal/"):
		l := strings.TrimPrefix(pkg, "gridrealloc/internal/")
		switch l {
		case "workload", "scenario", "core", "batch", "sim", "runner", "service":
			return l
		}
	}
	return ""
}

// funcPackage returns the import path of a symbol name such as
// "gridrealloc/internal/batch.(*Scheduler).Advance" or
// "net/http.(*conn).serve": everything before the first dot after the last
// slash.
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// inclusive names the entry points whose inclusive CPU share the traced run
// reports: a sample counts when any frame is one of the listed functions or
// a closure defined in one. The reallocation sweep fans its per-cluster work
// out to goroutines started by forEachClusterWith, whose stacks no longer
// show Reallocate, so those count toward it too.
var inclusive = []struct {
	metric string
	funcs  []string
}{
	{"core.reallocate_frac", []string{"gridrealloc/internal/core.(*Agent).Reallocate", "gridrealloc/internal/core.forEachClusterWith"}},
	{"core.submit_frac", []string{"gridrealloc/internal/core.(*Agent).SubmitJob"}},
	{"batch.advance_frac", []string{"gridrealloc/internal/batch.(*Scheduler).Advance"}},
	{"batch.ect_frac", []string{"gridrealloc/internal/batch.(*EstimateSnapshot).TryEstimateCompletionScaled", "gridrealloc/internal/batch.(*Scheduler).TryEstimateCompletion"}},
	{"batch.snapshot_frac", []string{"gridrealloc/internal/batch.(*Scheduler).EstimateSnapshotInto"}},
}

// attribution is a profile split by layer: self fractions per layer (summing
// to 1 when the profile has any samples) and the inclusive fractions of the
// entry points above.
type attribution struct {
	total     int64
	self      map[string]float64
	inclusive map[string]float64
}

// attribute splits the profile's CPU time (the "cpu/nanoseconds" column, or
// the last column if absent) by layer. Self time goes to the innermost frame
// that belongs to a named layer, so allocation and map work count toward the
// layer that called them; a stack with no named frame goes to gc when it is a
// runtime background mark worker and to other otherwise.
func attribute(p *cpuProfile) attribution {
	col := len(p.sampleTypes) - 1
	for i, t := range p.sampleTypes {
		if t == "cpu/nanoseconds" {
			col = i
		}
	}
	a := attribution{self: map[string]float64{}, inclusive: map[string]float64{}}
	if col < 0 {
		return a
	}
	self := map[string]int64{}
	incl := make([]int64, len(inclusive))
	for _, s := range p.samples {
		v := s.values[col]
		a.total += v
		layer := ""
		gcWorker := false
		hit := make([]bool, len(inclusive))
		for _, loc := range s.locs {
			for _, fn := range p.frames[loc] {
				if layer == "" {
					layer = namedLayer(fn)
				}
				if fn == "runtime.gcBgMarkWorker" {
					gcWorker = true
				}
				for i, e := range inclusive {
					for _, f := range e.funcs {
						if fn == f || strings.HasPrefix(fn, f+".") {
							hit[i] = true
						}
					}
				}
			}
		}
		switch {
		case layer != "":
		case gcWorker:
			layer = "gc"
		default:
			layer = "other"
		}
		self[layer] += v
		for i, h := range hit {
			if h {
				incl[i] += v
			}
		}
	}
	if a.total == 0 {
		return a
	}
	for _, l := range layers {
		a.self[l] = float64(self[l]) / float64(a.total)
	}
	for i, e := range inclusive {
		a.inclusive[e.metric] = float64(incl[i]) / float64(a.total)
	}
	return a
}
