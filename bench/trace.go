package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer of the program:
// its name, start and end (nanoseconds since the tracer started), the span
// that caused it and the task, request or campaign it belongs to.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of one traced phase in memory until the run ends.
// A nil *tracer is the untraced mode: every method is a no-op, so workload
// code calls it unconditionally.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	nextID int64
	spans  []span
}

func newTracer(origin time.Time) *tracer { return &tracer{origin: origin} }

// newID reserves a span ID, so children can name a parent that has not
// ended yet.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// record stores a finished span under an ID from newID (0 reserves one).
func (t *tracer) record(id, parent int64, name string, req int64, start, end time.Time) {
	if t == nil {
		return
	}
	if id == 0 {
		id = t.newID()
	}
	s := span{ID: id, Parent: parent, Name: name, Req: req,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// durations returns the lengths of every span with the given name, in the
// order they were recorded.
func (t *tracer) durations(name string) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// byReq returns the summed length of the named spans per request ID.
func (t *tracer) byReq(name string) map[int64]time.Duration {
	out := map[int64]time.Duration{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Req] += time.Duration(s.End - s.Start)
		}
	}
	return out
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// profiled runs fn under a runtime/pprof CPU profile and returns the raw
// (gzip-compressed profile.proto) bytes.
func profiled(fn func() error) ([]byte, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	err := fn()
	pprof.StopCPUProfile()
	return buf.Bytes(), err
}

// writeTraceFiles stores the traced phase's spans and profile as
// DIR/<workload>.spans.jsonl and DIR/<workload>.cpu.pprof.
func writeTraceFiles(dir, workload string, tr *tracer, prof []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := tr.writeJSONL(filepath.Join(dir, workload+".spans.jsonl")); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, workload+".cpu.pprof"), prof, 0o644); err != nil {
		return fmt.Errorf("write profile: %w", err)
	}
	return nil
}
