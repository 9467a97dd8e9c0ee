package main

import (
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// call performs scripted request i. It may return a follow-up request that
// depends on the answer (the frontal resubmit after a cancel answered 200);
// the worker sends it right away and times it from that moment.
type call func(i int) (next func() error, err error)

// loadResult is what one open-loop replay measured.
type loadResult struct {
	// lat holds one latency per request, scripted ones timed from their due
	// time (so a stall is charged to every request due during it, not only
	// to the one that met it) and follow-ups from when they were sent.
	lat []time.Duration
	// late is how far behind schedule the generator dispatched each
	// scripted request; wait is how long each then queued for a free
	// connection.
	late, wait []time.Duration
	attempted  int
	failed     int
	// inflight is how many dispatched requests were still unanswered when
	// the last one was dispatched: a growing backlog shows here.
	inflight int
	wall     time.Duration
}

// scheduleTick is the grid open-loop due times are rounded down to:
// requests falling in one tick are due together at its start. It bounds
// the generator's wake-ups (and the CPU they take from the daemon on a
// small machine) at one per tick.
const scheduleTick = 250 * time.Microsecond

// sleepUntil blocks until the clock reaches due. It sleeps in nanosleep
// rather than time.Sleep: an idle Go runtime wakes time.Sleep callers from
// its network poller with millisecond resolution, which made a generator on
// a 4,000 req/s schedule run 0.5 ms late on average (measured), more than
// the daemon's whole answer time. nanosleep woke 64 µs late at the median
// and 0.23 ms at p99 on the same machine.
func sleepUntil(clock func() time.Time, due time.Time) {
	for {
		d := due.Sub(clock())
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep just loops
	}
}

// openLoop sends requests 0..n-1 at a fixed rate, request i due at
// start + i/rate (rounded down to the schedule tick) whatever happened to
// earlier requests, over conns workers that each hold one connection. The
// generator never blocks on a busy worker: requests it cannot hand over
// queue in a channel sized to n.
func openLoop(clock func() time.Time, n int, rate float64, conns int, do call) loadResult {
	res := loadResult{lat: make([]time.Duration, n), late: make([]time.Duration, n), wait: make([]time.Duration, n), attempted: n}
	if n == 0 {
		return res
	}
	dueAt := make([]time.Time, n)
	sentAt := make([]time.Time, n)
	queue := make(chan int, n)
	var done, failed atomic.Int64
	var mu sync.Mutex // guards the follow-up samples below
	var extra []time.Duration
	var extraFailed int
	var wg sync.WaitGroup
	wg.Add(conns)
	for w := 0; w < conns; w++ {
		go func() {
			defer wg.Done()
			for i := range queue {
				picked := clock()
				next, err := do(i)
				end := clock()
				res.wait[i] = picked.Sub(sentAt[i])
				res.lat[i] = end.Sub(dueAt[i])
				if err != nil {
					failed.Add(1)
				}
				done.Add(1)
				if next == nil {
					continue
				}
				err = next()
				d := clock().Sub(end)
				mu.Lock()
				extra = append(extra, d)
				if err != nil {
					extraFailed++
				}
				mu.Unlock()
			}
		}()
	}
	start := clock()
	interval := float64(time.Second) / rate
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) * interval).Truncate(scheduleTick))
		sleepUntil(clock, due)
		dueAt[i] = due
		sentAt[i] = clock()
		res.late[i] = sentAt[i].Sub(due)
		queue <- i
	}
	res.inflight = n - int(done.Load())
	close(queue)
	wg.Wait()
	res.wall = clock().Sub(start)
	res.lat = append(res.lat, extra...)
	res.attempted += len(extra)
	res.failed = int(failed.Load()) + extraFailed
	return res
}
