// Package runner is the campaign execution engine: it runs large scenario
// sets over a bounded worker pool at hardware speed. Each worker owns one
// pooled core.Simulator that is reused across every task the worker picks up,
// so a campaign of thousands of scenarios pays the simulator construction
// cost (schedulers, profiles, heaps, pools, matrices) once per worker instead
// of once per scenario; results stream to the caller as tasks complete.
//
// The runner replaces the bespoke fan-out loops that cmd/experiments,
// cmd/gridsim and cmd/gridfuzz each used to roll: one scheduling discipline
// (an atomic task cursor over a fixed index range), one worker-owns-simulator
// reuse contract, and one deterministic error convention (the lowest-index
// failure wins, independent of worker count or interleaving). Task indexes
// fully determine task content for every caller, so a campaign's outcome is
// bit-identical no matter how many workers execute it — only wall-clock time
// changes.
//
// # Fault model
//
// A campaign is not all-or-nothing. The context-aware entry points
// (RunCtx, StreamCtx) degrade gracefully under four classes of fault:
//
//   - Cancellation: when the context is cancelled, workers finish their
//     in-flight task, stop claiming new indexes and drain; StreamCtx/RunCtx
//     return only after every worker goroutine has exited (no leaks), every
//     completed task has been emitted (partial results, still serialised),
//     and the lowest-index error convention still holds over the tasks that
//     ran. Unclaimed tasks are counted in RunStats.Skipped.
//
//   - Deadlines: Options.TaskTimeout derives a per-task context; a task
//     that fails once its deadline has expired is recorded as a timeout
//     (RunStats.Timeouts) and reported as a *TaskError wrapping
//     context.DeadlineExceeded. The campaign continues with the next task.
//
//   - Transient errors: an error marked with Transient is retried up to
//     Options.MaxRetries times with linear backoff (Options.RetryBackoff)
//     before it counts as the task's outcome; each retry is counted in
//     RunStats.Retries.
//
//   - Panics: a panicking task is recovered into a *TaskError carrying the
//     task index, its scenario seed (Options.SeedOf) and the stack. The
//     worker's pooled simulator is quarantined — a panic may have been
//     thrown mid-mutation, leaving state no Reset contract covers, so the
//     poisoned simulator is discarded and NEVER reused; the worker
//     continues on a fresh one (RunStats.RecoveredPanics,
//     RunStats.DiscardedSims). All other tasks still run.
//
// The recovery paths are provably exercised: internal/faultinject installs
// seeded fault plans through Options.Hook and the harness fault oracle
// asserts that non-faulted tasks produce digests bit-identical to a
// fault-free campaign while the RunStats counters match the plan exactly.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"gridrealloc/internal/core"
)

// TaskFunc is the unit of campaign work: run task i on the worker's pooled
// simulator. ctx carries campaign cancellation and, when Options.TaskTimeout
// is set, the per-task deadline; long tasks should observe it where they
// can. The simulator must not escape the call.
type TaskFunc[T any] func(ctx context.Context, i int, sim *core.Simulator) (T, error)

// SimSource supplies pooled simulators to campaign workers. Acquire hands
// out a simulator for the exclusive use of one worker, blocking until one is
// available or ctx is done; Release returns a healthy simulator for reuse by
// later acquirers; Discard quarantines a simulator after a recovered panic —
// the source must never hand that simulator out again (it may replace the
// lost capacity however it likes). A source shared by concurrent campaigns
// must be safe for concurrent use. The zero source (Options.Sims nil) gives
// every worker a private fresh simulator, the standalone-campaign behaviour.
type SimSource interface {
	Acquire(ctx context.Context) (*core.Simulator, error)
	Release(sim *core.Simulator)
	Discard(sim *core.Simulator)
}

// freshSims is the default SimSource: a new private simulator per Acquire,
// dropped to the garbage collector on Release or Discard. It reproduces the
// runner's historical behaviour — one simulator per worker, replaced fresh
// after a panic quarantine.
type freshSims struct{}

func (freshSims) Acquire(ctx context.Context) (*core.Simulator, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return core.NewSimulator(), nil
}

func (freshSims) Release(*core.Simulator) {}
func (freshSims) Discard(*core.Simulator) {}

// Hook intercepts task attempts inside runner workers. It exists for the
// seeded fault-injection harness (internal/faultinject): a hook may return
// an error (the attempt fails without running the task), panic (exercising
// the recover-and-quarantine path), block on ctx (exercising the deadline
// path) or mutate the simulator (exercising the poisoned-simulator
// quarantine). Production campaigns leave Options.Hook nil.
type Hook interface {
	// BeforeAttempt runs before attempt (0-based) of task on the given
	// worker's pooled simulator. A non-nil error becomes the attempt's
	// outcome and the task function is not called.
	BeforeAttempt(ctx context.Context, worker, task, attempt int, sim *core.Simulator) error
}

// Options configures a campaign execution.
type Options struct {
	// Workers bounds the worker pool; zero and negative values both mean
	// one worker per CPU (GOMAXPROCS). The pool never exceeds the task
	// count.
	Workers int
	// TaskTimeout, when positive, bounds each task attempt: the task runs
	// under a context with this deadline and a failure past the deadline is
	// recorded as a timeout. Zero means no per-task deadline.
	TaskTimeout time.Duration
	// MaxRetries is how many times a task attempt that failed with an error
	// marked Transient is retried before the error becomes the task's
	// outcome. Zero disables retries.
	MaxRetries int
	// RetryBackoff is the base delay between retries; attempt k waits
	// k*RetryBackoff (linear backoff), interruptible by cancellation. Zero
	// retries immediately.
	RetryBackoff time.Duration
	// SeedOf, when non-nil, maps a task index to the scenario seed recorded
	// in TaskError for panics and timeouts, so a faulted task is replayable
	// (gridfuzz -replay <seed>) straight from the error.
	SeedOf func(i int) uint64
	// Hook is the fault-injection test hook; nil in production.
	Hook Hook
	// Sims supplies the workers' pooled simulators. Nil means every worker
	// creates a private simulator (and a fresh replacement after a panic
	// quarantine) — the standalone-campaign behaviour. A shared SimSource
	// (the gridd lease manager) bounds and reuses simulators across
	// concurrent campaigns; when Acquire fails while the campaign context is
	// still live, the worker stops claiming tasks (the rest are Skipped) and
	// the acquire error is returned as the campaign error.
	Sims SimSource
}

// sims resolves the effective simulator source.
func (o Options) sims() SimSource {
	if o.Sims != nil {
		return o.Sims
	}
	return freshSims{}
}

// workers resolves the effective pool size for n tasks. Both zero and
// negative Workers values clamp to one worker per CPU — a negative value
// must never reach the pool sizing below, where it would be taken literally.
func (o Options) workers(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// RunStats counts the fault-tolerance events of one campaign execution.
// Tasks == Completed + Failed + Skipped always holds; a fault-free,
// uncancelled campaign has Completed == Tasks and zeros elsewhere.
type RunStats struct {
	// Tasks is the campaign size n.
	Tasks int64
	// Completed counts tasks whose final outcome was success.
	Completed int64
	// Failed counts tasks whose final outcome was an error (including
	// recovered panics and timeouts, after retries were exhausted).
	Failed int64
	// Skipped counts tasks never started, because the campaign was
	// cancelled first or because the simulator source refused to supply a
	// worker (a draining lease manager).
	Skipped int64
	// RecoveredPanics counts task attempts that panicked and were
	// recovered into a *TaskError.
	RecoveredPanics int64
	// Retries counts re-attempts of transiently failed tasks.
	Retries int64
	// Timeouts counts task failures attributed to the per-task deadline.
	Timeouts int64
	// DiscardedSims counts pooled simulators quarantined after a panic and
	// replaced with fresh ones (never returned to any pool).
	DiscardedSims int64
}

// Degraded reports whether the campaign hit any fault-handling path.
func (s RunStats) Degraded() bool {
	return s.Failed != 0 || s.Skipped != 0 || s.RecoveredPanics != 0 ||
		s.Retries != 0 || s.Timeouts != 0 || s.DiscardedSims != 0
}

// liveStats is the workers' shared, atomically updated view of RunStats.
type liveStats struct {
	completed, failed, recoveredPanics, retries, timeouts, discardedSims atomic.Int64
}

func (ls *liveStats) snapshot(n, executed int64) RunStats {
	return RunStats{
		Tasks:           n,
		Completed:       ls.completed.Load(),
		Failed:          ls.failed.Load(),
		Skipped:         n - executed,
		RecoveredPanics: ls.recoveredPanics.Load(),
		Retries:         ls.retries.Load(),
		Timeouts:        ls.timeouts.Load(),
		DiscardedSims:   ls.discardedSims.Load(),
	}
}

// ErrTaskPanic marks task errors that were recovered from a panic; test for
// it with errors.Is.
var ErrTaskPanic = errors.New("task panicked")

// TaskError is the structured per-task failure the fault paths produce: a
// recovered panic or a deadline timeout. Index is the task's campaign
// index, Seed its scenario seed when Options.SeedOf was provided (0
// otherwise), Stack the recovered goroutine stack (panics only), and Cause
// the underlying error — ErrTaskPanic-wrapped for panics,
// context.DeadlineExceeded-wrapped for timeouts.
type TaskError struct {
	Index int
	Seed  uint64
	Stack string
	Cause error
}

func (e *TaskError) Error() string {
	if e.Seed != 0 {
		return fmt.Sprintf("task %d (seed %d): %v", e.Index, e.Seed, e.Cause)
	}
	return fmt.Sprintf("task %d: %v", e.Index, e.Cause)
}

func (e *TaskError) Unwrap() error { return e.Cause }

// transientError marks an error as retryable; see Transient.
type transientError struct{ err error }

func (t *transientError) Error() string { return t.err.Error() }
func (t *transientError) Unwrap() error { return t.err }

// Transient marks err as retryable: a task attempt failing with a
// Transient-marked error is re-attempted up to Options.MaxRetries times.
// Use it for faults that a retry can plausibly clear (a contended external
// resource, an injected transient fault); deterministic failures should
// stay permanent. Transient(nil) is nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether err is marked retryable anywhere along its
// Unwrap chain.
func IsTransient(err error) bool {
	var t *transientError
	return errors.As(err, &t)
}

// taskRunner is one worker's execution state: its leased simulator (nil
// until the first acquire, and again after a panic quarantine) and the
// shared campaign configuration. It is not shared between goroutines.
type taskRunner[T any] struct {
	id    int
	sim   *core.Simulator
	src   SimSource
	opts  *Options
	fn    TaskFunc[T]
	stats *liveStats
}

// release hands the worker's simulator (if it still holds one) back to the
// source at worker exit.
func (w *taskRunner[T]) release() {
	if w.sim != nil {
		w.src.Release(w.sim)
		w.sim = nil
	}
}

// acquire lazily leases the worker's simulator before a task is claimed. A
// worker entering a task always holds a simulator: the only path that drops
// it mid-task is the panic quarantine, and a recovered panic is never
// retried, so the re-acquire always happens here, between tasks.
func (w *taskRunner[T]) acquire(ctx context.Context) error {
	if w.sim != nil {
		return nil
	}
	sim, err := w.src.Acquire(ctx)
	if err != nil {
		return err
	}
	w.sim = sim
	return nil
}

func (w *taskRunner[T]) seedOf(i int) uint64 {
	if w.opts.SeedOf != nil {
		return w.opts.SeedOf(i)
	}
	return 0
}

// runTask executes task i to its final outcome: the first successful
// attempt, or the first non-retryable (or retry-exhausted) error.
func (w *taskRunner[T]) runTask(ctx context.Context, i int) (T, error) {
	for attempt := 0; ; attempt++ {
		v, err := w.attempt(ctx, i, attempt)
		if err == nil {
			w.stats.completed.Add(1)
			return v, nil
		}
		if !IsTransient(err) || attempt >= w.opts.MaxRetries || ctx.Err() != nil || !w.backoff(ctx, attempt) {
			w.stats.failed.Add(1)
			return v, err
		}
		w.stats.retries.Add(1)
	}
}

// backoff sleeps the linear retry delay for the given attempt, returning
// false if the campaign was cancelled while waiting.
func (w *taskRunner[T]) backoff(ctx context.Context, attempt int) bool {
	d := w.opts.RetryBackoff
	if d <= 0 {
		return true
	}
	t := time.NewTimer(time.Duration(attempt+1) * d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// attempt runs one attempt of task i under the per-task deadline, recovering
// panics into *TaskError and quarantining the worker's simulator when one
// fires: a panic may have interrupted a mutation halfway, leaving state the
// Reset contract cannot see, so the poisoned simulator never executes
// another task — it is discarded to the source (which must never re-lease
// it) and the worker re-acquires before its next task.
func (w *taskRunner[T]) attempt(ctx context.Context, i, attempt int) (v T, err error) {
	tctx, cancel := ctx, func() {}
	if w.opts.TaskTimeout > 0 {
		tctx, cancel = context.WithTimeout(ctx, w.opts.TaskTimeout)
	}
	defer cancel()
	defer func() {
		if r := recover(); r != nil {
			w.stats.recoveredPanics.Add(1)
			w.stats.discardedSims.Add(1)
			if w.sim != nil {
				w.src.Discard(w.sim)
				w.sim = nil
			}
			var zero T
			v = zero
			err = &TaskError{
				Index: i,
				Seed:  w.seedOf(i),
				Stack: string(debug.Stack()),
				Cause: fmt.Errorf("%w: %v", ErrTaskPanic, r),
			}
		}
	}()
	if h := w.opts.Hook; h != nil {
		err = h.BeforeAttempt(tctx, w.id, i, attempt, w.sim)
	}
	if err == nil {
		v, err = w.fn(tctx, i, w.sim)
	}
	// A failure with the task deadline expired (and the campaign context
	// still live) is the deadline's fault, whatever error the task chose to
	// surface it as.
	if err != nil && tctx.Err() == context.DeadlineExceeded && ctx.Err() == nil {
		w.stats.timeouts.Add(1)
		var zero T
		v = zero
		err = &TaskError{
			Index: i,
			Seed:  w.seedOf(i),
			Cause: fmt.Errorf("%w (task timeout %v)", context.DeadlineExceeded, w.opts.TaskTimeout),
		}
	}
	return v, err
}

// StreamCtx runs fn(ctx, i, sim) for every task index i in [0, n) over the
// worker pool and delivers every outcome to emit as it completes. Each
// worker owns one pooled *core.Simulator, reused across all tasks it
// executes; fn must route its simulation runs through that simulator to
// benefit (and must not let it escape the call). emit is serialised — at
// most one invocation runs at a time — but arrives in completion order, not
// index order; callers that need index order collect into a slice by i (or
// use RunCtx). A nil emit discards outcomes.
//
// Cancellation stops workers from claiming new tasks; in-flight tasks
// finish (observing ctx where they can) and their outcomes are still
// emitted. StreamCtx returns only once every worker has exited, with the
// campaign's RunStats and ctx.Err() (nil when the campaign ran to
// completion).
func StreamCtx[T any](ctx context.Context, n int, opts Options, fn TaskFunc[T], emit func(i int, v T, err error)) (RunStats, error) {
	if n <= 0 {
		return RunStats{}, ctx.Err()
	}
	stats := &liveStats{}
	src := opts.sims()
	var executed atomic.Int64
	// The first simulator-acquire failure observed while the campaign
	// context was still live; it becomes the campaign error so a draining
	// lease manager is reported instead of silently skipping the tail.
	var srcMu sync.Mutex
	var srcErr error
	recordSrcErr := func(err error) {
		srcMu.Lock()
		if srcErr == nil {
			srcErr = err
		}
		srcMu.Unlock()
	}
	finish := func() (RunStats, error) {
		err := ctx.Err()
		if err == nil {
			srcMu.Lock()
			err = srcErr
			srcMu.Unlock()
		}
		return stats.snapshot(int64(n), executed.Load()), err
	}
	workers := opts.workers(n)
	if workers == 1 {
		// In-line fast path: no goroutine, no lock, same observable order.
		w := &taskRunner[T]{id: 0, src: src, opts: &opts, fn: fn, stats: stats}
		defer w.release()
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				break
			}
			if err := w.acquire(ctx); err != nil {
				recordSrcErr(err)
				break
			}
			executed.Add(1)
			v, err := w.runTask(ctx, i)
			if emit != nil {
				emit(i, v, err)
			}
		}
		return finish()
	}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(workers)
	for wi := 0; wi < workers; wi++ {
		go func(id int) {
			defer wg.Done()
			w := &taskRunner[T]{id: id, src: src, opts: &opts, fn: fn, stats: stats}
			defer w.release()
			for {
				if ctx.Err() != nil {
					return
				}
				if err := w.acquire(ctx); err != nil {
					recordSrcErr(err)
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				executed.Add(1)
				v, err := w.runTask(ctx, i)
				if emit != nil {
					mu.Lock()
					emit(i, v, err)
					mu.Unlock()
				}
			}
		}(wi)
	}
	wg.Wait()
	return finish()
}

// FirstError folds streamed task outcomes into the runner's deterministic
// error convention: the lowest-index failure wins, independent of worker
// count and completion order. StreamCtx callers that aggregate results
// themselves feed every outcome through Observe and read Err at the end,
// so the convention lives in one place. FirstError is safe for concurrent
// use: Observe may be called from multiple goroutines (signal handlers,
// unserialised collectors), not only from a serialised emit.
type FirstError struct {
	mu    sync.Mutex
	index int
	err   error
	set   bool
}

// Observe records the outcome of task i; non-errors are ignored.
func (f *FirstError) Observe(i int, err error) {
	if err == nil {
		return
	}
	f.mu.Lock()
	if !f.set || i < f.index {
		f.index, f.err, f.set = i, err, true
	}
	f.mu.Unlock()
}

// Index returns the index of the winning error, or -1 if none occurred.
func (f *FirstError) Index() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.set {
		return -1
	}
	return f.index
}

// Err returns the lowest-index error observed, or nil.
func (f *FirstError) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// RunCtx is StreamCtx collecting the outcomes into an index-ordered slice.
// Every task executes even after a failure (a campaign reports all
// results); the returned error is the lowest-index task error, which makes
// the reported failure deterministic regardless of worker count and
// interleaving. When the campaign is cancelled before a task error occurs,
// the error wraps ctx's error instead; either way the slice holds every
// completed task's result (zero values at failed or skipped indexes) and
// the RunStats say which counts apply.
func RunCtx[T any](ctx context.Context, n int, opts Options, fn TaskFunc[T]) ([]T, RunStats, error) {
	out := make([]T, n)
	var first FirstError
	stats, cerr := StreamCtx(ctx, n, opts, fn, func(i int, v T, err error) {
		out[i] = v
		first.Observe(i, err)
	})
	if err := first.Err(); err != nil {
		return out, stats, fmt.Errorf("runner: task %d: %w", first.Index(), err)
	}
	if cerr != nil {
		return out, stats, fmt.Errorf("runner: campaign cancelled after %d of %d tasks: %w",
			stats.Completed+stats.Failed, n, cerr)
	}
	return out, stats, nil
}
