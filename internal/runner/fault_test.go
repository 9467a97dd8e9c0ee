package runner_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridrealloc/internal/core"
	"gridrealloc/internal/leakcheck"
	"gridrealloc/internal/runner"
)

// TestNegativeWorkersClamped is the regression test for the pool-sizing
// guard: a negative Workers value must behave exactly like zero (one worker
// per CPU), not reach the pool construction as a literal count.
func TestNegativeWorkersClamped(t *testing.T) {
	for _, w := range []int{-1, -8} {
		out, _, err := runner.RunCtx(context.Background(), 8, runner.Options{Workers: w}, func(_ context.Context, i int, _ *core.Simulator) (int, error) {
			return i + 1, nil
		})
		if err != nil {
			t.Fatalf("Workers=%d: %v", w, err)
		}
		for i, v := range out {
			if v != i+1 {
				t.Fatalf("Workers=%d: out[%d] = %d", w, i, v)
			}
		}
	}
}

// TestCancellationDrains pins the cancellation contract: after ctx is
// cancelled mid-campaign, StreamCtx still emits every started task's
// outcome, returns ctx.Canceled, accounts for every task in RunStats, and
// leaves no worker goroutine behind.
func TestCancellationDrains(t *testing.T) {
	const n = 64
	snap := leakcheck.Take()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	release := make(chan struct{})
	var started atomic.Int64
	emitted := make(map[int]bool)
	stats, err := runner.StreamCtx(ctx, n, runner.Options{Workers: 4},
		func(ctx context.Context, i int, _ *core.Simulator) (int, error) {
			if started.Add(1) == 4 {
				// All four workers are mid-task: cancel, then let them go.
				// None may be abandoned — each must finish and emit.
				cancel()
				close(release)
			}
			<-release // hold every in-flight task until cancellation landed
			return i, nil
		},
		func(i int, v int, err error) {
			if emitted[i] {
				t.Errorf("task %d emitted twice", i)
			}
			emitted[i] = true
			if err != nil || v != i {
				t.Errorf("task %d: v=%d err=%v", i, v, err)
			}
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if int64(len(emitted)) != stats.Completed {
		t.Fatalf("emitted %d outcomes, stats say %d completed", len(emitted), stats.Completed)
	}
	if got := stats.Completed + stats.Failed + stats.Skipped; got != n {
		t.Fatalf("stats lose tasks: completed %d + failed %d + skipped %d != %d",
			stats.Completed, stats.Failed, stats.Skipped, n)
	}
	if stats.Skipped == 0 {
		t.Fatalf("cancellation mid-campaign skipped nothing: %+v", stats)
	}
	if err := snap.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestPanicQuarantinesSimulator pins the quarantine rule: the panicking
// task's worker must continue on a fresh simulator, the panicked one never
// executes another task, and the error is a structured *TaskError.
func TestPanicQuarantinesSimulator(t *testing.T) {
	const n, bad = 12, 5
	var mu sync.Mutex
	taskSims := make(map[int]*core.Simulator, n)
	seedOf := func(i int) uint64 { return uint64(100 + i) }
	out, stats, err := runner.RunCtx(context.Background(), n,
		runner.Options{Workers: 1, SeedOf: seedOf},
		func(_ context.Context, i int, sim *core.Simulator) (int, error) {
			mu.Lock()
			taskSims[i] = sim
			mu.Unlock()
			if i == bad {
				panic("kaboom")
			}
			return i, nil
		})
	if err == nil {
		t.Fatal("campaign with a panicking task returned nil error")
	}
	var te *runner.TaskError
	if !errors.As(err, &te) {
		t.Fatalf("err is not a *TaskError: %v", err)
	}
	if te.Index != bad || te.Seed != seedOf(bad) {
		t.Fatalf("TaskError = index %d seed %d, want index %d seed %d", te.Index, te.Seed, bad, seedOf(bad))
	}
	if !errors.Is(te, runner.ErrTaskPanic) {
		t.Fatalf("TaskError does not wrap ErrTaskPanic: %v", te)
	}
	if !strings.Contains(te.Stack, "fault_test.go") {
		t.Fatalf("TaskError stack does not reach the panic site:\n%s", te.Stack)
	}
	if !strings.Contains(te.Error(), fmt.Sprintf("seed %d", seedOf(bad))) {
		t.Fatalf("TaskError message does not carry the seed: %v", te)
	}
	// One worker, so before the panic every task shares one simulator and
	// after it every task shares the replacement — and the two differ.
	if taskSims[bad] != taskSims[0] {
		t.Fatal("panicking task did not run on the original pooled simulator")
	}
	if taskSims[bad+1] == taskSims[bad] {
		t.Fatal("quarantined simulator was reused after the panic")
	}
	if taskSims[n-1] != taskSims[bad+1] {
		t.Fatal("replacement simulator was not pooled for the remaining tasks")
	}
	for i, v := range out {
		if i != bad && v != i {
			t.Fatalf("task %d after the panic: out = %d", i, v)
		}
	}
	want := runner.RunStats{Tasks: n, Completed: n - 1, Failed: 1, RecoveredPanics: 1, DiscardedSims: 1}
	if stats != want {
		t.Fatalf("stats = %+v, want %+v", stats, want)
	}
}

// TestTransientRetriesConverge pins the retry loop: a task failing
// transiently twice converges on its third attempt with two retries
// counted, while exhausted retries surface the transient error as final.
func TestTransientRetriesConverge(t *testing.T) {
	var attempts atomic.Int64
	out, stats, err := runner.RunCtx(context.Background(), 1,
		runner.Options{MaxRetries: 3, RetryBackoff: time.Microsecond},
		func(_ context.Context, i int, _ *core.Simulator) (int, error) {
			if attempts.Add(1) <= 2 {
				return 0, runner.Transient(errors.New("flaky"))
			}
			return 7, nil
		})
	if err != nil {
		t.Fatalf("converging transient failed: %v", err)
	}
	if out[0] != 7 || attempts.Load() != 3 {
		t.Fatalf("out=%v after %d attempts", out, attempts.Load())
	}
	want := runner.RunStats{Tasks: 1, Completed: 1, Retries: 2}
	if stats != want {
		t.Fatalf("stats = %+v, want %+v", stats, want)
	}

	// Exhaustion: MaxRetries attempts are retried, then the error is final.
	attempts.Store(0)
	_, stats, err = runner.RunCtx(context.Background(), 1,
		runner.Options{MaxRetries: 2},
		func(_ context.Context, i int, _ *core.Simulator) (int, error) {
			attempts.Add(1)
			return 0, runner.Transient(errors.New("always flaky"))
		})
	if err == nil || !runner.IsTransient(err) {
		t.Fatalf("exhausted retries: err = %v", err)
	}
	if attempts.Load() != 3 { // initial attempt + 2 retries
		t.Fatalf("%d attempts, want 3", attempts.Load())
	}
	want = runner.RunStats{Tasks: 1, Failed: 1, Retries: 2}
	if stats != want {
		t.Fatalf("stats = %+v, want %+v", stats, want)
	}

	// Non-transient errors must not retry at all.
	attempts.Store(0)
	_, _, err = runner.RunCtx(context.Background(), 1,
		runner.Options{MaxRetries: 5},
		func(_ context.Context, i int, _ *core.Simulator) (int, error) {
			attempts.Add(1)
			return 0, errors.New("deterministic")
		})
	if err == nil || attempts.Load() != 1 {
		t.Fatalf("permanent error: err=%v after %d attempts", err, attempts.Load())
	}
}

// TestTaskTimeout pins the deadline path: a task overrunning TaskTimeout is
// recorded as a timeout and reported as a *TaskError wrapping
// context.DeadlineExceeded, while the campaign continues.
func TestTaskTimeout(t *testing.T) {
	seedOf := func(i int) uint64 { return uint64(i) * 11 }
	out, stats, err := runner.RunCtx(context.Background(), 3,
		runner.Options{Workers: 1, TaskTimeout: 5 * time.Millisecond, SeedOf: seedOf},
		func(ctx context.Context, i int, _ *core.Simulator) (int, error) {
			if i == 1 {
				<-ctx.Done()
				return 0, ctx.Err()
			}
			return i, nil
		})
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	var te *runner.TaskError
	if !errors.As(err, &te) || te.Index != 1 || te.Seed != seedOf(1) {
		t.Fatalf("timeout error is not a located TaskError: %v", err)
	}
	if out[0] != 0 || out[2] != 2 {
		t.Fatalf("campaign did not continue past the timeout: %v", out)
	}
	want := runner.RunStats{Tasks: 3, Completed: 2, Failed: 1, Timeouts: 1}
	if stats != want {
		t.Fatalf("stats = %+v, want %+v", stats, want)
	}
}

// TestFirstErrorConcurrent hammers Observe from many goroutines (the -race
// CI job turns any unsynchronised access into a failure) and checks the
// lowest-index error still wins.
func TestFirstErrorConcurrent(t *testing.T) {
	var f runner.FirstError
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				idx := g*200 + i
				if idx%3 == 0 {
					f.Observe(idx, fmt.Errorf("err %d", idx))
				} else {
					f.Observe(idx, nil)
				}
				f.Index()
				f.Err()
			}
		}(g)
	}
	wg.Wait()
	if f.Index() != 0 {
		t.Fatalf("lowest failing index = %d, want 0", f.Index())
	}
	if f.Err() == nil || f.Err().Error() != "err 0" {
		t.Fatalf("winning error = %v", f.Err())
	}
}

// TestStreamCtxSingleWorkerCancel covers the inline (workers == 1) fast
// path: cancellation between tasks stops the loop and skips the rest.
func TestStreamCtxSingleWorkerCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran int
	stats, err := runner.StreamCtx(ctx, 10, runner.Options{Workers: 1},
		func(_ context.Context, i int, _ *core.Simulator) (int, error) {
			ran++
			if i == 2 {
				cancel()
			}
			return i, nil
		}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if ran != 3 || stats.Completed != 3 || stats.Skipped != 7 {
		t.Fatalf("ran %d tasks, stats %+v", ran, stats)
	}
}
