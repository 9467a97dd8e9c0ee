package runner_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"gridrealloc/internal/core"
	"gridrealloc/internal/harness"
	"gridrealloc/internal/runner"
)

// TestRunCollectsInIndexOrder checks that RunCtx returns results indexed like
// the tasks regardless of worker count, and that workers actually reuse one
// simulator across tasks.
func TestRunCollectsInIndexOrder(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		sims := make(map[*core.Simulator]int)
		out, _, err := runner.RunCtx(context.Background(), 16, runner.Options{Workers: workers}, func(_ context.Context, i int, sim *core.Simulator) (int, error) {
			mu.Lock()
			sims[sim]++
			mu.Unlock()
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
		if len(sims) > workers {
			t.Fatalf("workers=%d: %d distinct simulators", workers, len(sims))
		}
		total := 0
		for _, n := range sims {
			total += n
		}
		if total != 16 {
			t.Fatalf("workers=%d: %d tasks executed", workers, total)
		}
	}
}

// TestRunReportsLowestIndexError checks the deterministic error convention:
// every task still runs, and the reported failure is the lowest-index one no
// matter how the workers interleave.
func TestRunReportsLowestIndexError(t *testing.T) {
	sentinel := errors.New("boom")
	ran := make([]bool, 32)
	var mu sync.Mutex
	out, _, err := runner.RunCtx(context.Background(), 32, runner.Options{Workers: 8}, func(_ context.Context, i int, _ *core.Simulator) (int, error) {
		mu.Lock()
		ran[i] = true
		mu.Unlock()
		if i == 7 || i == 23 {
			return 0, fmt.Errorf("task %d: %w", i, sentinel)
		}
		return i, nil
	})
	if err == nil || !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if want := "runner: task 7: task 7: boom"; err.Error() != want {
		t.Fatalf("err = %q, want %q", err.Error(), want)
	}
	for i, r := range ran {
		if !r {
			t.Fatalf("task %d skipped after failure", i)
		}
	}
	if out[8] != 8 {
		t.Fatalf("successful results dropped: out[8] = %d", out[8])
	}
}

// TestStreamEmitsEveryTaskOnce checks the streaming contract: one serialized
// emit per task.
func TestStreamEmitsEveryTaskOnce(t *testing.T) {
	seen := make(map[int]int)
	_, err := runner.StreamCtx(context.Background(), 20, runner.Options{Workers: 5}, func(_ context.Context, i int, _ *core.Simulator) (int, error) {
		return i, nil
	}, func(i int, v int, err error) {
		if err != nil || v != i {
			t.Errorf("task %d: v=%d err=%v", i, v, err)
		}
		seen[i]++ // emit is serialized; no lock needed
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 20 {
		t.Fatalf("emitted %d of 20 tasks", len(seen))
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("task %d emitted %d times", i, n)
		}
	}
}

// TestParallelPooledDigestsMatchSequentialFresh is the runner's bit-identity
// property over real simulations: a batch of harness scenarios executed on
// parallel workers with pooled simulator reuse produces exactly the digests
// a fresh sequential execution produces. It is short-mode friendly so the
// -race CI job exercises the fan-out and the reuse path together.
func TestParallelPooledDigestsMatchSequentialFresh(t *testing.T) {
	const n = 6
	run := func(_ context.Context, i int, sim *core.Simulator) (string, error) {
		spec := harness.Generate(uint64(1000 + i))
		cfg, err := harness.OracleConfig(spec, false)
		if err != nil {
			return "", err
		}
		res, err := sim.Run(cfg)
		if err != nil {
			return "", err
		}
		return harness.Digest(res), nil
	}
	fresh := make([]string, n)
	for i := range fresh {
		d, err := run(context.Background(), i, core.NewSimulator())
		if err != nil {
			t.Fatal(err)
		}
		fresh[i] = d
	}
	for _, workers := range []int{2, runtime.GOMAXPROCS(0) + 2} {
		pooled, _, err := runner.RunCtx(context.Background(), n, runner.Options{Workers: workers}, run)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range fresh {
			if pooled[i] != fresh[i] {
				t.Fatalf("workers=%d: scenario %d diverged: fresh %s, pooled %s", workers, i, fresh[i], pooled[i])
			}
		}
	}
}
