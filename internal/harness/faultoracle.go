package harness

import (
	"context"
	"errors"
	"fmt"
	"time"

	"gridrealloc/internal/core"
	"gridrealloc/internal/faultinject"
	"gridrealloc/internal/leakcheck"
	"gridrealloc/internal/runner"
)

// FaultCampaignConfig parameterises one fault-tolerance oracle campaign.
// Zero values select defaults suitable for CI smoke runs.
type FaultCampaignConfig struct {
	// Seed derives both the scenario specs and the fault plan; the same
	// seed reproduces the exact same faulted campaign.
	Seed uint64
	// Scenarios is the campaign size (default 72, one pass over the
	// configuration grid's worth of scenarios).
	Scenarios int
	// Faulted is how many task indexes carry an injected fault (default
	// max(4, Scenarios/8) so every fault kind appears).
	Faulted int
	// Workers bounds the campaign pool (default one per CPU).
	Workers int
	// TaskTimeout is the per-task deadline slow faults run into. The
	// default (2s) is two orders of magnitude above a harness scenario's
	// normal runtime, so legitimate tasks never trip it, while each Slow
	// fault burns exactly one deadline.
	TaskTimeout time.Duration
	// MaxRetries bounds transient-fault retries (default 3, enough for
	// every planned transient to converge).
	MaxRetries int
}

func (c FaultCampaignConfig) withDefaults() FaultCampaignConfig {
	if c.Scenarios <= 0 {
		c.Scenarios = 72
	}
	if c.Faulted <= 0 {
		c.Faulted = c.Scenarios / 8
		if c.Faulted < 4 {
			c.Faulted = 4
		}
	}
	if c.Faulted > c.Scenarios {
		c.Faulted = c.Scenarios
	}
	if c.TaskTimeout <= 0 {
		c.TaskTimeout = 2 * time.Second
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 3
	}
	return c
}

// FaultReport summarises a passed fault-tolerance campaign.
type FaultReport struct {
	// Scenarios and Faulted echo the effective campaign shape.
	Scenarios int
	Faulted   int
	// Panics, Transients, Slows, Poisons break the injected faults down by
	// kind.
	Panics, Transients, Slows, Poisons int
	// Stats is the faulted campaign's RunStats (they matched the plan's
	// expectation exactly, or Check would have failed).
	Stats runner.RunStats
	// CancelStats is the RunStats of the cancellation leg (a fault-free
	// rerun cancelled after its first completed task).
	CancelStats runner.RunStats
}

// faultSeed derives the i-th scenario seed of a fault campaign. SplitMix64
// mixing keeps scenarios unrelated; unlike gridfuzz's residue-snapped
// derivation there is no grid-coverage constraint here, the faults are the
// point.
func faultSeed(base uint64, i int) uint64 {
	z := base + 0x9e3779b97f4a7c15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// CheckFaultTolerance is the harness's fault-injection oracle mode: it runs
// one campaign of random scenarios through the runner under a seeded fault
// plan and asserts graceful degradation end to end —
//
//   - non-faulted scenarios produce digests bit-identical to a fault-free
//     campaign (in particular, tasks after a quarantined simulator run on a
//     clean replacement: a poisoned simulator that re-entered the pool
//     would diverge here);
//   - transient faults converge: their tasks retry and still produce the
//     fault-free digest;
//   - panicking and poisoning tasks fail with a structured
//     *runner.TaskError carrying the scenario seed and (for panics) the
//     stack; slow tasks fail with the per-task deadline;
//   - the campaign's RunStats match the plan's expectation exactly,
//     counter for counter;
//   - no goroutine leaks: the pool drains completely, both after the
//     faulted campaign and after a cancelled rerun (which must also emit
//     only bit-identical results for the tasks it completed).
//
// The returned FaultReport summarises what was injected and observed; any
// violated property is returned as an error naming it.
func CheckFaultTolerance(cfg FaultCampaignConfig) (FaultReport, error) {
	cfg = cfg.withDefaults()
	n := cfg.Scenarios
	specs := make([]*Spec, n)
	for i := range specs {
		specs[i] = Generate(faultSeed(cfg.Seed, i))
	}
	task := func(ctx context.Context, i int, sim *core.Simulator) (string, error) {
		runCfg, err := OracleConfig(specs[i], false)
		if err != nil {
			return "", err
		}
		res, err := sim.Run(runCfg)
		if err != nil {
			return "", err
		}
		// The incremental digest was folded during the run; no record
		// post-pass. Poisoned-reset perturbations stay visible because the
		// fold is sealed after the quarantine bump.
		return res.Digest(), nil
	}

	// Fault-free reference campaign on the same pooled runner: the digests
	// every non-faulted (and every converged transient) task must hit.
	baseOpts := runner.Options{Workers: cfg.Workers}
	want, _, err := runner.RunCtx(context.Background(), n, baseOpts, task)
	if err != nil {
		return FaultReport{}, fmt.Errorf("fault-free reference campaign: %w", err)
	}

	plan := faultinject.NewPlan(cfg.Seed, n, cfg.Faulted)
	report := FaultReport{
		Scenarios:  n,
		Faulted:    len(plan.FaultedIndexes()),
		Panics:     plan.CountByKind(faultinject.Panic),
		Transients: plan.CountByKind(faultinject.Transient),
		Slows:      plan.CountByKind(faultinject.Slow),
		Poisons:    plan.CountByKind(faultinject.PoisonReset),
	}

	snap := leakcheck.Take()
	opts := runner.Options{
		Workers:      cfg.Workers,
		TaskTimeout:  cfg.TaskTimeout,
		MaxRetries:   cfg.MaxRetries,
		RetryBackoff: time.Millisecond,
		SeedOf:       func(i int) uint64 { return specs[i].Seed },
		Hook:         plan,
	}
	got := make([]string, n)
	taskErrs := make([]error, n)
	stats, cerr := runner.StreamCtx(context.Background(), n, opts, task,
		func(i int, d string, err error) {
			got[i] = d
			taskErrs[i] = err
		})
	if cerr != nil {
		return report, fmt.Errorf("faulted campaign was cancelled unexpectedly: %w", cerr)
	}
	report.Stats = stats

	for i := 0; i < n; i++ {
		f := plan.Fault(i)
		switch f.Kind {
		case faultinject.None, faultinject.Transient:
			// Transients must converge within MaxRetries (the plan draws
			// Failures <= MaxRetries), so both classes end bit-identical.
			if taskErrs[i] != nil {
				return report, fmt.Errorf("task %d (%s fault, seed %d) failed instead of completing: %w",
					i, f.Kind, specs[i].Seed, taskErrs[i])
			}
			if got[i] != want[i] {
				return report, fmt.Errorf("task %d (%s fault, seed %d) diverged from the fault-free campaign:\n  fault-free %s\n  faulted    %s",
					i, f.Kind, specs[i].Seed, want[i], got[i])
			}
		case faultinject.Panic, faultinject.PoisonReset:
			var te *runner.TaskError
			if !errors.As(taskErrs[i], &te) {
				return report, fmt.Errorf("task %d (%s fault) did not fail with a *runner.TaskError: %v",
					i, f.Kind, taskErrs[i])
			}
			if !errors.Is(te, runner.ErrTaskPanic) {
				return report, fmt.Errorf("task %d (%s fault) error does not wrap ErrTaskPanic: %v", i, f.Kind, te)
			}
			if te.Index != i || te.Seed != specs[i].Seed {
				return report, fmt.Errorf("task %d (%s fault): TaskError carries index %d seed %d, want index %d seed %d",
					i, f.Kind, te.Index, te.Seed, i, specs[i].Seed)
			}
			if te.Stack == "" {
				return report, fmt.Errorf("task %d (%s fault): recovered panic lost its stack", i, f.Kind)
			}
		case faultinject.Slow:
			if !errors.Is(taskErrs[i], context.DeadlineExceeded) {
				return report, fmt.Errorf("task %d (slow fault) did not fail with the task deadline: %v", i, taskErrs[i])
			}
		}
	}

	if expect := plan.Expected(cfg.MaxRetries); stats != expect {
		return report, fmt.Errorf("RunStats do not match the injected plan:\n  expected %+v\n  observed %+v", expect, stats)
	}
	if err := snap.Check(); err != nil {
		return report, fmt.Errorf("after faulted campaign: %w", err)
	}

	// Cancellation leg: a fault-free rerun cancelled as soon as its first
	// task completes. Whatever subset finishes must still be bit-identical,
	// the stats must account for every task, and the pool must drain
	// without leaking a goroutine.
	snap = leakcheck.Take()
	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cancelErr error
	cstats, cerr := runner.StreamCtx(cctx, n, baseOpts, task,
		func(i int, d string, err error) {
			cancel()
			if err != nil && cancelErr == nil {
				cancelErr = fmt.Errorf("cancelled campaign: task %d failed: %w", i, err)
			}
			if err == nil && d != want[i] && cancelErr == nil {
				cancelErr = fmt.Errorf("cancelled campaign: task %d diverged:\n  fault-free %s\n  cancelled  %s", i, want[i], d)
			}
		})
	if cancelErr != nil {
		return report, cancelErr
	}
	if !errors.Is(cerr, context.Canceled) {
		return report, fmt.Errorf("cancelled campaign did not report cancellation: %v", cerr)
	}
	if total := cstats.Completed + cstats.Failed + cstats.Skipped; total != int64(n) {
		return report, fmt.Errorf("cancelled campaign lost tasks: completed %d + failed %d + skipped %d != %d",
			cstats.Completed, cstats.Failed, cstats.Skipped, n)
	}
	if cstats.Failed != 0 {
		return report, fmt.Errorf("cancelled fault-free campaign failed %d tasks", cstats.Failed)
	}
	report.CancelStats = cstats
	if err := snap.Check(); err != nil {
		return report, fmt.Errorf("after cancelled campaign: %w", err)
	}
	return report, nil
}
