// Command gridfuzz fans randomized scenarios over a worker pool and runs
// the internal/harness invariant oracle on each: digest determinism,
// verification neutrality, lazy == eager sweeps, incremental-vs-from-scratch
// profile consistency, capacity-ceiling reservations, queue seniority, job
// conservation, SWF round-trips and zero-capacity inertness, over random
// traces, random 1–16 cluster platforms and multi-window capacity
// timelines.
//
// Scenario seeds are derived from -seed so that the i-th scenario's seed is
// congruent to i modulo 72; the generator maps that residue onto the full
// (policy, algorithm, heuristic, outage policy) grid, so any run of at
// least 72 scenarios covers every combination at least once — and the run
// fails if it somehow does not.
//
// -faults switches to the fault-injection oracle: a seeded fault plan
// (panics, transient errors, slow tasks, poisoned simulators) is installed
// into the campaign runner's workers and the harness asserts the campaign
// degrades gracefully — non-faulted scenarios stay bit-identical to a
// fault-free run, transient retries converge, quarantined simulators never
// re-enter the pool, and no goroutines leak.
//
// Examples:
//
//	gridfuzz -n 500 -seed 42 -parallel 8
//	gridfuzz -replay 6490219575032832022    # re-run one failing scenario
//	gridfuzz -faults 50 -seed 42            # fault-injection campaign
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"syscall"

	"gridrealloc/internal/cli"
	"gridrealloc/internal/core"
	"gridrealloc/internal/harness"
	"gridrealloc/internal/runner"
)

func main() {
	// SIGINT or SIGTERM cancels the campaign context: in-flight scenarios
	// finish, the summary (and the lowest failing seed, if any scenario failed)
	// still prints, and the process exits non-zero.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := runCtx(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gridfuzz:", err)
		os.Exit(1)
	}
}

// scenarioSeed derives the i-th scenario seed from the base seed. The value
// is mixed through SplitMix64 so scenarios are unrelated, then snapped to
// the residue i mod 72 that selects the configuration-grid entry — the seed
// alone still reproduces the whole scenario (gridfuzz -replay <seed>).
func scenarioSeed(base uint64, i int) uint64 {
	combos := uint64(len(harness.Combos()))
	x := base + 0x9e3779b97f4a7c15*uint64(i+1)
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	z -= z % combos
	if z > math.MaxUint64-(combos-1) {
		z -= combos
	}
	return z + uint64(i)%combos
}

// failure records one oracle violation.
type failure struct {
	index int
	seed  uint64
	spec  string
	err   error
}

// run executes the fuzz campaign without cancellation (the test-suite entry
// point).
func run(args []string, stdout io.Writer) error {
	return runCtx(context.Background(), args, stdout)
}

// runCtx executes the fuzz campaign against the given writer; a failed
// write (full disk, closed pipe) surfaces as an error so main exits
// non-zero instead of reporting a green run nobody saw. Cancelling ctx
// (SIGINT) stops the campaign after the in-flight scenarios finish; the
// coverage summary and the lowest failing seed found so far still print.
func runCtx(ctx context.Context, args []string, stdout io.Writer) error {
	out := cli.NewErrWriter(stdout)
	fs := flag.NewFlagSet("gridfuzz", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		n        = fs.Int("n", 500, "number of random scenarios to generate and check")
		seed     = fs.Uint64("seed", 42, "base seed; scenario i derives its own seed from it")
		parallel = fs.Int("parallel", runtime.NumCPU(), "worker pool size (each worker checks whole scenarios)")
		replay   = fs.String("replay", "", "re-run the single scenario with this exact seed and exit")
		faults   = fs.Int("faults", 0, "run the fault-injection oracle instead: inject this many seeded faults into a campaign of -n scenarios")
		verbose  = fs.Bool("v", false, "print every scenario, not just failures and the summary")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The replay flag is a string so that every uint64 is a replayable seed
	// — 0 included (it sits in the committed fuzz corpus); a numeric flag's
	// zero value would be indistinguishable from "not set".
	if *replay != "" {
		seed, err := strconv.ParseUint(*replay, 10, 64)
		if err != nil {
			return fmt.Errorf("-replay wants a decimal uint64 seed: %w", err)
		}
		spec := harness.Generate(seed)
		fmt.Fprintf(out, "replaying %s\n", spec)
		if err := harness.Check(spec); err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		fmt.Fprintf(out, "seed %d: all oracle invariants hold\n", seed)
		return out.Err()
	}
	if *n <= 0 {
		return fmt.Errorf("-n must be positive, got %d", *n)
	}
	if *parallel <= 0 {
		*parallel = 1
	}
	if *faults > 0 {
		return runFaults(out, *seed, *n, *faults, *parallel)
	}

	var (
		failures                                 []failure
		combos                                   = make(map[string]int)
		multiWin, hetero, withWindows, totalJobs int
	)
	workers := *parallel
	if workers > *n {
		workers = *n
	}
	// The campaign fans out over the shared grid runner: each worker owns a
	// pooled simulator that every oracle run of every scenario it checks
	// reuses, and outcomes stream into the aggregation as they complete.
	type outcome struct {
		seed uint64
		spec *harness.Spec
		err  error
	}
	stats, cerr := runner.StreamCtx(ctx, *n, runner.Options{Workers: workers},
		func(_ context.Context, i int, sim *core.Simulator) (outcome, error) {
			s := scenarioSeed(*seed, i)
			spec := harness.Generate(s)
			return outcome{seed: s, spec: spec, err: harness.CheckOn(sim, spec)}, nil
		},
		func(i int, o outcome, _ error) {
			spec := o.spec
			combos[spec.Combo.String()]++
			if spec.CapacityWindows >= 2 {
				multiWin++
			}
			if spec.CapacityWindows >= 1 {
				withWindows++
			}
			if spec.Heterogeneous {
				hetero++
			}
			totalJobs += spec.Trace.Len()
			if o.err != nil {
				failures = append(failures, failure{index: i, seed: o.seed, spec: spec.String(), err: o.err})
				fmt.Fprintf(out, "FAIL #%d %s\n  %v\n", i, spec, o.err)
			} else if *verbose {
				fmt.Fprintf(out, "ok   #%d %s\n", i, spec)
			}
		})

	grid := harness.Combos()
	missing := make([]string, 0)
	for _, c := range grid {
		if combos[c.String()] == 0 {
			missing = append(missing, c.String())
		}
	}
	checked := int(stats.Completed + stats.Failed)
	fmt.Fprintf(out, "checked %d scenarios (base seed %d, %d workers, %d jobs total)\n",
		checked, *seed, workers, totalJobs)
	fmt.Fprintf(out, "coverage: %d/%d config combinations, %d heterogeneous platforms, %d with capacity windows (%d with >= 2)\n",
		len(grid)-len(missing), len(grid), hetero, withWindows, multiWin)

	if len(failures) > 0 {
		sort.Slice(failures, func(a, b int) bool { return failures[a].index < failures[b].index })
		first := failures[0]
		return fmt.Errorf("%d scenario(s) failed; first (minimal) failing seed: %d at index %d — reproduce with: gridfuzz -replay %d\n  %s\n  %v",
			len(failures), first.seed, first.index, first.seed, first.spec, first.err)
	}
	if cerr != nil {
		// A cancelled campaign cannot claim grid coverage; report what ran
		// (the failure path above already printed the lowest failing seed).
		if errors.Is(cerr, context.Canceled) {
			return fmt.Errorf("interrupted after %d of %d scenarios (%d skipped); no oracle violations in the scenarios that ran",
				checked, *n, stats.Skipped)
		}
		return cerr
	}
	if *n >= len(grid) && len(missing) > 0 {
		return fmt.Errorf("%d scenarios should cover all %d config combinations but %d are missing (generator bug): %v",
			*n, len(grid), len(missing), missing)
	}
	// The interesting-region counters are drawn with probabilities that make
	// zero hits over a grid-sized campaign statistically impossible
	// (heterogeneous platforms ~55%, multi-window timelines ~30% per
	// scenario); an empty count there means the generator regressed, not
	// that the dice were unlucky.
	if *n >= len(grid) {
		if hetero == 0 {
			return fmt.Errorf("%d scenarios produced no heterogeneous platform (generator bug)", *n)
		}
		if multiWin == 0 {
			return fmt.Errorf("%d scenarios produced none with >= 2 capacity windows (generator bug)", *n)
		}
	}
	fmt.Fprintln(out, "all oracle invariants hold")
	return out.Err()
}

// runFaults executes the fault-injection oracle mode (-faults): inject
// `faults` seeded faults into a campaign of n scenarios and assert the
// runner degrades gracefully (see harness.CheckFaultTolerance). The seed
// reproduces the exact same fault plan, so a red run is replayed with the
// same flags.
func runFaults(out *cli.ErrWriter, seed uint64, n, faults, parallel int) error {
	report, err := harness.CheckFaultTolerance(harness.FaultCampaignConfig{
		Seed:      seed,
		Scenarios: n,
		Faulted:   faults,
		Workers:   parallel,
	})
	if err != nil {
		return fmt.Errorf("fault-injection campaign (seed %d, %d scenarios, %d faults): %w", seed, n, faults, err)
	}
	s := report.Stats
	fmt.Fprintf(out, "fault campaign: %d scenarios, %d injected faults (seed %d): %d panics, %d transients, %d slow, %d poisoned resets\n",
		report.Scenarios, report.Faulted, seed, report.Panics, report.Transients, report.Slows, report.Poisons)
	fmt.Fprintf(out, "runner degraded gracefully: %d completed, %d failed, %d panics recovered, %d retries, %d timeouts, %d simulators quarantined\n",
		s.Completed, s.Failed, s.RecoveredPanics, s.Retries, s.Timeouts, s.DiscardedSims)
	fmt.Fprintln(out, "all fault-tolerance invariants hold")
	return out.Err()
}
