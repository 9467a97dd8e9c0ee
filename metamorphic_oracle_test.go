package gridrealloc_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"gridrealloc/internal/core"
	"gridrealloc/internal/runner"
	"gridrealloc/internal/scenario"
	"gridrealloc/internal/workload"
)

// TestReallocationOutOfReachChangesNothing is a metamorphic oracle of both
// reallocation algorithms: when the mechanism can never act, a run must
// reproduce the no-reallocation baseline job for job. Two settings put it
// out of reach:
//
//   - a reallocation period longer than the baseline makespan: the first
//     reallocation event falls after the last job finished, so neither
//     algorithm, under any heuristic, gets a pass with a waiting job;
//   - Algorithm 1 with a minimum gain longer than the baseline makespan:
//     passes run, but no move can improve a completion time by that much.
//
// Both properties follow from the paper's definitions alone, so they hold
// however the simulator computes its estimates.
func TestReallocationOutOfReachChangesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("replays 684 simulations")
	}
	var bases []scenario.Config
	for _, sc := range []string{"jan", "apr", "pwa-g5k"} {
		for seed := uint64(42); seed <= 44; seed++ {
			trace, err := workload.Scenario(workload.ScenarioName(sc), 0.05, seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, het := range []string{"homogeneous", "heterogeneous"} {
				for _, policy := range []string{"FCFS", "CBF"} {
					bases = append(bases, scenario.Config{
						Scenario:      sc,
						Heterogeneity: het,
						Policy:        policy,
						Trace:         trace,
						Seed:          seed,
						Algorithm:     "none",
					})
				}
			}
		}
	}
	baseline := runConfigs(t, bases)

	type variant struct {
		base int
		cfg  scenario.Config
	}
	var variants []variant
	for i, base := range bases {
		beyond := baseline[i].Makespan + 1
		for _, h := range core.Heuristics() {
			for _, alg := range []string{"realloc", "realloc-cancel"} {
				cfg := base
				cfg.Algorithm, cfg.Heuristic, cfg.ReallocPeriodSeconds = alg, h.Name(), beyond
				variants = append(variants, variant{i, cfg})
			}
			cfg := base
			cfg.Algorithm, cfg.Heuristic, cfg.MinGainSeconds = "realloc", h.Name(), beyond
			variants = append(variants, variant{i, cfg})
		}
	}
	cfgs := make([]scenario.Config, len(variants))
	for i, v := range variants {
		cfgs[i] = v.cfg
	}
	results := runConfigs(t, cfgs)

	for i, v := range variants {
		cfg, res := v.cfg, results[i]
		name := fmt.Sprintf("%s seed %d %s %s %s/%s period %d min-gain %d", cfg.Scenario, cfg.Seed,
			cfg.Heterogeneity, cfg.Policy, cfg.Algorithm, cfg.Heuristic, cfg.ReallocPeriodSeconds, cfg.MinGainSeconds)
		if res.TotalReallocations != 0 {
			t.Errorf("%s: %d moves, want 0", name, res.TotalReallocations)
		}
		base := baseline[v.base].SortedRecords()
		recs := res.SortedRecords()
		if len(recs) != len(base) {
			t.Errorf("%s: %d records, baseline %d", name, len(recs), len(base))
			continue
		}
		for n, r := range recs {
			b := base[n]
			if r.JobID != b.JobID || r.Start != b.Start || r.Completion != b.Completion ||
				r.Cluster != b.Cluster || r.Reallocations != b.Reallocations || r.Killed != b.Killed {
				t.Errorf("%s: job %d ran %+v, baseline %+v", name, r.JobID, r, b)
				break
			}
		}
	}
}

// runConfigs resolves every configuration with scenario.BuildRunConfig and
// runs them as one campaign on pooled simulators.
func runConfigs(t *testing.T, cfgs []scenario.Config) []*core.Result {
	t.Helper()
	results, _, err := runner.RunCtx(context.Background(), len(cfgs), runner.Options{},
		func(_ context.Context, i int, sim *core.Simulator) (*core.Result, error) {
			runCfg, err := scenario.BuildRunConfig(cfgs[i])
			if err != nil {
				return nil, err
			}
			return sim.Run(runCfg)
		})
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// TestSubmissionShiftShiftsEverything is a metamorphic oracle of time
// invariance: shifting every submission by a multiple of the reallocation
// period, with no capacity windows, shifts every start and completion by
// the same amount and changes nothing else. The reallocation clock starts
// one period after the first submission, so the shifted run sees the same
// passes at the same relative instants; nothing in the model reads absolute
// time. It covers both algorithms under MCT and MinMin and the baseline, on
// jan, apr and pwa-g5k, both platforms, FCFS and CBF.
func TestSubmissionShiftShiftsEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("replays 360 simulations")
	}
	const shift = 5 * core.DefaultReallocationPeriod
	type run struct {
		alg, heur string
	}
	runs := []run{{"none", ""}}
	for _, alg := range []string{"realloc", "realloc-cancel"} {
		for _, h := range []string{"Mct", "MinMin"} {
			runs = append(runs, run{alg, h})
		}
	}
	var cfgs []scenario.Config
	for _, sc := range []string{"jan", "apr", "pwa-g5k"} {
		for seed := uint64(42); seed <= 44; seed++ {
			trace, err := workload.Scenario(workload.ScenarioName(sc), 0.05, seed)
			if err != nil {
				t.Fatal(err)
			}
			shifted := &workload.Trace{Name: trace.Name, Jobs: slices.Clone(trace.Jobs)}
			for i := range shifted.Jobs {
				shifted.Jobs[i].Submit += shift
			}
			for _, het := range []string{"homogeneous", "heterogeneous"} {
				for _, policy := range []string{"FCFS", "CBF"} {
					for _, r := range runs {
						for _, tr := range []*workload.Trace{trace, shifted} {
							cfgs = append(cfgs, scenario.Config{
								Scenario:      sc,
								Heterogeneity: het,
								Policy:        policy,
								Trace:         tr,
								Seed:          seed,
								Algorithm:     r.alg,
								Heuristic:     r.heur,
							})
						}
					}
				}
			}
		}
	}
	results := runConfigs(t, cfgs)
	var moves int64
	for i := 0; i < len(cfgs); i += 2 {
		cfg, base, res := cfgs[i], results[i], results[i+1]
		moves += base.TotalReallocations
		name := fmt.Sprintf("%s seed %d %s %s %s/%s", cfg.Scenario, cfg.Seed,
			cfg.Heterogeneity, cfg.Policy, cfg.Algorithm, cfg.Heuristic)
		if res.TotalReallocations != base.TotalReallocations {
			t.Errorf("%s: %d moves shifted, %d unshifted", name, res.TotalReallocations, base.TotalReallocations)
		}
		want, got := base.SortedRecords(), res.SortedRecords()
		if len(got) != len(want) {
			t.Errorf("%s: %d records shifted, %d unshifted", name, len(got), len(want))
			continue
		}
		for n, r := range got {
			w := *want[n]
			w.Submit += shift
			if w.Start >= 0 {
				w.Start += shift
			}
			if w.Completion >= 0 {
				w.Completion += shift
			}
			if *r != w {
				t.Errorf("%s: job %d ran %+v shifted, want %+v", name, r.JobID, *r, w)
				break
			}
		}
	}
	if moves == 0 {
		t.Fatal("no run moved a job; the shift leaves the reallocation mechanism untested")
	}
}
