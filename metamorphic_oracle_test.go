package gridrealloc_test

import (
	"context"
	"fmt"
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
