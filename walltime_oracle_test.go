package gridrealloc_test

import (
	"fmt"
	"testing"

	gridrealloc "gridrealloc"
)

// TestExactWalltimeChangesNothing is a metamorphic oracle of both
// reallocation algorithms. With every walltime equal to its runtime no job
// finishes early, so planned starts only ever move later: after MCT picked
// a job's cluster, every other cluster's estimate for it can only have
// grown, and no move gains anything. Without capacity windows, Algorithm 1
// under every heuristic and Algorithm 2 under MCT must then make no move
// and reproduce the no-reallocation baseline job for job. (Algorithm 2
// under the other heuristics reorders the queues it re-submits, so it may
// differ.) The property is independent of how the simulator computes its
// estimates: an estimate too low on some cluster shows up as a move.
func TestExactWalltimeChangesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("replays 288 simulations")
	}
	type run struct {
		alg, heur string
	}
	runs := []run{{"none", ""}}
	for _, h := range gridrealloc.HeuristicNames() {
		runs = append(runs, run{"realloc", h})
	}
	runs = append(runs, run{"realloc-cancel", "Mct"})

	var cfgs []gridrealloc.ScenarioConfig
	for _, scenario := range []string{"jan", "apr", "pwa-g5k"} {
		for seed := uint64(42); seed <= 44; seed++ {
			trace, err := gridrealloc.GenerateScenario(scenario, 0.05, seed)
			if err != nil {
				t.Fatal(err)
			}
			for i := range trace.Jobs {
				j := &trace.Jobs[i]
				j.Runtime = max(j.Runtime, 1)
				j.Walltime = j.Runtime
			}
			for _, het := range []string{"homogeneous", "heterogeneous"} {
				for _, policy := range []string{"FCFS", "CBF"} {
					for _, r := range runs {
						cfgs = append(cfgs, gridrealloc.ScenarioConfig{
							Scenario:      scenario,
							Heterogeneity: het,
							Policy:        policy,
							Trace:         trace,
							Seed:          seed,
							Algorithm:     r.alg,
							Heuristic:     r.heur,
						})
					}
				}
			}
		}
	}
	results, err := gridrealloc.RunScenarios(cfgs, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(cfgs); i += len(runs) {
		base := results[i].SortedRecords()
		for k := 1; k < len(runs); k++ {
			cfg, res := cfgs[i+k], results[i+k]
			name := fmt.Sprintf("%s seed %d %s %s %s/%s", cfg.Scenario, cfg.Seed, cfg.Heterogeneity, cfg.Policy, cfg.Algorithm, cfg.Heuristic)
			if res.TotalReallocations != 0 {
				t.Errorf("%s: %d moves with exact walltimes, want 0", name, res.TotalReallocations)
			}
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
}
