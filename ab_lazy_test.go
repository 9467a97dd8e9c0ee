package gridrealloc_test

// Exactness A/B for the lazy ECT sweep: every built-in heuristic declares
// which estimates its Select reads and the reallocation sweep evaluates only
// those. Wrapped in harness.EagerHeuristic the same heuristic is an opaque
// custom heuristic, whose sweeps re-query every stale estimate before each
// Select as the eager ECT matrix did. Both runs must produce bit-identical
// outcomes for all six heuristics under both algorithms and both batch
// policies.

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	gridrealloc "gridrealloc"
	"gridrealloc/internal/core"
	"gridrealloc/internal/harness"
	"gridrealloc/internal/scenario"
)

func TestABDigestLazyECT(t *testing.T) {
	if testing.Short() {
		t.Skip("lazy-vs-eager A/B replays 288 simulations")
	}
	digest := func(cfg gridrealloc.ScenarioConfig, eager bool) string {
		runCfg, err := scenario.BuildRunConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if eager {
			runCfg.Realloc.Heuristic = harness.EagerHeuristic(runCfg.Realloc.Heuristic)
		}
		res, err := core.Run(runCfg)
		if err != nil {
			t.Fatalf("%+v (eager %v): %v", cfg, eager, err)
		}
		h := sha256.New()
		digestResult(h, cfg, res)
		return hex.EncodeToString(h.Sum(nil))
	}
	n := 0
	for _, sc := range []string{"jan", "apr", "pwa-g5k"} {
		for _, het := range []string{"homogeneous", "heterogeneous"} {
			for _, policy := range []string{"FCFS", "CBF"} {
				for _, alg := range []string{"realloc", "realloc-cancel"} {
					for _, h := range core.Heuristics() {
						cfg := gridrealloc.ScenarioConfig{
							Scenario:      sc,
							Heterogeneity: het,
							Policy:        policy,
							TraceFraction: 0.01,
							Algorithm:     alg,
							Heuristic:     h.Name(),
						}
						if lazy, eager := digest(cfg, false), digest(cfg, true); lazy != eager {
							t.Errorf("%s/%s/%s/%s/%s: lazy %s, eager %s", sc, het, policy, alg, h.Name(), lazy, eager)
						}
						n++
					}
				}
			}
		}
	}
	t.Logf("lazy and eager ECT evaluation agree on %d configurations", n)
}
