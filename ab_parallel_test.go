package gridrealloc_test

// Determinism A/B for the parallel reallocation sweep: the same
// 72-configuration grid as TestABDigest, replayed once with the per-cluster
// fan-out forced off and once forced on for every sweep size, through each
// run's ReallocConfig.SweepWorkers and SweepThreshold. The two digests must
// be bit-identical — the fan-out is a wall-clock optimisation with an
// order-independent merge, never a behavioural change.

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"gridrealloc/internal/core"
	"gridrealloc/internal/scenario"
)

func TestABDigestParallelSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel determinism A/B replays 144 simulations")
	}
	digest := func(label string, workers, threshold int) string {
		h := sha256.New()
		for _, cfg := range abConfigs() {
			runCfg, err := scenario.BuildRunConfig(cfg)
			if err != nil {
				t.Fatal(err)
			}
			runCfg.Realloc.SweepWorkers = workers
			runCfg.Realloc.SweepThreshold = threshold
			res, err := core.Run(runCfg)
			if err != nil {
				t.Fatalf("%s %s/%s/%s/%s/%s: %v", label, cfg.Scenario, cfg.Heterogeneity, cfg.Policy, cfg.Algorithm, cfg.Heuristic, err)
			}
			digestResult(h, cfg, res)
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	seq := digest("sequential", 1, 0)
	par := digest("parallel", 8, 1)
	if seq != par {
		t.Fatalf("parallel sweep diverged from sequential:\nsequential %s\nparallel   %s", seq, par)
	}
	t.Logf("parallel sweep digest over %d configurations matches sequential: %s", len(abConfigs()), seq)
}
