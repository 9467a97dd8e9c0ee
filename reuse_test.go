package gridrealloc_test

// Reuse-equivalence harness: the Reset contract of the pooled simulator says
// a reused Simulator is observationally identical to a fresh one. These
// tests prove it the strong way — per-configuration result digests over the
// full 72-configuration A/B grid on one pooled simulator (so every
// configuration runs on buffers dirtied by a different one), and over a
// sample of randomized harness scenarios whose platforms and capacity
// timelines vary wildly from run to run.

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	gridrealloc "gridrealloc"
	"gridrealloc/internal/core"
	"gridrealloc/internal/harness"
)

// configDigest folds one run into its own hex digest for per-config
// comparison.
func configDigest(cfg gridrealloc.ScenarioConfig, res *gridrealloc.Result) string {
	h := sha256.New()
	digestResult(h, cfg, res)
	return hex.EncodeToString(h.Sum(nil))
}

// TestSimulatorReuseDigest72Grid runs the 72-configuration grid twice — once
// with a fresh simulator per configuration, once on a single pooled
// simulator reused across all 72 — and requires every per-configuration
// digest to match bit-for-bit. The parallel runner path is checked on top:
// RunScenarios with several workers must reproduce the same digests.
func TestSimulatorReuseDigest72Grid(t *testing.T) {
	if testing.Short() {
		t.Skip("replays the 72-configuration grid three times")
	}
	cfgs := abConfigs()
	fresh := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		res, err := gridrealloc.RunScenario(cfg)
		if err != nil {
			t.Fatalf("fresh %s/%s/%s/%s/%s: %v", cfg.Scenario, cfg.Heterogeneity, cfg.Policy, cfg.Algorithm, cfg.Heuristic, err)
		}
		fresh[i] = configDigest(cfg, res)
	}

	pooled := gridrealloc.NewSimulator()
	for i, cfg := range cfgs {
		res, err := pooled.RunScenario(cfg)
		if err != nil {
			t.Fatalf("pooled %s/%s/%s/%s/%s: %v", cfg.Scenario, cfg.Heterogeneity, cfg.Policy, cfg.Algorithm, cfg.Heuristic, err)
		}
		if d := configDigest(cfg, res); d != fresh[i] {
			t.Fatalf("config %d (%s/%s/%s/%s/%s) diverged on the reused simulator:\n  fresh  %s\n  pooled %s",
				i, cfg.Scenario, cfg.Heterogeneity, cfg.Policy, cfg.Algorithm, cfg.Heuristic, fresh[i], d)
		}
	}

	results, err := gridrealloc.RunScenarios(cfgs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		if d := configDigest(cfg, results[i]); d != fresh[i] {
			t.Fatalf("config %d diverged through the parallel runner:\n  fresh  %s\n  runner %s", i, fresh[i], d)
		}
	}
}

// TestSimulatorReuseDigestHarnessSeeds drives one pooled simulator through a
// sample of randomized harness scenarios — platforms of different sizes,
// capacity timelines, policies and algorithms back to back — and compares
// each run's digest against a fresh simulator's. This is the reuse analogue
// of the fuzz oracle's determinism property, pinned to fixed seeds so it
// runs in the default test suite.
func TestSimulatorReuseDigestHarnessSeeds(t *testing.T) {
	pooled := core.NewSimulator()
	for i := 0; i < 24; i++ {
		seed := uint64(9000 + i*31)
		spec := harness.Generate(seed)
		freshCfg, err := harness.OracleConfig(spec, false)
		if err != nil {
			t.Fatal(err)
		}
		freshRes, err := core.Run(freshCfg)
		if err != nil {
			t.Fatalf("seed %d fresh: %v", seed, err)
		}
		pooledCfg, err := harness.OracleConfig(spec, false)
		if err != nil {
			t.Fatal(err)
		}
		pooledRes, err := pooled.Run(pooledCfg)
		if err != nil {
			t.Fatalf("seed %d pooled: %v", seed, err)
		}
		if f, p := harness.Digest(freshRes), harness.Digest(pooledRes); f != p {
			t.Fatalf("seed %d (%s) diverged on the reused simulator:\n  fresh  %s\n  pooled %s", seed, spec, f, p)
		}
	}
}
