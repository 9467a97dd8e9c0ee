package gridrealloc_test

// A/B digest harness: runs a 72-configuration grid of simulations and folds
// every per-job outcome into a single SHA-256 digest. Comparing the digest
// across two checkouts (or before/after a refactor) proves bit-identical
// simulation results far more cheaply than archiving full result dumps.
//
//	go test -run TestABDigest -v .
//
// The digest is sensitive to every job's start, completion, cluster,
// reallocation count and kill flag, plus the run-level makespan and
// reallocation totals. It is asserted against abDigest, the fixed point
// every optimisation of the simulator must preserve.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	gridrealloc "gridrealloc"
)

// abConfigs enumerates the 72-configuration grid: 3 scenarios x 2 platform
// variants x 2 batch policies x (baseline + 5 algorithm/heuristic pairs).
func abConfigs() []gridrealloc.ScenarioConfig {
	type algPair struct{ alg, heur string }
	pairs := []algPair{
		{"none", ""},
		{"realloc", "Mct"},
		{"realloc", "MinMin"},
		{"realloc", "MaxGain"},
		{"realloc-cancel", "Mct"},
		{"realloc-cancel", "MinMin"},
	}
	var out []gridrealloc.ScenarioConfig
	for _, scenario := range []string{"jan", "apr", "pwa-g5k"} {
		for _, het := range []string{"homogeneous", "heterogeneous"} {
			for _, policy := range []string{"FCFS", "CBF"} {
				for _, p := range pairs {
					out = append(out, gridrealloc.ScenarioConfig{
						Scenario:      scenario,
						Heterogeneity: het,
						Policy:        policy,
						TraceFraction: 0.01,
						Algorithm:     p.alg,
						Heuristic:     p.heur,
					})
				}
			}
		}
	}
	return out
}

// abDigest is the committed digest of the 72-configuration grid. Only a
// change that legitimately moves simulation outcomes (a trace-generator or
// model change, never an optimisation) may update it, and the update must
// be recorded in CHANGES.md with its reason.
const abDigest = "fcd059c381436fe4e23d3432722f2820c3d707aa68a7b60790323222383ca9de"

// digestResult folds one run's observable outcome into the hash.
func digestResult(h interface{ Write(p []byte) (int, error) }, cfg gridrealloc.ScenarioConfig, res *gridrealloc.Result) {
	fmt.Fprintf(h, "cfg %s/%s/%s/%s/%s\n", cfg.Scenario, cfg.Heterogeneity, cfg.Policy, cfg.Algorithm, cfg.Heuristic)
	fmt.Fprintf(h, "run makespan=%d moves=%d events=%d\n", res.Makespan, res.TotalReallocations, res.ReallocationEvents)
	for _, rec := range res.SortedRecords() {
		fmt.Fprintf(h, "job %d submit=%d start=%d completion=%d cluster=%s procs=%d realloc=%d killed=%v\n",
			rec.JobID, rec.Submit, rec.Start, rec.Completion, rec.Cluster, rec.Procs, rec.Reallocations, rec.Killed)
	}
}

// TestABDigest runs the grid through the campaign runner (pooled simulators,
// one worker per CPU), folds the digest in configuration order so the value
// is independent of completion order and worker count, and checks it
// against abDigest.
func TestABDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("A/B digest replays 72 simulations")
	}
	cfgs := abConfigs()
	results, err := gridrealloc.RunScenarios(cfgs, 0)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for i, cfg := range cfgs {
		digestResult(h, cfg, results[i])
	}
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("A/B digest over %d configurations: %s", len(cfgs), got)
	if got != abDigest {
		t.Fatalf("A/B digest moved:\n got  %s\n want %s", got, abDigest)
	}
}
