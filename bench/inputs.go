package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"time"

	"gridrealloc/internal/workload"
)

// size holds the input sizes of every workload. fullSize is the benchmark;
// smokeSize runs each workload end to end in about a second for tests.
type size struct {
	setupReps int // setups per run; setup_s is their median

	gridFraction float64 // trace fraction of every grid72 scenario
	gridSeeds    int     // trace seeds, each replayed on all 72 configs

	alg2Fraction float64 // trace fraction of the alg2-full April trace
	alg2Runs     int     // jittered traces run back to back per pass

	frontalJobs int           // jobs of the jan trace the script keeps (0: all)
	frontalRef  int           // scripted requests in the reference phase
	frontalStep time.Duration // length of one ladder step
	// frontalRate is the reference rate in requests per second: about a
	// quarter of the max_rps measured on the 2-CPU machine of README.md
	// when the benchmark was defined, a multiple of 500. At half of it the
	// generator and the daemon share the CPUs so closely that the reference
	// p99 swung between 1 and 9 ms from run to run.
	frontalRate float64

	campFraction float64 // trace fraction of every campaign scenario
	campChecked  int     // campaigns that always run; their outputs are checked
}

var fullSize = size{
	setupReps:    7,
	gridFraction: 0.1,
	gridSeeds:    5,
	alg2Fraction: 0.25,
	alg2Runs:     8,
	frontalJobs:  0,
	frontalRef:   20000,
	frontalRate:  5000,
	frontalStep:  time.Second,
	campFraction: 0.01,
	campChecked:  8,
}

var smokeSize = size{
	setupReps:    2,
	gridFraction: 0.01,
	gridSeeds:    1,
	alg2Fraction: 0.01,
	alg2Runs:     2,
	frontalJobs:  1000,
	frontalRef:   2000,
	frontalRate:  4000,
	frontalStep:  150 * time.Millisecond,
	campFraction: 0.01,
	campChecked:  1,
}

// derive mixes the run seed with a label and an index into an independent
// input seed (splitmix64 finalizer over the FNV hash of the label), so every
// generated input traces back to -seed.
func derive(seed uint64, label string, i int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	x := seed ^ h.Sum64() ^ uint64(i+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// baseSeed is the generator seed of the traces grid72 and alg2-full jitter
// (the repository's default scenario seed; grid72 uses baseSeed and the
// seeds after it).
const baseSeed = 42

// runtimeJitter is the relative runtime jitter of those traces.
const runtimeJitter = 0.001

// jitterTrace returns a copy of t whose every runtime is moved by a seeded
// relative amount in [-rel, rel). The reallocation algorithms are chaotic:
// two traces drawn with different generator seeds differ in cost by up to
// 4x (Algorithm 2 on April, measured), and 10 seeds of grid72 drawn that way
// spread jobs_per_s by 17% (interquartile range over median). A 0.1%
// runtime jitter of fixed traces keeps their load and, within about 10% per
// run, their cost, and still gives every seed inputs of its own.
func jitterTrace(t *workload.Trace, seed uint64, rel float64) (*workload.Trace, error) {
	r := rand.New(rand.NewPCG(seed, 0x717e))
	jobs := append([]workload.Job(nil), t.Jobs...)
	for i := range jobs {
		d := int64(float64(jobs[i].Runtime) * rel * (2*r.Float64() - 1))
		if jobs[i].Runtime+d >= 0 {
			jobs[i].Runtime += d
		}
	}
	return workload.NewTrace(t.Name, jobs)
}

// expectedDigests is the committed seed-42 output of every checked workload:
// the SHA-256 fold over its outputs and each output's digest prefix, in the
// workload's output order. Regenerate an entry with -digests.
//
//go:embed digests.json
var expectedDigestsJSON []byte

type digestEntry struct {
	Fold    string   `json:"fold"`
	Outputs []string `json:"outputs"`
}

// checkedSeed is the seed whose outputs digests.json commits.
const checkedSeed = 42

// fold hashes labelled output digests, in order, into one hex digest.
func fold(labels, digests []string) string {
	h := sha256.New()
	for i := range digests {
		fmt.Fprintf(h, "%s %s\n", labels[i], digests[i])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// prefixLen is how much of each output digest digests.json keeps: enough to
// tell any two runs apart, short enough to keep the file small.
const prefixLen = 16

func prefix(d string) string {
	if len(d) > prefixLen {
		return d[:prefixLen]
	}
	return d
}

// checkDigests prints the fold of the phase's outputs for any seed, and for
// the checked seed compares every output with digests.json, naming the
// first one that differs.
func checkDigests(e *env, name string, out *phaseOut) []string {
	if len(out.digests) == 0 {
		return nil
	}
	f := fold(out.labels, out.digests)
	fmt.Fprintf(e.out, "digest %s seed=%d outputs=%d fold=%s\n", name, e.seed, len(out.digests), f)
	if e.printDigests {
		entry := digestEntry{Fold: f, Outputs: make([]string, len(out.digests))}
		for i, d := range out.digests {
			entry.Outputs[i] = prefix(d)
		}
		b, err := json.Marshal(map[string]digestEntry{name: entry})
		if err == nil {
			fmt.Fprintf(e.out, "digests.json entry: %s\n", b)
		}
	}
	if e.seed != checkedSeed || e.size != fullSize {
		return nil
	}
	var all map[string]digestEntry
	if err := json.Unmarshal(expectedDigestsJSON, &all); err != nil {
		return []string{fmt.Sprintf("digests.json: %v", err)}
	}
	want, ok := all[name]
	if !ok {
		return []string{fmt.Sprintf("digests.json has no entry for %s", name)}
	}
	for i, d := range out.digests {
		if i >= len(want.Outputs) {
			break
		}
		if prefix(d) != want.Outputs[i] {
			return []string{fmt.Sprintf("output %d (%s) differs from digests.json: got %s, want %s",
				i, out.labels[i], prefix(d), want.Outputs[i])}
		}
	}
	if len(out.digests) != len(want.Outputs) {
		return []string{fmt.Sprintf("%d outputs, digests.json has %d", len(out.digests), len(want.Outputs))}
	}
	if f != want.Fold {
		return []string{fmt.Sprintf("fold %s differs from digests.json %s", f, want.Fold)}
	}
	return nil
}
