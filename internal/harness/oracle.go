package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"gridrealloc/internal/batch"
	"gridrealloc/internal/core"
	"gridrealloc/internal/workload"
)

// Digest folds a run's complete observable outcome — every job's submit,
// start, completion, cluster, width, reallocation/requeue counts and kill
// flag, plus the run-level totals — into one hex SHA-256. Two runs are
// considered identical exactly when their digests match.
//
// This is the post-pass formulation: it walks and formats the sorted
// records after the run. The campaign oracle (CheckOn) compares the
// incremental core.Result.Digest instead, which the event loop folds as
// records become final; Digest stays as the independent reference the
// oracle cross-checks against and as the digest for hand-built or mutated
// Results (see TestDigestSensitivity), which never pass through a run's
// incremental fold.
func Digest(res *core.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "run makespan=%d moves=%d events=%d kills=%d requeues=%d\n",
		res.Makespan, res.TotalReallocations, res.ReallocationEvents, res.OutageKills, res.OutageRequeues)
	for _, rec := range res.SortedRecords() {
		fmt.Fprintf(h, "job %d submit=%d start=%d completion=%d cluster=%s procs=%d realloc=%d requeues=%d killed=%v\n",
			rec.JobID, rec.Submit, rec.Start, rec.Completion, rec.Cluster, rec.Procs, rec.Reallocations, rec.Requeues, rec.Killed)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// config assembles the core configuration for one oracle run of the spec.
// Each run needs its own config: a MappingPolicy instance is stateful (the
// Random policy owns an RNG, RoundRobin a cursor), so reusing one across
// runs would make the second run legitimately different — the first
// "non-determinism" this harness ever flagged was exactly that mistake.
func (s *Spec) config(verify bool) (core.Config, error) {
	heur, err := core.HeuristicByName(s.Combo.Heuristic)
	if err != nil {
		return core.Config{}, err
	}
	mapping, err := core.MappingByName(s.MappingName, s.Seed)
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		Platform: s.Platform,
		Policy:   s.Combo.Policy,
		Trace:    s.Trace,
		Mapping:  mapping,
		Realloc: core.ReallocConfig{
			Algorithm: s.Combo.Algorithm,
			Heuristic: heur,
			Period:    s.ReallocPeriod,
			MinGain:   s.MinGain,
		},
		OutagePolicy:     s.Combo.OutagePolicy,
		ClampOversized:   true,
		VerifyInvariants: verify,
	}, nil
}

// OracleConfig assembles the core configuration one oracle run of the spec
// uses: the generated trace and platform, the spec's discrete combo, a fresh
// mapping-policy instance (stateful policies must not leak between runs)
// and the invariant-verification switch. The runner and reuse-equivalence
// tests use it to replay harness scenarios outside the full oracle.
func OracleConfig(s *Spec, verify bool) (core.Config, error) {
	return s.config(verify)
}

// eagerHeuristic embeds a heuristic and nothing else, so it exposes only
// the public core.Heuristic methods: the sweep cannot see which estimates
// a wrapped built-in reads and materialises all of them.
type eagerHeuristic struct{ core.Heuristic }

// EagerHeuristic wraps h so that reallocation sweeps treat it as a custom
// heuristic: every estimate is brought up to date before each Select. A run
// with the wrapped heuristic is the eager reference the lazy evaluation of
// the built-ins must reproduce bit for bit.
func EagerHeuristic(h core.Heuristic) core.Heuristic { return eagerHeuristic{h} }

// Check runs the spec through the full simulator and verifies the oracle's
// whole battery of invariants (see the package comment). It returns nil
// when every property holds, and a descriptive error naming the first
// violated property otherwise.
func Check(s *Spec) error {
	return CheckOn(core.NewSimulator(), s)
}

// CheckOn is Check running every oracle simulation on the given pooled
// simulator, the form the campaign runner uses: one simulator per worker,
// reused across all scenarios the worker checks. The reference run executes
// on a fresh simulator while every follow-up run reuses sim, so the
// determinism comparison doubles as a fresh-vs-reused equivalence check on
// every scenario the fuzz campaign draws.
func CheckOn(sim *core.Simulator, s *Spec) error {
	if err := checkSWFRoundTrip(s.Trace); err != nil {
		return fmt.Errorf("swf round-trip: %w", err)
	}

	// Reference run: scheduler invariants verified after every reallocation
	// pass, at every capacity-window boundary, and at the end (incremental
	// profile == from-scratch rebuild, reservations under the capacity
	// ceiling, FCFS/seniority queue ordering). Deliberately run on a fresh
	// simulator so the reused runs below are compared against an unpooled
	// reference.
	refCfg, err := s.config(true)
	if err != nil {
		return err
	}
	ref, err := core.Run(refCfg)
	if err != nil {
		return fmt.Errorf("verified run: %w", err)
	}
	// All digest comparisons below use the incremental digest the event loop
	// folded during the run — no post-pass over the records. Its trust
	// anchor is this one reference-run cross-check: the recomputed fold must
	// match the lanes accumulated live (a record folded early, twice or
	// never shows up here), so equality of incremental digests downstream
	// carries the same weight as equality of post-pass digests.
	if err := ref.VerifyDigest(); err != nil {
		return fmt.Errorf("incremental digest self-check: %w", err)
	}
	refDigest := ref.Digest()

	if err := checkConservation(s, ref); err != nil {
		return fmt.Errorf("job conservation: %w", err)
	}

	// Determinism and reuse equivalence: the same configuration must
	// reproduce the digest bit-for-bit on the pooled simulator, whatever
	// earlier scenarios left in its buffers. The config is rebuilt rather
	// than reused, so the stateful mapping policy starts from its seed
	// again.
	againCfg, err := s.config(true)
	if err != nil {
		return err
	}
	again, err := sim.Run(againCfg)
	if err != nil {
		return fmt.Errorf("repeated run (pooled simulator): %w", err)
	}
	if d := again.Digest(); d != refDigest {
		return fmt.Errorf("determinism: fresh and pooled runs of one spec diverged: %s vs %s", refDigest, d)
	}

	// Verification is behaviour-neutral: the same run with the invariant
	// checks (and their extra capacity-end wake events) disabled must match
	// the verified reference. Checked on its own so that a verify-induced
	// divergence is reported as exactly that, not blamed on the legs below.
	plainCfg, err := s.config(false)
	if err != nil {
		return err
	}
	plain, err := sim.Run(plainCfg)
	if err != nil {
		return fmt.Errorf("unverified run: %w", err)
	}
	if d := plain.Digest(); d != refDigest {
		return fmt.Errorf("verification neutrality: enabling invariant checks changed the digest: %s vs %s", refDigest, d)
	}

	// Lazy == eager: the built-in heuristics declare which estimates they
	// read, and the sweep evaluates only those. Wrapping the heuristic
	// hides the declaration, so every sweep of this run re-queries every
	// stale cell before each Select, as the eager ECT matrix did. The two
	// runs must agree bit for bit.
	eagerCfg, err := s.config(false)
	if err != nil {
		return err
	}
	eagerCfg.Realloc.Heuristic = EagerHeuristic(eagerCfg.Realloc.Heuristic)
	eager, err := sim.Run(eagerCfg)
	if err != nil {
		return fmt.Errorf("eager-estimate run: %w", err)
	}
	if d := eager.Digest(); d != refDigest {
		return fmt.Errorf("lazy ECT: the %s run with fully materialised estimates diverged: %s vs %s", s.Combo.Heuristic, refDigest, d)
	}

	// Zero-capacity inertness: without capacity windows the outage policy
	// must be dead code — flipping it cannot change anything.
	if s.CapacityWindows == 0 {
		flipCfg, err := s.config(false)
		if err != nil {
			return err
		}
		flipCfg.OutagePolicy = batch.RequeueDisplaced
		if s.Combo.OutagePolicy == batch.RequeueDisplaced {
			flipCfg.OutagePolicy = batch.KillDisplaced
		}
		flipped, err := sim.Run(flipCfg)
		if err != nil {
			return fmt.Errorf("flipped-outage-policy run: %w", err)
		}
		if d := flipped.Digest(); d != refDigest {
			return fmt.Errorf("zero-capacity inertness: flipping the outage policy changed the digest: %s vs %s", refDigest, d)
		}
	}
	return nil
}

// checkSWFRoundTrip writes the trace in Standard Workload Format and reads
// it back: every field the simulator consumes must survive.
func checkSWFRoundTrip(tr *workload.Trace) error {
	var buf bytes.Buffer
	if err := workload.WriteSWF(&buf, tr); err != nil {
		return err
	}
	back, err := workload.ReadSWF(&buf, tr.Name)
	if err != nil {
		return err
	}
	if back.Len() != tr.Len() {
		return fmt.Errorf("job count changed: %d -> %d", tr.Len(), back.Len())
	}
	for i := range tr.Jobs {
		a, b := tr.Jobs[i], back.Jobs[i]
		if a.ID != b.ID || a.Submit != b.Submit || a.Runtime != b.Runtime ||
			a.Walltime != b.Walltime || a.Procs != b.Procs || a.User != b.User {
			return fmt.Errorf("job %d changed:\n  wrote %+v\n  read  %+v", a.ID, a, b)
		}
	}
	return nil
}

// checkConservation verifies that no job is lost or duplicated: one record
// per submitted job, every job finishes exactly once (jobs wider than the
// largest cluster are clamped, so nothing is unschedulable), start and
// completion times are ordered, and the outage counters agree with the
// per-job records and the configured policy.
func checkConservation(s *Spec, res *core.Result) error {
	if len(res.Jobs) != s.Trace.Len() {
		return fmt.Errorf("submitted %d jobs, recorded %d", s.Trace.Len(), len(res.Jobs))
	}
	finished, killed := 0, 0
	var requeues int64
	for _, j := range s.Trace.Jobs {
		rec, ok := res.Jobs[j.ID]
		if !ok {
			return fmt.Errorf("job %d has no record", j.ID)
		}
		if rec.Completion < 0 {
			return fmt.Errorf("job %d never finished (start=%d)", j.ID, rec.Start)
		}
		finished++
		if rec.Killed {
			killed++
		}
		if rec.Start < rec.Submit {
			return fmt.Errorf("job %d started at %d before its submission at %d", j.ID, rec.Start, rec.Submit)
		}
		if rec.Completion < rec.Start {
			return fmt.Errorf("job %d finished at %d before its start at %d", j.ID, rec.Completion, rec.Start)
		}
		if rec.Cluster == "" {
			return fmt.Errorf("job %d finished without a cluster", j.ID)
		}
		if _, ok := s.Platform.Cluster(rec.Cluster); !ok {
			return fmt.Errorf("job %d ran on unknown cluster %q", j.ID, rec.Cluster)
		}
		if rec.Requeues < 0 || rec.Reallocations < 0 {
			return fmt.Errorf("job %d has negative counters: %+v", j.ID, rec)
		}
		requeues += int64(rec.Requeues)
		if rec.Completion > res.Makespan {
			return fmt.Errorf("job %d finished at %d after the makespan %d", j.ID, rec.Completion, res.Makespan)
		}
	}
	if finished != s.Trace.Len() {
		return fmt.Errorf("submitted %d, finished %d", s.Trace.Len(), finished)
	}
	if requeues != res.OutageRequeues {
		return fmt.Errorf("per-job requeues sum to %d, run counted %d", requeues, res.OutageRequeues)
	}
	if res.OutageKills > int64(killed) {
		return fmt.Errorf("%d outage kills but only %d killed jobs", res.OutageKills, killed)
	}
	if s.Combo.OutagePolicy == batch.KillDisplaced && res.OutageRequeues != 0 {
		return fmt.Errorf("kill policy produced %d requeues", res.OutageRequeues)
	}
	if s.Combo.OutagePolicy == batch.RequeueDisplaced && res.OutageKills != 0 {
		return fmt.Errorf("requeue policy produced %d outage kills", res.OutageKills)
	}
	if s.CapacityWindows == 0 && (res.OutageKills != 0 || res.OutageRequeues != 0) {
		return fmt.Errorf("no capacity windows but %d kills / %d requeues", res.OutageKills, res.OutageRequeues)
	}
	if s.Combo.Algorithm == core.NoReallocation && res.TotalReallocations != 0 {
		return fmt.Errorf("no-reallocation run migrated %d jobs", res.TotalReallocations)
	}
	return nil
}
