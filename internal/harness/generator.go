package harness

import (
	"fmt"

	"gridrealloc/internal/batch"
	"gridrealloc/internal/core"
	"gridrealloc/internal/platform"
	"gridrealloc/internal/stats"
	"gridrealloc/internal/workload"
)

// Combo is one point of the discrete configuration grid: the local batch
// policy, the reallocation algorithm, the heuristic ordering its candidates
// and the policy for jobs displaced by an unannounced outage.
type Combo struct {
	Policy       batch.Policy
	Algorithm    core.Algorithm
	Heuristic    string
	OutagePolicy batch.OutagePolicy
}

// String renders the combo as "CBF/realloc-cancel/MinMin/requeue".
func (c Combo) String() string {
	return fmt.Sprintf("%s/%s/%s/%s", c.Policy, c.Algorithm, c.Heuristic, c.OutagePolicy)
}

// Combos enumerates the full discrete grid in a fixed order: 2 policies x 3
// algorithms x 6 heuristics x 2 outage policies = 72 combinations. Generate
// picks entry seed % len(Combos()), so a caller that hands out seeds with
// cycling residues (cmd/gridfuzz does) covers every combination exactly
// once per 72 scenarios while each seed alone still fully determines its
// scenario.
func Combos() []Combo {
	var out []Combo
	for _, pol := range []batch.Policy{batch.FCFS, batch.CBF} {
		for _, alg := range []core.Algorithm{core.NoReallocation, core.WithoutCancellation, core.WithCancellation} {
			for _, h := range core.Heuristics() {
				for _, op := range []batch.OutagePolicy{batch.KillDisplaced, batch.RequeueDisplaced} {
					out = append(out, Combo{Policy: pol, Algorithm: alg, Heuristic: h.Name(), OutagePolicy: op})
				}
			}
		}
	}
	return out
}

// Spec is one fully-determined random scenario: everything the oracle needs
// to run the simulator, plus the coverage attributes cmd/gridfuzz reports.
type Spec struct {
	// Seed is the value the whole spec was derived from; Generate(Seed)
	// reproduces it exactly.
	Seed uint64
	// Trace is the workload.
	Trace *workload.Trace
	// Platform is the random multi-cluster grid, capacity timelines
	// included.
	Platform platform.Platform
	// Combo is the discrete configuration point (seed % 72).
	Combo Combo
	// MappingName is the initial mapping policy ("MCT", "Random",
	// "RoundRobin").
	MappingName string
	// ReallocPeriod and MinGain parameterise the reallocation mechanism in
	// seconds.
	ReallocPeriod int64
	MinGain       int64

	// Coverage attributes derived from the drawn platform.

	// CapacityWindows is the total number of capacity windows across all
	// clusters; MaintenanceWindows + OutageWindows == CapacityWindows.
	CapacityWindows    int
	MaintenanceWindows int
	OutageWindows      int
	// Heterogeneous reports whether cluster speeds differ.
	Heterogeneous bool
}

// String is the one-line form gridfuzz prints per scenario.
func (s *Spec) String() string {
	return fmt.Sprintf("seed %d: %d jobs on %s, %s, map %s, period %ds, windows %d (%d maint / %d outage)",
		s.Seed, s.Trace.Len(), s.Platform.String(), s.Combo, s.MappingName,
		s.ReallocPeriod, s.CapacityWindows, s.MaintenanceWindows, s.OutageWindows)
}

// Generate derives a complete scenario from one seed. The discrete combo is
// seed % 72 (see Combos); every continuous choice comes from independent
// splits of one deterministic RNG, so the same seed always yields the same
// scenario regardless of Go version or map iteration order.
func Generate(seed uint64) *Spec {
	combos := Combos()
	spec := &Spec{Seed: seed, Combo: combos[seed%uint64(len(combos))]}
	rng := stats.NewRNG(seed)
	traceRNG := rng.Split()
	platRNG := rng.Split()
	knobRNG := rng.Split()

	spec.Trace = generateTrace(traceRNG)
	spec.Platform = generatePlatform(platRNG, spec.Trace.LastSubmit())
	for _, c := range spec.Platform.Clusters {
		for _, ev := range c.Capacity {
			spec.CapacityWindows++
			if ev.Kind == platform.Maintenance {
				spec.MaintenanceWindows++
			} else {
				spec.OutageWindows++
			}
		}
	}
	spec.Heterogeneous = !spec.Platform.Homogeneous()

	spec.MappingName = []string{"MCT", "MCT", "Random", "RoundRobin"}[knobRNG.Intn(4)]
	spec.ReallocPeriod = 600 + knobRNG.Int63n(7200)
	spec.MinGain = 30 + knobRNG.Int63n(600)
	return spec
}

// generateTrace draws a workload: either raw random jobs (including edge
// shapes the calibrated generator never emits: zero runtimes, walltime
// underestimates, simultaneous submissions, single-job traces) or a random
// SiteProfile through the production generator.
func generateTrace(rng *stats.RNG) *workload.Trace {
	if rng.Bool(0.35) {
		return generateProfileTrace(rng)
	}
	n := 1 + rng.Intn(140)
	span := int64(6*3600) + rng.Int63n(3*86400)
	jobs := make([]workload.Job, 0, n)
	for i := 0; i < n; i++ {
		runtime := rng.Int63n(8 * 3600)
		walltime := 1 + rng.Int63n(12*3600)
		if rng.Bool(0.15) {
			// Bad job: recorded runtime exceeds the request; the batch
			// system kills it at the walltime.
			walltime = 1 + runtime/2
		}
		submit := rng.Int63n(span)
		if rng.Bool(0.1) && len(jobs) > 0 {
			// Submission burst: reuse the previous instant.
			submit = jobs[len(jobs)-1].Submit
		}
		jobs = append(jobs, workload.Job{
			ID:       i + 1,
			Submit:   submit,
			Runtime:  runtime,
			Walltime: walltime,
			Procs:    1 + rng.Intn(64),
			User:     1 + rng.Intn(10),
			Site:     "random",
		})
	}
	tr, err := workload.NewTrace("random", jobs)
	if err != nil {
		// The generator only emits valid jobs; a failure here is a harness
		// bug worth crashing on.
		panic(fmt.Sprintf("harness: generated invalid trace: %v", err))
	}
	return tr
}

// generateProfileTrace draws a random SiteProfile and runs the calibrated
// synthetic generator, covering the diurnal/burst arrival machinery the raw
// job generator bypasses.
func generateProfileTrace(rng *stats.RNG) *workload.Trace {
	p := workload.SiteProfile{
		Site:                  "fuzzsite",
		Jobs:                  10 + rng.Intn(130),
		Duration:              int64(12*3600) + rng.Int63n(3*86400),
		MaxProcs:              4 + rng.Intn(61),
		MeanRuntime:           300 + rng.Int63n(3300),
		SerialFraction:        rng.Float64(),
		PowerOfTwoFraction:    rng.Float64(),
		BurstFraction:         rng.Float64() * 0.8,
		BurstSize:             1 + rng.Intn(40),
		OverestimationMax:     1 + rng.Float64()*5,
		ExactWalltimeFraction: rng.Float64() * 0.4,
		BadJobFraction:        rng.Float64() * 0.1,
		Users:                 1 + rng.Intn(30),
	}
	p.MaxRuntime = p.MeanRuntime + rng.Int63n(8*3600)
	tr, err := workload.GenerateSite(p, rng.Uint64())
	if err != nil {
		panic(fmt.Sprintf("harness: generated invalid profile: %v", err))
	}
	return tr
}

// generatePlatform draws 1–16 clusters of mixed sizes and speeds, each with
// a 0–3 window capacity timeline mixing maintenance and outages inside the
// workload's submission span (windows after the last submission would be
// inert).
func generatePlatform(rng *stats.RNG, span int64) platform.Platform {
	if span < 8 {
		span = 8
	}
	n := 1 + rng.Intn(16)
	heterogeneous := rng.Bool(0.55)
	clusters := make([]platform.ClusterSpec, 0, n)
	for i := 0; i < n; i++ {
		spec := platform.ClusterSpec{
			Name:  fmt.Sprintf("c%02d", i),
			Cores: 4 + rng.Intn(61),
			Speed: 1.0,
		}
		if heterogeneous {
			// Quantised speeds in [0.5, 2.0]; exact decimals keep scaled
			// durations reproducible in logs.
			spec.Speed = 0.5 + float64(rng.Intn(16))*0.1
		}
		spec.Capacity = generateTimeline(rng, spec.Cores, span)
		clusters = append(clusters, spec)
	}
	p := platform.Platform{Name: "fuzz", Clusters: clusters}
	if err := p.Validate(); err != nil {
		panic(fmt.Sprintf("harness: generated invalid platform: %v", err))
	}
	return p
}

// generateTimeline draws 0–3 sorted, non-overlapping capacity windows for
// one cluster. Severities span full outages (0 cores) to one lost core, and
// each window is independently announced or not.
func generateTimeline(rng *stats.RNG, cores int, span int64) []platform.CapacityEvent {
	count := rng.Choice([]float64{0.40, 0.25, 0.22, 0.13})
	if count == 0 {
		return nil
	}
	events := make([]platform.CapacityEvent, 0, count)
	cursor := rng.Int63n(span/2 + 1)
	for i := 0; i < count; i++ {
		length := 1 + rng.Int63n(span/4+1)
		ev := platform.CapacityEvent{
			Start: cursor,
			End:   cursor + length,
			Cores: rng.Intn(cores), // 0 (full outage) .. cores-1 (one core lost)
			Kind:  platform.Maintenance,
		}
		if rng.Bool(0.5) {
			ev.Kind = platform.Outage
		}
		events = append(events, ev)
		// Leave a gap before the next window so timelines stay
		// non-overlapping.
		cursor = ev.End + 1 + rng.Int63n(span/4+1)
	}
	return events
}
