package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"gridrealloc/internal/core"
	"gridrealloc/internal/runner"
	"gridrealloc/internal/scenario"
	"gridrealloc/internal/workload"
)

// simOut is what the benchmark keeps of one simulation run: enough to check
// it and count its work, without holding the per-job records.
type simOut struct {
	ok       bool
	digest   string
	jobs     int
	passes   int64
	moves    int64
	events   uint64
	submits  int64
	cancels  int64
	ects     int64
	hits     int64
	rebuilds int64
	reuses   int64
	lat      time.Duration // build + run
}

// simulate builds one run configuration and runs it on sim, timing both
// calls; with a tracer the calls become scenario.build and core.run spans
// under one task span.
func simulate(sim *core.Simulator, cfg scenario.Config, clock func() time.Time, tr *tracer, req int64) (simOut, error) {
	task := tr.newID()
	t0 := clock()
	rc, err := scenario.BuildRunConfig(cfg)
	t1 := clock()
	if err != nil {
		return simOut{}, err
	}
	res, err := sim.Run(rc)
	t2 := clock()
	tr.record(0, task, "scenario.build", req, t0, t1)
	tr.record(0, task, "core.run", req, t1, t2)
	tr.record(task, 0, "task", req, t0, t2)
	if err != nil {
		return simOut{}, err
	}
	o := simOut{ok: true, digest: res.Digest(), jobs: len(res.Jobs), passes: res.ReallocationEvents,
		moves: res.TotalReallocations, events: res.EventsExecuted, lat: t2.Sub(t0)}
	for _, l := range res.ServerLoads {
		o.submits += l.Submissions
		o.cancels += l.Cancellations
		o.ects += l.ECTQueries
		o.hits += l.SnapshotHits
		o.rebuilds += l.PlanRebuilds
		o.reuses += l.PlanReuses
	}
	if o.jobs != rc.Trace.Len() {
		return o, fmt.Errorf("%d job records for %d jobs", o.jobs, rc.Trace.Len())
	}
	return o, nil
}

// simCounts folds the work counts of one complete pass into the per-layer
// metrics.
func simCounts(layer map[string]float64, outs []simOut) {
	var s simOut
	for _, o := range outs {
		s.passes += o.passes
		s.moves += o.moves
		s.events += o.events
		s.submits += o.submits
		s.cancels += o.cancels
		s.ects += o.ects
		s.hits += o.hits
		s.rebuilds += o.rebuilds
		s.reuses += o.reuses
	}
	layer["core.passes"] = float64(s.passes)
	layer["core.moves"] = float64(s.moves)
	if s.passes > 0 {
		layer["core.moves_per_pass"] = float64(s.moves) / float64(s.passes)
	}
	layer["sim.events"] = float64(s.events)
	layer["batch.submits"] = float64(s.submits)
	layer["batch.cancels"] = float64(s.cancels)
	layer["batch.ect_queries"] = float64(s.ects)
	if s.ects > 0 {
		layer["batch.snapshot_hit_frac"] = float64(s.hits) / float64(s.ects)
	}
	layer["batch.plan_rebuilds"] = float64(s.rebuilds)
	if s.rebuilds+s.reuses > 0 {
		layer["batch.plan_reuse_frac"] = float64(s.reuses) / float64(s.rebuilds+s.reuses)
	}
}

// spanLayers adds the span metrics of simulation tasks.
func spanLayers(layer map[string]float64, tr *tracer) {
	if tr == nil {
		return
	}
	layer["scenario.build_s"] = sumSeconds(tr.durations("scenario.build"))
	runs := millis(tr.durations("core.run"))
	layer["core.run_p50_ms"] = percentile(runs, 0.5)
	layer["core.run_max_ms"] = percentile(runs, 1)
}

// allocated returns the bytes the process has allocated so far.
func allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// grid72 is the repository's 72-configuration A/B grid (3 scenarios x 2
// platforms x 2 batch policies x 6 algorithm/heuristic pairs) replayed on
// several trace seeds: the typical research campaign.
type grid72 struct {
	e     *env
	cfgs  []scenario.Config
	names []string
}

func setupGrid72(e *env, tr *tracer) (bench, error) {
	g := &grid72{e: e}
	for s := 0; s < e.size.gridSeeds; s++ {
		seed := uint64(baseSeed + s)
		traces := map[string]*workload.Trace{}
		for _, name := range []string{"jan", "apr", "pwa-g5k"} {
			t0 := e.clock()
			base, err := workload.Scenario(workload.ScenarioName(name), e.size.gridFraction, seed)
			tr.record(0, 0, "workload.gen", int64(s), t0, e.clock())
			if err != nil {
				return nil, err
			}
			if traces[name], err = jitterTrace(base, derive(e.seed, "grid72/"+name, s), runtimeJitter); err != nil {
				return nil, err
			}
		}
		for _, cfg := range grid72Configs() {
			cfg.Trace, cfg.Seed = traces[cfg.Scenario], seed
			g.cfgs = append(g.cfgs, cfg)
			g.names = append(g.names, fmt.Sprintf("seed%d/%s", s, configName(cfg)))
		}
	}
	return g, nil
}

func (g *grid72) close() {}

// phase replays the grid through runner.RunCtx with one worker per CPU,
// in whole passes: another pass starts only while one more pass of the mean
// length so far fits in the budget, so every pass has the same mix of cheap
// and costly configs. The first pass is checked against digests.json; every
// later pass must reproduce its digests.
func (g *grid72) phase(tr *tracer) (*phaseOut, error) {
	e := g.e
	n := len(g.cfgs)
	out := &phaseOut{tailP: 0.97, layer: map[string]float64{}}
	first := make([]simOut, n)
	var busy time.Duration
	var stats runner.RunStats
	a0 := allocated()
	start := e.clock()
	for pass := 0; pass == 0 || e.clock().Sub(start)*time.Duration(pass+1)/time.Duration(pass) <= e.budget; pass++ {
		outs, st, _ := runner.RunCtx(context.Background(), n, runner.Options{Workers: e.procs},
			func(_ context.Context, i int, sim *core.Simulator) (simOut, error) {
				return simulate(sim, g.cfgs[i], e.clock, tr, int64(pass*n+i))
			})
		stats.Completed += st.Completed
		stats.Failed += st.Failed
		stats.Retries += st.Retries
		stats.DiscardedSims += st.DiscardedSims
		for i, o := range outs {
			if !o.ok {
				out.problems = append(out.problems, fmt.Sprintf("pass %d: %s failed", pass, g.names[i]))
				continue
			}
			out.jobs += float64(o.jobs)
			out.lat = append(out.lat, o.lat)
			busy += o.lat
			if pass == 0 {
				first[i] = o
			} else if o.digest != first[i].digest {
				out.failed++
				out.problems = append(out.problems, fmt.Sprintf("pass %d: %s digest %s, first pass %s",
					pass, g.names[i], prefix(o.digest), prefix(first[i].digest)))
			}
		}
	}
	out.wall = e.clock().Sub(start)
	out.alloc = allocated() - a0
	out.attempted = stats.Completed + stats.Failed
	out.failed += stats.Failed
	out.jobsPerS = out.jobs / out.wall.Seconds()
	out.cost = 1 / out.jobsPerS
	for i, o := range first {
		out.labels = append(out.labels, g.names[i])
		out.digests = append(out.digests, o.digest)
	}
	simCounts(out.layer, first)
	spanLayers(out.layer, tr)
	out.layer["runner.idle_frac"] = 1 - busy.Seconds()/(float64(e.procs)*out.wall.Seconds())
	out.layer["runner.failed"] = float64(stats.Failed)
	out.layer["runner.retries"] = float64(stats.Retries)
	out.layer["runner.discarded_sims"] = float64(stats.DiscardedSims)
	return out, nil
}

// alg2 is one cell of the paper's Algorithm 2 evaluation: April on the
// homogeneous platform, FCFS, every waiting job cancelled and re-placed by
// MCT each hour. Its cost sits in the reallocation sweep.
type alg2 struct {
	e      *env
	cfgs   []scenario.Config
	labels []string
}

func setupAlg2(e *env, tr *tracer) (bench, error) {
	t0 := e.clock()
	base, err := workload.Scenario("apr", e.size.alg2Fraction, baseSeed)
	tr.record(0, 0, "workload.gen", 0, t0, e.clock())
	if err != nil {
		return nil, err
	}
	a := &alg2{e: e}
	for k := 0; k < e.size.alg2Runs; k++ {
		s := derive(e.seed, "alg2", k)
		trace, err := jitterTrace(base, s, runtimeJitter)
		if err != nil {
			return nil, err
		}
		a.cfgs = append(a.cfgs, scenario.Config{Scenario: "apr", Heterogeneity: "homogeneous", Policy: "FCFS",
			Trace: trace, Seed: baseSeed, Algorithm: "realloc-cancel", Heuristic: "Mct"})
		a.labels = append(a.labels, fmt.Sprintf("apr/jitter%d", k))
	}
	return a, nil
}

func (a *alg2) close() {}

// phase runs the jittered traces back to back on one pooled simulator, with
// no runner, pass after pass until the budget is spent; a run is never cut,
// and the first pass always completes. Every repeat must reproduce the
// first pass's digests.
func (a *alg2) phase(tr *tracer) (*phaseOut, error) {
	e := a.e
	out := &phaseOut{tailP: 1, layer: map[string]float64{}}
	sim := core.NewSimulator()
	first := make([]simOut, len(a.cfgs))
	a0 := allocated()
	start := e.clock()
	for i := 0; ; i++ {
		k := i % len(a.cfgs)
		if i >= len(a.cfgs) && e.clock().Sub(start) >= e.budget {
			break
		}
		out.attempted++
		o, err := simulate(sim, a.cfgs[k], e.clock, tr, int64(i))
		if err != nil {
			out.failed++
			out.problems = append(out.problems, fmt.Sprintf("%s: %v", a.labels[k], err))
			continue
		}
		out.jobs += float64(o.jobs)
		out.lat = append(out.lat, o.lat)
		if i < len(a.cfgs) {
			first[k] = o
		} else if o.digest != first[k].digest {
			out.failed++
			out.problems = append(out.problems, fmt.Sprintf("repeat %d of %s: digest %s, first run %s",
				i/len(a.cfgs), a.labels[k], prefix(o.digest), prefix(first[k].digest)))
		}
	}
	out.wall = e.clock().Sub(start)
	out.alloc = allocated() - a0
	out.jobsPerS = out.jobs / out.wall.Seconds()
	out.cost = 1 / out.jobsPerS
	for k, o := range first {
		out.labels = append(out.labels, a.labels[k])
		out.digests = append(out.digests, o.digest)
	}
	simCounts(out.layer, first)
	spanLayers(out.layer, tr)
	return out, nil
}
