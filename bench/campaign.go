package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gridrealloc/internal/core"
	"gridrealloc/internal/runner"
	"gridrealloc/internal/scenario"
	"gridrealloc/internal/service"
	"gridrealloc/internal/workload"
)

// campaignHTTP is the 72-grid in wire form at a tiny trace fraction, posted
// as whole campaigns by env.procs tenants to an in-process gridd whose lease
// pool holds env.procs simulators. Each scenario's trace is generated inside
// the service, so per-scenario fixed costs (generation, simulator reset,
// leasing, NDJSON encoding, HTTP) weigh far more than in grid72. Every
// campaign has a seed of its own: a campaign's cost depends strongly on its
// seed, so a run averages over as many seeds as it posts campaigns.
type campaignHTTP struct {
	e    *env
	cfgs []scenario.Config // the grid in wire form, without seed
	g    *gridd
}

func setupCampaign(e *env, _ *tracer) (bench, error) {
	c := &campaignHTTP{e: e, cfgs: grid72Configs()}
	for i := range c.cfgs {
		c.cfgs[i].TraceFraction = e.size.campFraction
	}
	g, err := bootGridd(e, service.Config{Sims: e.procs, MaxCampaigns: e.procs})
	if err != nil {
		return nil, err
	}
	c.g = g
	return c, nil
}

func (c *campaignHTTP) close() {
	if c.g != nil {
		_ = c.g.close()
		c.g = nil
	}
}

// request is campaign j: the grid with a seed derived from -seed and j.
func (c *campaignHTTP) request(j int) service.CampaignRequest {
	seed := derive(c.e.seed, "campaign", j)
	req := service.CampaignRequest{Scenarios: make([]scenario.Config, len(c.cfgs))}
	for i, cfg := range c.cfgs {
		cfg.Seed = seed
		req.Scenarios[i] = cfg
	}
	return req
}

func (c *campaignHTTP) label(j, i int) string {
	return fmt.Sprintf("campaign%d/%s", j, configName(c.cfgs[i]))
}

// campaignRun is what one posted campaign returned.
type campaignRun struct {
	j         int // campaign index, also the request ID of its spans
	lat       time.Duration
	firstLine time.Duration
	digests   []string
	jobs      int
	stats     runner.RunStats
	err       error
}

// phase has env.procs tenants post campaigns 0, 1, 2, ... back to back
// (closed loop) until the budget is spent; the first campChecked always
// complete, and theirs are the outputs digests.json commits. Afterwards,
// untimed, every posted campaign replays in process through runner.RunCtx,
// and every NDJSON line must carry the in-process digest of its config.
func (c *campaignHTTP) phase(tr *tracer) (*phaseOut, error) {
	e := c.e
	c.g.trace.Store(tr)
	defer c.g.trace.Store(nil)
	before, err := c.g.client.Stats(context.Background())
	if err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	out := &phaseOut{tailP: 0.9, layer: map[string]float64{}}
	var next atomic.Int64
	var mu sync.Mutex
	var runs []campaignRun
	a0 := allocated()
	start := e.clock()
	var wg sync.WaitGroup
	wg.Add(e.procs)
	for t := 0; t < e.procs; t++ {
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= e.size.campChecked && e.clock().Sub(start) >= e.budget {
					return
				}
				r := c.post(j, tr)
				mu.Lock()
				runs = append(runs, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	out.wall = e.clock().Sub(start)
	out.alloc = allocated() - a0
	after, err := c.g.client.Stats(context.Background())
	if err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	sort.Slice(runs, func(a, b int) bool { return runs[a].j < runs[b].j })

	var stats runner.RunStats
	for _, r := range runs {
		out.attempted++
		stats.Failed += r.stats.Failed
		stats.Retries += r.stats.Retries
		stats.DiscardedSims += r.stats.DiscardedSims
		if r.err != nil {
			out.failed++
			out.problems = append(out.problems, fmt.Sprintf("campaign %d: %v", r.j, r.err))
			continue
		}
		out.jobs += float64(r.jobs)
		out.lat = append(out.lat, r.lat)
	}
	out.jobsPerS = out.jobs / out.wall.Seconds()
	out.cost = 1 / out.jobsPerS

	// The in-process replay of the same campaigns: the digest reference,
	// and the side service.overhead_frac compares HTTP with.
	inStart := e.clock()
	inOuts, err := c.inProcess(len(runs), tr)
	if err != nil {
		return nil, err
	}
	var inJobs float64
	for _, r := range runs {
		for i := range c.cfgs {
			o := inOuts[r.j*len(c.cfgs)+i]
			inJobs += float64(o.jobs)
			if r.err == nil && r.digests[i] != o.digest {
				out.failed++
				out.problems = append(out.problems, fmt.Sprintf("%s: HTTP digest %s, in-process %s",
					c.label(r.j, i), prefix(r.digests[i]), prefix(o.digest)))
			}
			if r.j < e.size.campChecked {
				out.labels = append(out.labels, c.label(r.j, i))
				out.digests = append(out.digests, o.digest)
			}
		}
	}
	inWall := e.clock().Sub(inStart)
	if len(out.problems) > 5 {
		out.problems = out.problems[:5]
	}

	simCounts(out.layer, inOuts)
	spanLayers(out.layer, tr)
	out.layer["service.overhead_frac"] = 1 - out.jobsPerS/(inJobs/inWall.Seconds())
	out.layer["runner.failed"] = float64(stats.Failed)
	out.layer["runner.retries"] = float64(stats.Retries)
	out.layer["runner.discarded_sims"] = float64(stats.DiscardedSims)
	out.layer["service.shed"] = float64(after.Shed - before.Shed)
	out.layer["service.handler_panics"] = float64(after.HandlerPanics - before.HandlerPanics)
	out.layer["service.lease_acquires"] = float64(after.Leases.Acquires - before.Leases.Acquires)
	if tr != nil {
		hs := millis(tr.durations("service.handler"))
		out.layer["service.handler_p50_ms"] = percentile(hs, 0.5)
		out.layer["service.handler_p99_ms"] = percentile(hs, 0.99)
		handler := tr.byReq("service.handler")
		var outside, firsts []float64
		for _, r := range runs {
			if r.err != nil {
				continue
			}
			if h, ok := handler[int64(r.j)]; ok {
				outside = append(outside, float64(r.lat-h)/1e6)
			}
			firsts = append(firsts, float64(r.firstLine)/1e6)
		}
		out.layer["service.client_p50_ms"] = percentile(outside, 0.5)
		out.layer["service.first_line_p50_ms"] = percentile(firsts, 0.5)
	}
	return out, nil
}

// post sends campaign j, timing the whole stream and its first line.
func (c *campaignHTTP) post(j int, tr *tracer) campaignRun {
	e := c.e
	r := campaignRun{j: j, digests: make([]string, len(c.cfgs))}
	t0 := e.clock()
	var first time.Time
	trailer, err := c.g.client.Campaign(withReq(context.Background(), int64(j)), c.request(j), func(l service.CampaignLine) {
		if first.IsZero() {
			first = e.clock()
		}
		switch {
		case l.Index < 0 || l.Index >= len(r.digests):
			r.err = fmt.Errorf("line index %d out of range", l.Index)
		case l.Error != "":
			if r.err == nil {
				r.err = fmt.Errorf("%s: %s", c.label(j, l.Index), l.Error)
			}
		default:
			r.digests[l.Index] = l.Digest
			r.jobs += l.Jobs
		}
	})
	t1 := e.clock()
	tr.record(0, 0, "campaign", int64(j), t0, t1)
	r.lat = t1.Sub(t0)
	r.firstLine = first.Sub(t0)
	r.stats = trailer.Stats
	switch {
	case err != nil:
		r.err = err
	case r.err == nil && trailer.Stats.Completed != int64(len(r.digests)):
		r.err = fmt.Errorf("trailer reports %d of %d scenarios completed (%s)", trailer.Stats.Completed, len(r.digests), trailer.Error)
	}
	return r
}

// inProcess replays campaigns 0..n-1 through one runner.RunCtx with
// env.procs fresh-simulator workers, generating each trace itself so the
// traced run sees workload.gen spans. Output i*72+k is scenario k of
// campaign i.
func (c *campaignHTTP) inProcess(n int, tr *tracer) ([]simOut, error) {
	e := c.e
	var cfgs []scenario.Config
	for j := 0; j < n; j++ {
		cfgs = append(cfgs, c.request(j).Scenarios...)
	}
	outs, _, err := runner.RunCtx(context.Background(), len(cfgs), runner.Options{Workers: e.procs},
		func(_ context.Context, i int, sim *core.Simulator) (simOut, error) {
			cfg := cfgs[i]
			j := int64(i / len(c.cfgs))
			t0 := e.clock()
			trace, err := workload.Scenario(workload.ScenarioName(cfg.Scenario), cfg.TraceFraction, cfg.Seed)
			tr.record(0, 0, "workload.gen", j, t0, e.clock())
			if err != nil {
				return simOut{}, err
			}
			cfg.Trace = trace
			return simulate(sim, cfg, e.clock, tr, j)
		})
	if err != nil {
		return nil, fmt.Errorf("in-process replay: %w", err)
	}
	return outs, nil
}

// grid72Configs is the repository's 72-configuration A/B grid in wire form,
// without traces: 3 scenarios x 2 platforms x 2 batch policies x (baseline
// + 5 algorithm/heuristic pairs), the order TestABDigest uses.
func grid72Configs() []scenario.Config {
	type pair struct{ alg, heur string }
	pairs := []pair{{"none", ""}, {"realloc", "Mct"}, {"realloc", "MinMin"}, {"realloc", "MaxGain"},
		{"realloc-cancel", "Mct"}, {"realloc-cancel", "MinMin"}}
	var out []scenario.Config
	for _, name := range []string{"jan", "apr", "pwa-g5k"} {
		for _, het := range []string{"homogeneous", "heterogeneous"} {
			for _, pol := range []string{"FCFS", "CBF"} {
				for _, p := range pairs {
					out = append(out, scenario.Config{Scenario: name, Heterogeneity: het, Policy: pol,
						Algorithm: p.alg, Heuristic: p.heur})
				}
			}
		}
	}
	return out
}

func configName(c scenario.Config) string {
	return fmt.Sprintf("%s/%s/%s/%s/%s", c.Scenario, c.Heterogeneity, c.Policy, c.Algorithm, c.Heuristic)
}
