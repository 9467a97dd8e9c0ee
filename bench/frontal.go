package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"

	"gridrealloc/internal/platform"
	"gridrealloc/internal/service"
	"gridrealloc/internal/workload"
)

// The frontal workload replays the paper's middleware traffic against the
// restricted frontal API of an in-process gridd, open loop: independent
// users submit jobs whatever the daemon's speed, so a slow daemon builds a
// queue instead of receiving less load.

type reqKind uint8

const (
	kEstimate reqKind = iota
	kSubmit
	kCancel // followed by a resubmit to cluster `to` when answered 200
	kList
)

var kindNames = [...]string{kEstimate: "estimate", kSubmit: "submit", kCancel: "cancel", kList: "list"}

// scripted is one request of the frontal script.
type scripted struct {
	kind    reqKind
	cluster int
	to      int
	now     int64
	job     service.JobPayload
}

// frontalScript is the request sequence for one trace, in virtual-time
// order, with the number of jobs it places.
type frontalScript struct {
	clusters []string
	reqs     []scripted
}

// movesPerHour bounds the hourly moves of the script.
const movesPerHour = 8

// buildScript turns a trace into middleware traffic. For each job, at its
// submit time: one estimate per cluster, then a submit to the cluster with
// the least assigned work (core-seconds of walltime per core) among those
// wide enough. Every 3600 virtual seconds: a list of every cluster, then up
// to movesPerHour moves of the jobs submitted during the hour just ended,
// latest first, each to the least-loaded other cluster that fits it. The
// placement is decided offline, so no scripted request depends on an
// answer; only a move's resubmit waits for its cancel.
func buildScript(trace *workload.Trace, plat platform.Platform, maxJobs int) *frontalScript {
	s := &frontalScript{}
	cores := make([]int, len(plat.Clusters))
	for i, c := range plat.Clusters {
		s.clusters = append(s.clusters, c.Name)
		cores[i] = c.Cores
	}
	work := make([]float64, len(cores))
	type placed struct {
		job     service.JobPayload
		cluster int
	}
	var hour []placed
	least := func(procs, except int) int {
		best := -1
		for c := range cores {
			if c == except || procs > cores[c] {
				continue
			}
			if best < 0 || work[c] < work[best] {
				best = c
			}
		}
		return best
	}
	load := func(j service.JobPayload, c int) float64 {
		return float64(j.Procs) * float64(j.Walltime) / float64(cores[c])
	}
	jobs := trace.Jobs
	if maxJobs > 0 && len(jobs) > maxJobs {
		jobs = jobs[:maxJobs]
	}
	if len(jobs) == 0 {
		return s
	}
	next := (jobs[0].Submit/3600 + 1) * 3600
	for _, j := range jobs {
		for j.Submit >= next {
			for c := range cores {
				s.reqs = append(s.reqs, scripted{kind: kList, cluster: c, now: next})
			}
			moved := 0
			for k := len(hour) - 1; k >= 0 && moved < movesPerHour; k-- {
				p := hour[k]
				to := least(p.job.Procs, p.cluster)
				if to < 0 {
					continue
				}
				s.reqs = append(s.reqs, scripted{kind: kCancel, cluster: p.cluster, to: to, now: next, job: p.job})
				work[p.cluster] -= load(p.job, p.cluster)
				work[to] += load(p.job, to)
				moved++
			}
			hour = hour[:0]
			next += 3600
		}
		p := service.JobPayload{ID: j.ID, Submit: j.Submit, Runtime: j.Runtime, Walltime: j.Walltime, Procs: j.Procs, User: j.User}
		c := least(p.Procs, -1)
		if c < 0 {
			continue // wider than every cluster: the middleware would refuse it
		}
		for k := range cores {
			s.reqs = append(s.reqs, scripted{kind: kEstimate, cluster: k, now: j.Submit, job: p})
		}
		s.reqs = append(s.reqs, scripted{kind: kSubmit, cluster: c, now: j.Submit, job: p})
		work[c] += load(p, c)
		hour = append(hour, placed{p, c})
	}
	return s
}

// jobsIn counts the jobs the first n requests place.
func (s *frontalScript) jobsIn(n int) int {
	k := 0
	for _, r := range s.reqs[:n] {
		if r.kind == kSubmit {
			k++
		}
	}
	return k
}

// frontalPolicy and frontalScenario fix the daemon the script runs against:
// January's homogeneous Grid'5000 platform under conservative backfilling.
const (
	frontalScenario = "jan"
	frontalPolicy   = "CBF"
	// Pass conditions of a ladder step.
	ladderP99Ms  = 5.0
	ladderLateMs = 2.0
	// The ladder climbs by ladderGrowth from ladderStart times the
	// reference rate, so it reaches the knee within the budget.
	ladderStart    = 2
	ladderGrowth   = 1.1
	ladderAttempts = 3
)

type frontal struct {
	e      *env
	script *frontalScript
	plat   platform.Platform
	cur    *gridd // booted by setup, used by the next phase
}

func setupFrontal(e *env, tr *tracer) (bench, error) {
	t0 := e.clock()
	trace, err := workload.Scenario(frontalScenario, 1.0, derive(e.seed, "frontal", 0))
	tr.record(0, 0, "workload.gen", 0, t0, e.clock())
	if err != nil {
		return nil, err
	}
	f := &frontal{e: e, plat: platform.ForScenario(frontalScenario, platform.Homogeneous)}
	f.script = buildScript(trace, f.plat, e.size.frontalJobs)
	if len(f.script.reqs) < e.size.frontalRef {
		return nil, fmt.Errorf("script has %d requests, the reference phase needs %d", len(f.script.reqs), e.size.frontalRef)
	}
	f.cur, err = f.boot()
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (f *frontal) boot() (*gridd, error) {
	return bootGridd(f.e, service.Config{Platform: f.plat, Policy: frontalPolicy, Sims: f.e.procs})
}

func (f *frontal) close() {
	if f.cur != nil {
		_ = f.cur.close()
		f.cur = nil
	}
}

// checker collects the correctness failures of one replay.
type checker struct {
	mu       sync.Mutex
	problems []string // the first few; loadResult counts them all
}

func (c *checker) fail(err error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.problems) < 5 {
		c.problems = append(c.problems, err.Error())
	}
	return err
}

// caller returns the call that sends script request i to g, checking every
// answer: each request must answer 200, except a cancel of a job that has
// already started, which correctly answers 422; every estimate a cluster can
// run must lie at or after the answer's virtual time; every listed queue
// must be ordered by queue position.
func (f *frontal) caller(g *gridd, ck *checker) call {
	return func(i int) (func() error, error) {
		r := f.script.reqs[i]
		ctx := withReq(context.Background(), int64(i))
		name := f.script.clusters[r.cluster]
		switch r.kind {
		case kEstimate:
			resp, err := g.client.Estimate(ctx, service.EstimateRequest{Cluster: name, Now: r.now, Job: r.job})
			if err == nil && resp.OK && resp.ECT < resp.Now {
				err = fmt.Errorf("estimate of job %d on %s: ECT %d before now %d", r.job.ID, name, resp.ECT, resp.Now)
			}
			if err != nil {
				return nil, ck.fail(err)
			}
		case kSubmit:
			if _, err := g.client.Submit(ctx, service.SubmitRequest{Cluster: name, Now: r.now, Job: r.job}); err != nil {
				return nil, ck.fail(fmt.Errorf("submit job %d to %s: %w", r.job.ID, name, err))
			}
		case kList:
			resp, err := g.client.List(ctx, name)
			for k := 1; err == nil && k < len(resp.Waiting); k++ {
				if resp.Waiting[k].QueuePosition <= resp.Waiting[k-1].QueuePosition {
					err = fmt.Errorf("list %s: queue position %d after %d", name, resp.Waiting[k].QueuePosition, resp.Waiting[k-1].QueuePosition)
				}
			}
			if err != nil {
				return nil, ck.fail(err)
			}
		case kCancel:
			resp, err := g.client.Cancel(ctx, service.CancelRequest{Cluster: name, Now: r.now, JobID: r.job.ID})
			var api *service.APIError
			if errors.As(err, &api) && api.Status == http.StatusUnprocessableEntity {
				return nil, nil // the job started (or ended) before the move
			}
			if err != nil {
				return nil, ck.fail(fmt.Errorf("cancel job %d on %s: %w", r.job.ID, name, err))
			}
			to := f.script.clusters[r.to]
			return func() error {
				_, err := g.client.Submit(withReq(context.Background(), -int64(i)-1), service.SubmitRequest{
					Cluster: to, Now: resp.Now, Job: resp.Job, Reallocations: resp.Reallocations + 1})
				if err != nil {
					return ck.fail(fmt.Errorf("resubmit job %d to %s: %w", r.job.ID, to, err))
				}
				return nil
			}, nil
		}
		return nil, nil
	}
}

// replay runs the first n script requests at rate against g; with a tracer
// every scripted request also becomes a client span named after its kind.
func (f *frontal) replay(g *gridd, n int, rate float64, tr *tracer) (loadResult, *checker) {
	ck := &checker{}
	do := f.caller(g, ck)
	if tr != nil {
		inner := do
		do = func(i int) (func() error, error) {
			t0 := f.e.clock()
			next, err := inner(i)
			tr.record(0, 0, "client."+kindNames[f.script.reqs[i].kind], int64(i), t0, f.e.clock())
			return next, err
		}
	}
	return openLoop(f.e.clock, n, rate, f.e.procs, do), ck
}

// phase replays the reference phase (frontalRef requests at the reference
// rate) on a fresh daemon, then, in untraced runs, climbs the capacity
// ladder: steps of frontalStep at rates growing by ladderGrowth, each on a
// fresh daemon replaying a prefix of the script, until a step fails
// ladderAttempts times in a row or the budget is spent.
func (f *frontal) phase(tr *tracer) (*phaseOut, error) {
	e := f.e
	g := f.cur
	f.cur = nil
	if g == nil {
		var err error
		if g, err = f.boot(); err != nil {
			return nil, err
		}
	}
	g.trace.Store(tr)
	// The tail is p95: p99 of the reference phase sits where occasional
	// pauses of the shared machine reach about 1% of the requests, and it
	// swung between 0.57 and 1.33 ms over ten runs.
	out := &phaseOut{tailP: 0.95, layer: map[string]float64{}}
	var problems []string
	n := e.size.frontalRef
	rate := e.size.frontalRate
	a0 := allocated()
	start := e.clock()
	ref, ck := f.replay(g, n, rate, tr)
	out.alloc = allocated() - a0
	stats, serr := g.client.Stats(context.Background())
	g.trace.Store(nil)
	if err := g.close(); err != nil {
		problems = append(problems, fmt.Sprintf("reference daemon drain: %v", err))
	}
	if serr != nil {
		return nil, fmt.Errorf("stats: %w", serr)
	}
	problems = append(problems, ck.problems...)
	out.lat = ref.lat
	out.attempted = int64(ref.attempted)
	out.failed = int64(ref.failed)
	out.jobs = float64(f.script.jobsIn(n))
	perRequest := out.jobs / float64(n)
	p50 := percentile(millis(ref.lat), 0.5)
	out.cost = p50
	fmt.Fprintf(e.out, "frontal reference: %d requests at %.0f/s, p50 %.3fms p99 %.3fms, late p99 %.3fms, %d in flight at end\n",
		ref.attempted, rate, p50, percentile(millis(ref.lat), 0.99), percentile(millis(ref.late), 0.99), ref.inflight)

	// The capacity ladder is an end-to-end measurement: traced runs skip it.
	if !e.traced {
		run := func(r float64) (stepOut, error) {
			s, err := f.step(r)
			if err != nil {
				return s, err
			}
			out.attempted += int64(s.res.attempted)
			out.failed += int64(s.res.failed)
			problems = append(problems, s.problems...)
			fmt.Fprintf(e.out, "frontal ladder: %7.0f/s p99 %7.3fms late p99 %6.3fms failed %d in flight %d pass=%v\n",
				r, s.p99ms, s.lateMs, s.res.failed, s.res.inflight, s.pass)
			return s, nil
		}
		var steps []ladderStep
		for r := ladderStart * rate; len(steps) == 0 || e.clock().Sub(start) < e.budget; r *= ladderGrowth {
			// A bad second on a shared machine is not the daemon's limit:
			// a failing step is repeated, and the ladder stops only when
			// ladderAttempts attempts in a row fail.
			s, err := run(r)
			for k := 1; err == nil && !s.pass && k < ladderAttempts; k++ {
				s, err = run(r)
			}
			if err != nil {
				return nil, err
			}
			steps = append(steps, s.ladderStep)
			if !s.pass {
				break
			}
		}
		maxRPS := maxRate(steps, ladderP99Ms)
		fmt.Fprintf(e.out, "frontal max_rps %.1f req/s (%.4f jobs per request)\n", maxRPS, perRequest)
		out.jobsPerS = maxRPS * perRequest
	}
	out.wall = e.clock().Sub(start)
	out.problems = problems

	out.layer["loadgen.late_p99_ms"] = percentile(millis(ref.late), 0.99)
	out.layer["loadgen.conn_wait_p99_ms"] = percentile(millis(ref.wait), 0.99)
	frontalLayers(out.layer, tr, ref, stats)
	return out, nil
}

// stepOut is one measured ladder step.
type stepOut struct {
	ladderStep
	lateMs   float64
	res      loadResult
	problems []string
}

// step replays rate x frontalStep requests at rate on a fresh daemon.
func (f *frontal) step(rate float64) (stepOut, error) {
	g, err := f.boot()
	if err != nil {
		return stepOut{}, err
	}
	n := int(math.Round(rate * f.e.size.frontalStep.Seconds()))
	if n > len(f.script.reqs) {
		n = len(f.script.reqs)
	}
	res, ck := f.replay(g, n, rate, nil)
	s := stepOut{res: res, problems: ck.problems}
	if err := g.close(); err != nil {
		s.problems = append(s.problems, fmt.Sprintf("ladder daemon drain: %v", err))
	}
	s.rate = rate
	s.p99ms = percentile(millis(res.lat), 0.99)
	s.lateMs = percentile(millis(res.late), 0.99)
	s.pass = s.p99ms <= ladderP99Ms && res.failed == 0 && s.lateMs <= ladderLateMs &&
		float64(res.inflight) <= float64(f.e.procs)+rate*ladderP99Ms/1000
	return s, nil
}

// frontalLayers fills the service and batch per-layer metrics of a replay:
// handler time per request from the traced handler wrapper, client time
// outside the handler, and the daemon's own counters.
func frontalLayers(layer map[string]float64, tr *tracer, ref loadResult, st service.StatsResponse) {
	var rebuilds, reuses float64
	for _, l := range st.Clusters {
		layer["batch.submits"] += float64(l.Submissions)
		layer["batch.cancels"] += float64(l.Cancellations)
		layer["batch.ect_queries"] += float64(l.ECTQueries)
		rebuilds += float64(l.PlanRebuilds)
		reuses += float64(l.PlanReuses)
	}
	layer["batch.plan_rebuilds"] = rebuilds
	if rebuilds+reuses > 0 {
		layer["batch.plan_reuse_frac"] = reuses / (rebuilds + reuses)
	}
	layer["service.shed"] = float64(st.Shed)
	layer["service.handler_panics"] = float64(st.HandlerPanics)
	layer["service.lease_acquires"] = float64(st.Leases.Acquires)
	if tr == nil {
		return
	}
	handler := tr.byReq("service.handler")
	hs := millis(tr.durations("service.handler"))
	layer["service.handler_p50_ms"] = percentile(hs, 0.5)
	layer["service.handler_p99_ms"] = percentile(hs, 0.99)
	var outside []float64
	for i := range ref.late {
		if h, ok := handler[int64(i)]; ok {
			// Client time outside the handler: from when a worker picked
			// the request up to its answer, minus the handler's share.
			total := ref.lat[i] - ref.late[i] - ref.wait[i]
			outside = append(outside, float64(total-h)/1e6)
		}
	}
	layer["service.client_p50_ms"] = percentile(outside, 0.5)
}
