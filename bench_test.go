package gridrealloc_test

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper, plus the Section 4.3 algorithm comparison, the ablation studies
// called out in DESIGN.md and micro-benchmarks of the hot paths (profile
// operations, completion-time estimation, heuristic selection).
//
// The table benchmarks regenerate the corresponding table on a reduced slice
// of the workload (the submission window scales with the slice, so the
// offered load — and therefore the qualitative shape of the numbers —
// matches the full-scale campaign). Run the full-scale campaign with
// cmd/experiments -fraction 1.0; run these with:
//
//	go test -bench=. -benchmem
//
// Each table benchmark reports the table's average cell value as a custom
// metric so regressions in behaviour (not only in speed) are visible.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	gridrealloc "gridrealloc"
	"gridrealloc/internal/batch"
	"gridrealloc/internal/core"
	"gridrealloc/internal/experiment"
	"gridrealloc/internal/gantt"
	"gridrealloc/internal/harness"
	"gridrealloc/internal/platform"
	"gridrealloc/internal/runner"
	"gridrealloc/internal/server"
	"gridrealloc/internal/workload"
)

// benchFraction is the workload slice used by the table benchmarks. The
// submission window scales with it, so the offered load matches full scale.
const benchFraction = 0.01

// benchSeed keeps every benchmark deterministic.
const benchSeed = 42

// benchTable regenerates one of the paper's tables (2..17) on the reduced
// workload and reports its mean cell value.
func benchTable(b *testing.B, id int) {
	b.Helper()
	spec, err := experiment.TableByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var lastMean float64
	for i := 0; i < b.N; i++ {
		camp, err := experiment.Run(experiment.CampaignConfig{
			Fraction:        benchFraction,
			Seed:            benchSeed,
			Heterogeneities: []platform.Heterogeneity{spec.Heterogeneity},
			Algorithms:      []core.Algorithm{spec.Algorithm},
		})
		if err != nil {
			b.Fatal(err)
		}
		table, err := camp.BuildTable(id)
		if err != nil {
			b.Fatal(err)
		}
		if len(table.Rows) == 0 {
			b.Fatalf("table %d has no rows", id)
		}
		sum, n := 0.0, 0
		for _, row := range table.Rows {
			for j, v := range row.Values {
				if !row.Missing[j] {
					sum += v
					n++
				}
			}
		}
		if n > 0 {
			lastMean = sum / float64(n)
		}
	}
	b.ReportMetric(lastMean, "mean_cell")
}

// One benchmark per result table of the paper.

func BenchmarkTable02ImpactedHomogeneous(b *testing.B)            { benchTable(b, 2) }
func BenchmarkTable03ImpactedHeterogeneous(b *testing.B)          { benchTable(b, 3) }
func BenchmarkTable04ReallocationsHomogeneous(b *testing.B)       { benchTable(b, 4) }
func BenchmarkTable05ReallocationsHeterogeneous(b *testing.B)     { benchTable(b, 5) }
func BenchmarkTable06EarlierHomogeneous(b *testing.B)             { benchTable(b, 6) }
func BenchmarkTable07EarlierHeterogeneous(b *testing.B)           { benchTable(b, 7) }
func BenchmarkTable08ResponseHomogeneous(b *testing.B)            { benchTable(b, 8) }
func BenchmarkTable09ResponseHeterogeneous(b *testing.B)          { benchTable(b, 9) }
func BenchmarkTable10ImpactedCancelHomogeneous(b *testing.B)      { benchTable(b, 10) }
func BenchmarkTable11ImpactedCancelHeterogeneous(b *testing.B)    { benchTable(b, 11) }
func BenchmarkTable12ReallocationsCancelHomogeneous(b *testing.B) { benchTable(b, 12) }
func BenchmarkTable13ReallocationsCancelHeterogeneous(b *testing.B) {
	benchTable(b, 13)
}
func BenchmarkTable14EarlierCancelHomogeneous(b *testing.B)    { benchTable(b, 14) }
func BenchmarkTable15EarlierCancelHeterogeneous(b *testing.B)  { benchTable(b, 15) }
func BenchmarkTable16ResponseCancelHomogeneous(b *testing.B)   { benchTable(b, 16) }
func BenchmarkTable17ResponseCancelHeterogeneous(b *testing.B) { benchTable(b, 17) }

// BenchmarkTable01TraceGeneration regenerates Table 1: the six monthly
// traces with the paper's per-site job counts (at the benchmark fraction).
func BenchmarkTable01TraceGeneration(b *testing.B) {
	jobs := 0
	for i := 0; i < b.N; i++ {
		jobs = 0
		for _, m := range workload.Months() {
			traces, err := workload.MonthScenario(m, benchFraction, benchSeed)
			if err != nil {
				b.Fatal(err)
			}
			for _, tr := range traces {
				jobs += tr.Len()
			}
		}
	}
	b.ReportMetric(float64(jobs), "jobs")
}

// BenchmarkComparisonAlg1VsAlg2 regenerates the Section 4.3 comparison
// between the two reallocation algorithms.
func BenchmarkComparisonAlg1VsAlg2(b *testing.B) {
	wins := 0
	for i := 0; i < b.N; i++ {
		camp, err := experiment.Run(experiment.CampaignConfig{
			Fraction:  benchFraction,
			Seed:      benchSeed,
			Scenarios: []workload.ScenarioName{"jan", "apr", "pwa-g5k"},
			Heuristics: []core.Heuristic{
				core.MCT(), core.MinMin(),
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		wins = 0
		for _, row := range camp.CompareAlgorithms() {
			if row.CancellationIsBetter {
				wins++
			}
		}
	}
	b.ReportMetric(float64(wins), "cancellation_wins")
}

// figureScenario builds the two-cluster illustrative scenario shared by the
// figure benchmarks.
func figureScenario(b *testing.B, policy batch.Policy) []*server.Server {
	b.Helper()
	c1, err := server.New(platform.ClusterSpec{Name: "cluster-1", Cores: 4, Speed: 1}, policy)
	if err != nil {
		b.Fatal(err)
	}
	c2, err := server.New(platform.ClusterSpec{Name: "cluster-2", Cores: 4, Speed: 1}, policy)
	if err != nil {
		b.Fatal(err)
	}
	submit := func(s *server.Server, id int, runtime, walltime int64, procs int) {
		j := workload.Job{ID: id, Submit: 0, Runtime: runtime, Walltime: walltime, Procs: procs}
		if err := s.Submit(j, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
	submit(c1, 1, 40, 40, 1)
	submit(c1, 2, 60, 60, 1)
	submit(c1, 3, 20, 80, 1) // finishes early
	submit(c1, 4, 50, 50, 2) // waits, candidate for reallocation
	submit(c1, 5, 40, 40, 2) // waits, candidate for reallocation
	submit(c2, 6, 50, 50, 1)
	submit(c2, 7, 35, 35, 1)
	for _, s := range []*server.Server{c1, c2} {
		if _, err := s.Scheduler().Advance(30); err != nil {
			b.Fatal(err)
		}
	}
	return []*server.Server{c1, c2}
}

// BenchmarkFigure1ReallocationExample regenerates Figure 1: the reallocation
// of waiting tasks from a cluster with an early finish to an idle cluster,
// rendered as ASCII Gantt charts.
func BenchmarkFigure1ReallocationExample(b *testing.B) {
	moves := 0
	for i := 0; i < b.N; i++ {
		servers := figureScenario(b, batch.CBF)
		agent, err := core.NewAgent(servers, core.MCTMapping(), core.ReallocConfig{
			Algorithm: core.WithoutCancellation,
			Heuristic: core.MCT(),
			MinGain:   1,
		})
		if err != nil {
			b.Fatal(err)
		}
		moves, err = agent.Reallocate(30)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range servers {
			snap := s.Scheduler().Snapshot()
			chart := gantt.Chart{Title: s.Name(), Cores: s.Spec().Cores}
			for _, r := range snap.Running {
				chart.Bars = append(chart.Bars, gantt.Bar{Label: fmt.Sprint(r.JobID), Start: r.Start, End: r.End, Procs: r.Procs})
			}
			for _, w := range snap.Waiting {
				chart.Bars = append(chart.Bars, gantt.Bar{Label: fmt.Sprint(w.JobID), Start: w.Start, End: w.End, Procs: w.Procs, Waiting: true})
			}
			if out := chart.Render(0, 160, 2); len(out) == 0 {
				b.Fatal("empty chart")
			}
		}
	}
	b.ReportMetric(float64(moves), "tasks_moved")
}

// BenchmarkFigure2SideEffects regenerates Figure 2: the schedule after a
// reallocation where an early finish delays a large job behind the inserted
// task while other jobs advance.
func BenchmarkFigure2SideEffects(b *testing.B) {
	for i := 0; i < b.N; i++ {
		servers := figureScenario(b, batch.CBF)
		agent, err := core.NewAgent(servers, core.MCTMapping(), core.ReallocConfig{
			Algorithm: core.WithoutCancellation,
			Heuristic: core.MaxGain(),
			MinGain:   1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := agent.Reallocate(30); err != nil {
			b.Fatal(err)
		}
		// The early finish that produces the side effect.
		for _, s := range servers {
			if _, err := s.Scheduler().Advance(60); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Ablation benchmarks -------------------------------------------------

// ablationRun executes one April-slice simulation with the given knobs and
// returns the relative response time against the no-reallocation baseline.
func ablationRun(b *testing.B, mutate func(*gridrealloc.ScenarioConfig)) float64 {
	b.Helper()
	trace, err := gridrealloc.GenerateScenario("apr", 0.02, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	base := gridrealloc.ScenarioConfig{
		Scenario:      "apr",
		Heterogeneity: "heterogeneous",
		Policy:        "CBF",
		Trace:         trace,
	}
	baseline, err := gridrealloc.RunScenario(base)
	if err != nil {
		b.Fatal(err)
	}
	cfg := base
	cfg.Algorithm = "realloc-cancel"
	cfg.Heuristic = "MinMin"
	mutate(&cfg)
	res, err := gridrealloc.RunScenario(cfg)
	if err != nil {
		b.Fatal(err)
	}
	cmp, err := gridrealloc.Compare(baseline, res)
	if err != nil {
		b.Fatal(err)
	}
	return cmp.RelativeResponseTime
}

// BenchmarkAblationReallocationPeriod quantifies the paper's choice of an
// hourly reallocation event against faster and slower periods.
func BenchmarkAblationReallocationPeriod(b *testing.B) {
	for _, period := range []int64{900, 3600, 14400} {
		period := period
		b.Run(fmt.Sprintf("period_%ds", period), func(b *testing.B) {
			var rel float64
			for i := 0; i < b.N; i++ {
				rel = ablationRun(b, func(c *gridrealloc.ScenarioConfig) { c.ReallocPeriodSeconds = period })
			}
			b.ReportMetric(rel, "rel_response")
		})
	}
}

// BenchmarkAblationImprovementThreshold quantifies the one-minute minimum
// gain of Algorithm 1 against no threshold and a ten-minute threshold.
func BenchmarkAblationImprovementThreshold(b *testing.B) {
	for _, gain := range []int64{1, 60, 600} {
		gain := gain
		b.Run(fmt.Sprintf("min_gain_%ds", gain), func(b *testing.B) {
			var rel float64
			for i := 0; i < b.N; i++ {
				rel = ablationRun(b, func(c *gridrealloc.ScenarioConfig) {
					c.Algorithm = "realloc"
					c.MinGainSeconds = gain
				})
			}
			b.ReportMetric(rel, "rel_response")
		})
	}
}

// BenchmarkAblationMappingPolicy compares the MCT initial mapping used by
// the paper against Random and RoundRobin mapping (the degraded modes a
// middleware falls back to without monitoring).
func BenchmarkAblationMappingPolicy(b *testing.B) {
	for _, mapping := range []string{"MCT", "Random", "RoundRobin"} {
		mapping := mapping
		b.Run(mapping, func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				trace, err := gridrealloc.GenerateScenario("mar", 0.02, benchSeed)
				if err != nil {
					b.Fatal(err)
				}
				res, err := gridrealloc.RunScenario(gridrealloc.ScenarioConfig{
					Scenario:      "mar",
					Heterogeneity: "heterogeneous",
					Policy:        "CBF",
					Trace:         trace,
					Mapping:       mapping,
				})
				if err != nil {
					b.Fatal(err)
				}
				mean = gridrealloc.Summarize(res).MeanResponseTime
			}
			b.ReportMetric(mean, "mean_response_s")
		})
	}
}

// BenchmarkAblationBatchPolicy measures the batch substrate itself: the same
// workload scheduled by FCFS and by CBF, without any reallocation.
func BenchmarkAblationBatchPolicy(b *testing.B) {
	for _, policy := range []string{"FCFS", "CBF"} {
		policy := policy
		b.Run(policy, func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				trace, err := gridrealloc.GenerateScenario("apr", 0.02, benchSeed)
				if err != nil {
					b.Fatal(err)
				}
				res, err := gridrealloc.RunScenario(gridrealloc.ScenarioConfig{
					Scenario:      "apr",
					Heterogeneity: "homogeneous",
					Policy:        policy,
					Trace:         trace,
				})
				if err != nil {
					b.Fatal(err)
				}
				mean = gridrealloc.Summarize(res).MeanResponseTime
			}
			b.ReportMetric(mean, "mean_response_s")
		})
	}
}

// --- Micro-benchmarks of the hot paths -----------------------------------

// loadedScheduler builds a batch scheduler with depth waiting jobs.
func loadedScheduler(b *testing.B, policy batch.Policy, depth int) *batch.Scheduler {
	b.Helper()
	s, err := batch.NewScheduler(platform.ClusterSpec{Name: "bench", Cores: 64, Speed: 1}, policy)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < depth; i++ {
		j := workload.Job{ID: i + 1, Submit: 0, Runtime: 600, Walltime: 1800, Procs: 1 + i%32}
		if err := s.Submit(j, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// BenchmarkBatchSubmitCancel measures one submission followed by its
// cancellation (each triggering a plan rebuild) at various queue depths —
// the exact request pair a reallocation move issues against a cluster.
func BenchmarkBatchSubmitCancel(b *testing.B) {
	for _, depth := range []int{10, 100, 1000} {
		depth := depth
		b.Run(fmt.Sprintf("depth_%d", depth), func(b *testing.B) {
			s := loadedScheduler(b, batch.CBF, depth)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := workload.Job{ID: depth + i + 1, Submit: 0, Runtime: 600, Walltime: 1800, Procs: 4}
				if err := s.Submit(j, 0, 0); err != nil {
					b.Fatal(err)
				}
				if _, _, err := s.Cancel(j.ID, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBatchEstimateCompletion measures the middleware's ECT query, the
// operation the reallocation heuristics issue O(n^2) times per pass.
func BenchmarkBatchEstimateCompletion(b *testing.B) {
	for _, depth := range []int{10, 100, 1000} {
		depth := depth
		for _, policy := range []batch.Policy{batch.FCFS, batch.CBF} {
			policy := policy
			b.Run(fmt.Sprintf("%s_depth_%d", policy, depth), func(b *testing.B) {
				s := loadedScheduler(b, policy, depth)
				probe := workload.Job{ID: 999999, Submit: 0, Runtime: 600, Walltime: 1800, Procs: 8}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.EstimateCompletion(probe, 0); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkBatchMassCancel measures the cancel-all pattern Algorithm 2
// issues at the start of every reallocation pass: every waiting job is
// cancelled back-to-back, then the queue is observed once. A scheduler that
// re-plans eagerly after every cancellation pays O(n) rebuilds of O(n) work
// each; a lazily re-planning scheduler pays one rebuild at the final
// observation.
func BenchmarkBatchMassCancel(b *testing.B) {
	for _, depth := range []int{100, 1000} {
		depth := depth
		b.Run(fmt.Sprintf("depth_%d", depth), func(b *testing.B) {
			probe := workload.Job{ID: 999999, Submit: 0, Runtime: 600, Walltime: 1800, Procs: 8}
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := loadedScheduler(b, batch.CBF, depth)
				b.StartTimer()
				for id := 1; id <= depth; id++ {
					if _, _, err := s.Cancel(id, 0); err != nil {
						b.Fatal(err)
					}
				}
				// Observe the queue once so lazy implementations pay their
				// deferred re-plan inside the timed region.
				if _, err := s.EstimateCompletion(probe, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReallocCancelMonthSweep measures a complete month-scenario
// simulation under Algorithm 2 (realloc-cancel), the workload whose periodic
// sweeps issue the O(waiting-jobs x clusters) ECT queries the incremental
// scheduler is designed to absorb.
func BenchmarkReallocCancelMonthSweep(b *testing.B) {
	trace, err := gridrealloc.GenerateScenario("apr", 0.05, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gridrealloc.RunScenario(gridrealloc.ScenarioConfig{
			Scenario: "apr", Heterogeneity: "heterogeneous", Policy: "CBF",
			Trace: trace, Algorithm: "realloc-cancel", Heuristic: "MinMin",
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchDeepQueueReplan measures a full re-plan of a 10000-job
// queue — the deep-queue regime where the re-plan's allocation behaviour
// and per-job slot-search cost dominate everything else the scheduler does.
func BenchmarkBatchDeepQueueReplan(b *testing.B) {
	s := loadedScheduler(b, batch.CBF, 10000)
	probe := workload.Job{ID: 999999, Submit: 0, Runtime: 600, Walltime: 1800, Procs: 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.InvalidatePlan()
		if _, err := s.EstimateCompletion(probe, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// yearTrace builds a year-long workload: twelve copies of the April slice,
// each shifted by one month, with job IDs remapped to stay unique.
func yearTrace(b *testing.B, fraction float64) *workload.Trace {
	b.Helper()
	base, err := gridrealloc.GenerateScenario("apr", fraction, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	const monthSeconds = int64(30 * 24 * 3600)
	jobs := make([]workload.Job, 0, 12*len(base.Jobs))
	id := 1
	for m := 0; m < 12; m++ {
		for _, j := range base.Jobs {
			j.ID = id
			j.Submit += int64(m) * monthSeconds
			id++
			jobs = append(jobs, j)
		}
	}
	tr, err := workload.NewTrace("year", jobs)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkReallocCancelYearSweep measures a year-long simulation under
// Algorithm 2: ~8760 hourly reallocation events over twelve month-shaped
// load waves, the sustained-sweep regime the month benchmark cannot reach.
func BenchmarkReallocCancelYearSweep(b *testing.B) {
	trace := yearTrace(b, 0.01)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gridrealloc.RunScenario(gridrealloc.ScenarioConfig{
			Scenario: "apr", Heterogeneity: "heterogeneous", Policy: "CBF",
			Trace: trace, Algorithm: "realloc-cancel", Heuristic: "MinMin",
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOutageHeavyRealloc measures the April slice with a long
// unannounced outage taking out the first cluster while Algorithm 2 keeps
// requeuing and re-placing the displaced jobs — the capacity-dynamics path
// (reveal, displacement, head-of-queue requeue, plan invalidation) under
// reallocation pressure.
func BenchmarkOutageHeavyRealloc(b *testing.B) {
	trace, err := gridrealloc.GenerateScenario("apr", 0.05, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gridrealloc.RunScenario(gridrealloc.ScenarioConfig{
			Scenario: "apr", Heterogeneity: "heterogeneous", Policy: "CBF",
			Trace: trace, Algorithm: "realloc-cancel", Heuristic: "MinMin",
			OutageStartSeconds:    36000,
			OutageDurationSeconds: 400000,
			OutageSeverity:        1.0,
			OutagePolicy:          "requeue",
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchEstimateCompletionFromScratch measures the same ECT query
// with the incremental machinery defeated: every query pays a from-scratch
// rebuild of the run profile and a full re-plan of the waiting queue, which
// is what a scheduler without the incremental profile does. The ratio
// against BenchmarkBatchEstimateCompletion is the speedup the incremental
// path buys and is recorded in BENCH_batch.json.
func BenchmarkBatchEstimateCompletionFromScratch(b *testing.B) {
	for _, depth := range []int{10, 100, 1000} {
		depth := depth
		for _, policy := range []batch.Policy{batch.FCFS, batch.CBF} {
			policy := policy
			b.Run(fmt.Sprintf("%s_depth_%d", policy, depth), func(b *testing.B) {
				s := loadedScheduler(b, policy, depth)
				probe := workload.Job{ID: 999999, Submit: 0, Runtime: 600, Walltime: 1800, Procs: 8}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.InvalidateRunProfile()
					s.InvalidatePlan()
					if _, err := s.EstimateCompletion(probe, 0); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestWriteBenchBatchBaseline regenerates BENCH_batch.json, the committed
// baseline of the batch-scheduler hot paths. Run it with:
//
//	WRITE_BENCH_BASELINE=1 go test -run TestWriteBenchBatchBaseline .
//
// and commit the refreshed file alongside any change to the scheduler so
// regressions are visible in review.

// hotPath is one committed hot-path measurement: time and allocation count
// per operation. Allocations are tracked alongside time because the profile
// engine's whole design goal is an allocation-free steady state — a change
// that keeps ns/op but reintroduces per-replan allocations is a regression
// the smoke must catch.
type hotPath struct {
	NsPerOp     float64
	AllocsPerOp float64
}

// measure runs one benchmark closure with allocation tracking and returns
// both metrics.
func measure(fn func(b *testing.B)) hotPath {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		fn(b)
	})
	if r.N == 0 {
		return hotPath{}
	}
	return hotPath{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: float64(r.AllocsPerOp()),
	}
}

// measureBatchBaseline reruns the committed hot-path measurements and
// returns them keyed exactly as in BENCH_batch.json. It is shared by the
// baseline writer and the CI bench smoke.
func measureBatchBaseline(t *testing.T) map[string]hotPath {
	t.Helper()
	probe := workload.Job{ID: 999999, Submit: 0, Runtime: 600, Walltime: 1800, Procs: 8}
	cached := measure(func(b *testing.B) {
		s := loadedScheduler(b, batch.CBF, 1000)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.EstimateCompletion(probe, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	scratch := measure(func(b *testing.B) {
		s := loadedScheduler(b, batch.CBF, 1000)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.InvalidateRunProfile()
			s.InvalidatePlan()
			if _, err := s.EstimateCompletion(probe, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The re-plan path: every op forces a full re-plan of the 1000-job
	// queue, the operation the double-buffered profiles make allocation-free.
	replan := measure(func(b *testing.B) {
		s := loadedScheduler(b, batch.CBF, 1000)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.InvalidatePlan()
			if _, err := s.EstimateCompletion(probe, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	submitCancel := measure(func(b *testing.B) {
		s := loadedScheduler(b, batch.CBF, 1000)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := workload.Job{ID: 1000 + i + 1, Submit: 0, Runtime: 600, Walltime: 1800, Procs: 4}
			if err := s.Submit(j, 0, 0); err != nil {
				b.Fatal(err)
			}
			if _, _, err := s.Cancel(j.ID, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	massCancel := measure(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := loadedScheduler(b, batch.CBF, 1000)
			b.StartTimer()
			for id := 1; id <= 1000; id++ {
				if _, _, err := s.Cancel(id, 0); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := s.EstimateCompletion(probe, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The deep-queue re-plan: the 10000-job regime where per-job slot-search
	// cost dominates, which the profile's bucket summaries make sublinear.
	deepReplan := measure(func(b *testing.B) {
		s := loadedScheduler(b, batch.CBF, 10000)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.InvalidatePlan()
			if _, err := s.EstimateCompletion(probe, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The saturated-cluster slot search: every queued job pins 63 of 64
	// cores, so the probe's 8-core window opens only past the entire plan.
	// The zero-prefix firstFree hint cannot help here (every segment keeps
	// one core free); only the bucketed free-core summaries can skip.
	saturated := measure(func(b *testing.B) {
		s, err := batch.NewScheduler(platform.ClusterSpec{Name: "bench", Cores: 64, Speed: 1}, batch.CBF)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 1000; i++ {
			j := workload.Job{ID: i + 1, Submit: 0, Runtime: 600, Walltime: 1800, Procs: 63}
			if err := s.Submit(j, 0, 0); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.EstimateCompletion(probe, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	trace, err := gridrealloc.GenerateScenario("apr", 0.05, benchSeed)
	if err != nil {
		t.Fatal(err)
	}
	monthSweep := measure(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := gridrealloc.RunScenario(gridrealloc.ScenarioConfig{
				Scenario: "apr", Heterogeneity: "heterogeneous", Policy: "CBF",
				Trace: trace, Algorithm: "realloc-cancel", Heuristic: "MinMin",
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The same month sweep on a pooled simulator: the steady-state regime a
	// campaign worker lives in, where only the escaping Result allocates.
	monthSweepPooled := measure(func(b *testing.B) {
		sim := gridrealloc.NewSimulator()
		cfg := gridrealloc.ScenarioConfig{
			Scenario: "apr", Heterogeneity: "heterogeneous", Policy: "CBF",
			Trace: trace, Algorithm: "realloc-cancel", Heuristic: "MinMin",
		}
		if _, err := sim.RunScenario(cfg); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sim.RunScenario(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Campaign throughput: the 72-configuration grid, sequential with a
	// fresh simulator per scenario versus the campaign runner with pooled
	// simulators and one worker per CPU. The smoke derives the campaign
	// speedup from these two.
	grid := grid72Configs()
	gridFresh := measure(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runGrid72Fresh(b, grid)
		}
	})
	gridPooled := measure(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := gridrealloc.RunScenarios(grid, runtime.GOMAXPROCS(0)); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Reset-vs-fresh construction cost on a scenario small enough that the
	// constructor is a visible share of the run.
	tiny := tinyReuseConfig(t)
	tinyFresh := measure(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := gridrealloc.RunScenario(tiny); err != nil {
				b.Fatal(err)
			}
		}
	})
	tinyPooled := measure(func(b *testing.B) {
		sim := gridrealloc.NewSimulator()
		for i := 0; i < b.N; i++ {
			if _, err := sim.RunScenario(tiny); err != nil {
				b.Fatal(err)
			}
		}
	})
	return map[string]hotPath{
		"estimate_completion_cbf_depth_1000":              cached,
		"estimate_completion_from_scratch_cbf_depth_1000": scratch,
		"replan_cbf_depth_1000":                           replan,
		"replan_deep_queue_cbf_depth_10000":               deepReplan,
		"estimate_completion_saturated_cbf_depth_1000":    saturated,
		"submit_cancel_cbf_depth_1000":                    submitCancel,
		"mass_cancel_cbf_depth_1000":                      massCancel,
		"realloc_cancel_month_sweep_apr_5pct":             monthSweep,
		"realloc_cancel_month_sweep_apr_5pct_pooled":      monthSweepPooled,
		"campaign_grid72_fresh_sequential":                gridFresh,
		"campaign_grid72_pooled_parallel":                 gridPooled,
		"sim_tiny_fresh":                                  tinyFresh,
		"sim_tiny_pooled":                                 tinyPooled,
	}
}

func TestWriteBenchBatchBaseline(t *testing.T) {
	if os.Getenv("WRITE_BENCH_BASELINE") == "" {
		t.Skip("set WRITE_BENCH_BASELINE=1 to rewrite BENCH_batch.json")
	}
	measured := measureBatchBaseline(t)
	ns := make(map[string]float64, len(measured))
	allocs := make(map[string]float64, len(measured))
	for name, m := range measured {
		ns[name] = m.NsPerOp
		allocs[name] = m.AllocsPerOp
	}
	cached := ns["estimate_completion_cbf_depth_1000"]
	scratch := ns["estimate_completion_from_scratch_cbf_depth_1000"]
	payload := map[string]any{
		"go":            runtime.Version(),
		"goos":          runtime.GOOS,
		"goarch":        runtime.GOARCH,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"benchtime":     "default (testing.Benchmark)",
		"ns_per_op":     ns,
		"allocs_per_op": allocs,
		"derived": map[string]float64{
			"estimate_speedup_vs_from_scratch": scratch / cached,
			// Campaign wall-clock: fresh sequential vs runner with pooled
			// simulators and GOMAXPROCS workers, over the 72-grid. On this
			// writer's machine; the smoke re-derives it at test time and
			// enforces a floor scaled to the machine's GOMAXPROCS.
			"campaign_grid72_parallel_speedup":          ns["campaign_grid72_fresh_sequential"] / ns["campaign_grid72_pooled_parallel"],
			"sim_tiny_reuse_speedup":                    ns["sim_tiny_fresh"] / ns["sim_tiny_pooled"],
			"campaign_grid72_allocs_saved_per_scenario": (allocs["campaign_grid72_fresh_sequential"] - allocs["campaign_grid72_pooled_parallel"]) / 72,
		},
	}
	data, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_batch.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_batch.json: cached=%.0fns scratch=%.0fns (%.1fx), replan=%.0fns/%.0fallocs, mass_cancel=%.0fns, sweep=%.0fns/%.0fallocs",
		cached, scratch, scratch/cached, ns["replan_cbf_depth_1000"], allocs["replan_cbf_depth_1000"],
		ns["mass_cancel_cbf_depth_1000"], ns["realloc_cancel_month_sweep_apr_5pct"], allocs["realloc_cancel_month_sweep_apr_5pct"])
}

// effectiveCPUs estimates the parallelism actually available to this
// process: GOMAXPROCS capped by the Linux cgroup CPU quota when one is set.
// Go 1.24's GOMAXPROCS is not cgroup-aware, so on a 16-core host whose
// container is limited to 2 CPUs it reports 16 — a speedup floor scaled to
// that would fail the smoke on correct code.
func effectiveCPUs() int {
	cpus := runtime.GOMAXPROCS(0)
	if quota, ok := cgroupCPUQuota(); ok && quota < cpus {
		cpus = quota
	}
	if cpus < 1 {
		cpus = 1
	}
	return cpus
}

// cgroupCPUQuota reads the container CPU limit (cgroup v2 cpu.max, falling
// back to v1 cfs_quota/cfs_period), rounded up to whole CPUs.
func cgroupCPUQuota() (int, bool) {
	if data, err := os.ReadFile("/sys/fs/cgroup/cpu.max"); err == nil {
		var quota, period int64
		if n, _ := fmt.Sscanf(string(data), "%d %d", &quota, &period); n == 2 && quota > 0 && period > 0 {
			return int((quota + period - 1) / period), true
		}
		return 0, false // "max" = no limit
	}
	qb, err1 := os.ReadFile("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
	pb, err2 := os.ReadFile("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
	if err1 == nil && err2 == nil {
		quota, errQ := strconv.ParseInt(strings.TrimSpace(string(qb)), 10, 64)
		period, errP := strconv.ParseInt(strings.TrimSpace(string(pb)), 10, 64)
		if errQ == nil && errP == nil && quota > 0 && period > 0 {
			return int((quota + period - 1) / period), true
		}
	}
	return 0, false
}

// benchSmokeTolerance is how many times slower than the committed baseline a
// hot path may measure before the bench smoke fails. It is deliberately
// generous: CI machines are slower and noisier than the machine that wrote
// the baseline, and the smoke exists to catch order-of-magnitude regressions
// (losing the incremental profile costs ~670x on the ECT path), not
// percentage drift.
const benchSmokeTolerance = 8.0

// benchSmokeAllocTolerance is the allocs/op analogue. Allocation counts are
// far more stable than timings (they do not depend on machine speed), but a
// generous factor plus a small absolute slack still leaves room for Go
// runtime differences; the target is the order-of-magnitude regression of a
// reintroduced clone-per-replan, not single-allocation drift.
const (
	benchSmokeAllocTolerance = 4.0
	benchSmokeAllocSlack     = 16.0
)

// TestBenchSmokeAgainstBaseline reruns the committed hot-path measurements
// and fails when any of them regressed past the generous CI tolerances,
// in ns/op or in allocs/op. It is opt-in (BENCH_SMOKE=1) because timing
// assertions do not belong in the default test run.
func TestBenchSmokeAgainstBaseline(t *testing.T) {
	if os.Getenv("BENCH_SMOKE") == "" {
		t.Skip("set BENCH_SMOKE=1 to compare hot paths against BENCH_batch.json")
	}
	data, err := os.ReadFile("BENCH_batch.json")
	if err != nil {
		t.Fatalf("reading committed baseline: %v", err)
	}
	var baseline struct {
		Gomaxprocs  int                `json:"gomaxprocs"`
		NsPerOp     map[string]float64 `json:"ns_per_op"`
		AllocsPerOp map[string]float64 `json:"allocs_per_op"`
	}
	if err := json.Unmarshal(data, &baseline); err != nil {
		t.Fatalf("parsing BENCH_batch.json: %v", err)
	}
	// Parallel wall-clock baselines only transfer between machines with the
	// same parallel capacity: a pooled-parallel ns/op written on a 1-core
	// machine reads as a huge regression on the same code on 8 cores, and
	// vice versa. When the core counts disagree, the smoke must say it is
	// skipping those comparisons, not silently pass them.
	cpus := effectiveCPUs()
	coresMatch := baseline.Gomaxprocs == 0 || baseline.Gomaxprocs == cpus
	measured := measureBatchBaseline(t)
	for name, want := range baseline.NsPerOp {
		got, ok := measured[name]
		if !ok {
			t.Errorf("baseline entry %q is no longer measured; rewrite BENCH_batch.json", name)
			continue
		}
		t.Logf("%-48s %12.0f ns/op (baseline %12.0f, %.2fx)  %8.0f allocs/op (baseline %8.0f)",
			name, got.NsPerOp, want, got.NsPerOp/want, got.AllocsPerOp, baseline.AllocsPerOp[name])
		if name == "campaign_grid72_pooled_parallel" && !coresMatch {
			t.Logf("NOTICE: skipping %s ns/op comparison: baseline was recorded at gomaxprocs=%d but this runner has %d effective CPUs; parallel wall-clock does not transfer",
				name, baseline.Gomaxprocs, cpus)
		} else if got.NsPerOp > want*benchSmokeTolerance {
			t.Errorf("%s regressed: %.0f ns/op vs baseline %.0f (tolerance %.0fx)", name, got.NsPerOp, want, benchSmokeTolerance)
		}
		// Allocation counts are machine-independent; compare them even when
		// the ns comparison was skipped.
		if wantAllocs, ok := baseline.AllocsPerOp[name]; ok {
			if got.AllocsPerOp > wantAllocs*benchSmokeAllocTolerance+benchSmokeAllocSlack {
				t.Errorf("%s allocation regression: %.0f allocs/op vs baseline %.0f (tolerance %.0fx + %.0f)",
					name, got.AllocsPerOp, wantAllocs, benchSmokeAllocTolerance, benchSmokeAllocSlack)
			}
		}
	}

	// Campaign-throughput smoke: the runner with pooled simulators and one
	// worker per CPU must beat the sequential fresh-build execution of the
	// same 72-grid by a margin scaled to this machine's core count — half-
	// efficiency parallel scaling, capped at the 4x target (reached from 8
	// cores up, and already enforced at 2.2x on a 4-core CI runner). On a
	// single-core machine parallelism cannot win, so the floor only demands
	// that pooling is not a regression (noise margin included). Both sides
	// are measured in this process, so machine speed cancels out.
	fresh := measured["campaign_grid72_fresh_sequential"].NsPerOp
	pooled := measured["campaign_grid72_pooled_parallel"].NsPerOp
	if fresh <= 0 || pooled <= 0 {
		t.Fatalf("campaign throughput unmeasured: fresh=%.0f pooled=%.0f", fresh, pooled)
	}
	speedup := fresh / pooled
	floor := 0.55 * float64(cpus)
	if floor > 4 {
		floor = 4
	}
	if floor < 0.85 {
		floor = 0.85
	}
	if env := os.Getenv("BENCH_SMOKE_MIN_SPEEDUP"); env != "" {
		// Escape hatch for environments whose parallel capacity neither
		// GOMAXPROCS nor the cgroup quota describes.
		if v, err := strconv.ParseFloat(env, 64); err == nil && v > 0 {
			floor = v
		}
	}
	t.Logf("campaign 72-grid: fresh sequential %.1fms, pooled parallel %.1fms (speedup %.2fx, floor %.2fx at %d effective CPUs; baseline writer ran at gomaxprocs=%d)",
		fresh/1e6, pooled/1e6, speedup, floor, cpus, baseline.Gomaxprocs)
	if speedup < floor {
		t.Errorf("campaign runner speedup %.2fx fell below the %.2fx floor for %d effective CPUs", speedup, floor, cpus)
	}
	// The pooled campaign must also allocate strictly less than the fresh
	// one — the allocs-per-scenario collapse is machine-independent.
	freshAllocs := measured["campaign_grid72_fresh_sequential"].AllocsPerOp
	pooledAllocs := measured["campaign_grid72_pooled_parallel"].AllocsPerOp
	if pooledAllocs >= freshAllocs {
		t.Errorf("pooled campaign allocations (%.0f) did not undercut fresh-build allocations (%.0f)", pooledAllocs, freshAllocs)
	} else {
		t.Logf("campaign 72-grid allocations: fresh %.0f, pooled %.0f (%.0f saved per scenario)",
			freshAllocs, pooledAllocs, (freshAllocs-pooledAllocs)/72)
	}
}

// BenchmarkHeuristicSelection measures one heuristic selection step over
// candidate sets of increasing size.
func BenchmarkHeuristicSelection(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		n := n
		cands := make([]core.Candidate, n)
		ests := make([]core.Estimate, n)
		for i := range cands {
			cands[i] = core.Candidate{
				Job:       workload.Job{ID: i + 1, Submit: int64(i), Runtime: 100, Walltime: 300, Procs: 1 + i%16},
				OriginECT: int64(1000 + i*7%911),
			}
			ests[i] = core.Estimate{
				BestECT:      int64(500 + i*13%701),
				SecondECT:    int64(900 + i*17%501),
				BestOtherECT: int64(600 + i*11%401),
			}
		}
		for _, h := range core.Heuristics() {
			h := h
			b.Run(fmt.Sprintf("%s_n%d", h.Name(), n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_ = h.Select(cands, ests)
				}
			})
		}
	}
}

// BenchmarkReallocationPass measures one full reallocation pass (Algorithm 1
// and Algorithm 2) over a loaded two-cluster platform.
func BenchmarkReallocationPass(b *testing.B) {
	build := func() []*server.Server {
		left, _ := server.New(platform.ClusterSpec{Name: "left", Cores: 64, Speed: 1}, batch.CBF)
		right, _ := server.New(platform.ClusterSpec{Name: "right", Cores: 64, Speed: 1.4}, batch.CBF)
		blocker := workload.Job{ID: 100000, Submit: 0, Runtime: 50000, Walltime: 50000, Procs: 64}
		if err := left.Submit(blocker, 0, 0); err != nil {
			b.Fatal(err)
		}
		if _, err := left.Scheduler().Advance(0); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			j := workload.Job{ID: i + 1, Submit: int64(i), Runtime: 300, Walltime: 900, Procs: 1 + i%16}
			if err := left.Submit(j, 0, 0); err != nil {
				b.Fatal(err)
			}
		}
		return []*server.Server{left, right}
	}
	for _, alg := range []core.Algorithm{core.WithoutCancellation, core.WithCancellation} {
		alg := alg
		b.Run(alg.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				servers := build()
				agent, err := core.NewAgent(servers, core.MCTMapping(), core.ReallocConfig{Algorithm: alg, Heuristic: core.MinMin()})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := agent.Reallocate(10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTraceGeneration measures the synthetic workload generator.
func BenchmarkTraceGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := workload.Scenario("apr", 0.05, benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Campaign engine benchmarks ------------------------------------------

// grid72Configs is the 72-configuration A/B grid the campaign benchmarks
// replay (the same grid TestABDigest digests).
func grid72Configs() []gridrealloc.ScenarioConfig { return abConfigs() }

// runGrid72Fresh is the sequential fresh-build baseline: one brand-new
// simulator per scenario, no worker pool — the pre-runner execution model.
func runGrid72Fresh(b *testing.B, cfgs []gridrealloc.ScenarioConfig) {
	b.Helper()
	for _, cfg := range cfgs {
		if _, err := gridrealloc.RunScenario(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignGrid72 measures 72-configuration campaign throughput in
// three execution models: sequential with a fresh simulator per scenario
// (the old model), sequential on one pooled simulator (the reuse win alone),
// and the campaign runner with one pooled simulator per CPU (reuse plus
// parallelism — the spread against fresh_sequential is the campaign
// engine's wall-clock win). All three produce bit-identical results
// (TestSimulatorReuseDigest72Grid).
func BenchmarkCampaignGrid72(b *testing.B) {
	cfgs := grid72Configs()
	scenariosPerSec := func(b *testing.B, elapsed float64) {
		if elapsed > 0 {
			b.ReportMetric(float64(len(cfgs)*b.N)/elapsed, "scenarios/sec")
		}
	}
	b.Run("fresh_sequential", func(b *testing.B) {
		start := nowSeconds()
		for i := 0; i < b.N; i++ {
			runGrid72Fresh(b, cfgs)
		}
		scenariosPerSec(b, nowSeconds()-start)
	})
	b.Run("pooled_sequential", func(b *testing.B) {
		start := nowSeconds()
		for i := 0; i < b.N; i++ {
			sim := gridrealloc.NewSimulator()
			for _, cfg := range cfgs {
				if _, err := sim.RunScenario(cfg); err != nil {
					b.Fatal(err)
				}
			}
		}
		scenariosPerSec(b, nowSeconds()-start)
	})
	b.Run(fmt.Sprintf("pooled_parallel_%d", runtime.GOMAXPROCS(0)), func(b *testing.B) {
		start := nowSeconds()
		for i := 0; i < b.N; i++ {
			if _, err := gridrealloc.RunScenarios(cfgs, runtime.GOMAXPROCS(0)); err != nil {
				b.Fatal(err)
			}
		}
		scenariosPerSec(b, nowSeconds()-start)
	})
}

// nowSeconds is a monotonic clock for custom throughput metrics.
func nowSeconds() float64 { return float64(time.Now().UnixNano()) / 1e9 }

// BenchmarkHarnessCampaign measures randomized-scenario campaign throughput
// through the runner: a fixed batch of harness seeds, each checked by the
// full oracle (five simulations plus invariant verification per seed) on
// pooled simulators, with one worker versus one per CPU. This is the shape
// of the 500-seed gridfuzz campaign at benchmark-friendly size.
func BenchmarkHarnessCampaign(b *testing.B) {
	const seeds = 16
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		workers := workers
		b.Run(fmt.Sprintf("workers_%d", workers), func(b *testing.B) {
			start := nowSeconds()
			for i := 0; i < b.N; i++ {
				runner.StreamCtx(context.Background(), seeds, runner.Options{Workers: workers},
					func(_ context.Context, j int, sim *core.Simulator) (struct{}, error) {
						spec := harness.Generate(uint64(5000 + j))
						return struct{}{}, harness.CheckOn(sim, spec)
					},
					func(j int, _ struct{}, err error) {
						if err != nil {
							b.Errorf("seed %d: %v", j, err)
						}
					})
			}
			if elapsed := nowSeconds() - start; elapsed > 0 {
				b.ReportMetric(float64(seeds*b.N)/elapsed, "scenarios/sec")
			}
		})
	}
}

// tinyReuseConfig is a scenario small enough that simulator construction is
// a visible share of the run: the reset-vs-fresh construction benchmarks and
// baseline keys use it.
func tinyReuseConfig(b testing.TB) gridrealloc.ScenarioConfig {
	b.Helper()
	jobs := make([]workload.Job, 0, 12)
	for i := 0; i < 12; i++ {
		jobs = append(jobs, workload.Job{ID: i + 1, Submit: int64(i * 60), Runtime: 300, Walltime: 600, Procs: 1 + i%8, User: 1})
	}
	trace, err := workload.NewTrace("tiny", jobs)
	if err != nil {
		b.Fatal(err)
	}
	return gridrealloc.ScenarioConfig{
		Scenario:      "jan",
		Heterogeneity: "heterogeneous",
		Policy:        "CBF",
		Trace:         trace,
		Algorithm:     "realloc-cancel",
		Heuristic:     "MinMin",
	}
}

// BenchmarkSimulatorReset measures one tiny scenario run with a fresh
// simulator per run versus on a reused one: the spread is the construction
// cost (schedulers, profiles, maps, event queue) the Reset path avoids, and
// the allocs/op gap is the pooled-state collapse.
func BenchmarkSimulatorReset(b *testing.B) {
	cfg := tinyReuseConfig(b)
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := gridrealloc.RunScenario(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		sim := gridrealloc.NewSimulator()
		for i := 0; i < b.N; i++ {
			if _, err := sim.RunScenario(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBaselineSimulation measures a complete baseline simulation of a
// 1% April slice (about 360 jobs).
func BenchmarkBaselineSimulation(b *testing.B) {
	trace, err := gridrealloc.GenerateScenario("apr", benchFraction, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gridrealloc.RunScenario(gridrealloc.ScenarioConfig{
			Scenario: "apr", Heterogeneity: "heterogeneous", Policy: "CBF", Trace: trace,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
