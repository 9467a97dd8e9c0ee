// Package gridrealloc reproduces the system studied in "Analysis of Tasks
// Reallocation in a Dedicated Grid Environment" (Caniou, Charrier, Desprez,
// INRIA RR-7226, 2010): a multi-cluster grid in which a GridRPC-style
// meta-scheduler maps jobs onto batch-managed clusters and periodically
// reallocates waiting jobs between clusters to absorb walltime
// over-estimation and submission bursts.
//
// The root package is a façade over the internal packages; it is the import
// path downstream users need for the common workflow:
//
//	trace, _ := gridrealloc.GenerateScenario("apr", 0.05, 42)
//	baseline, _ := gridrealloc.RunScenario(gridrealloc.ScenarioConfig{
//	    Scenario: "apr", Heterogeneity: "heterogeneous", Policy: "CBF",
//	    Trace: trace,
//	})
//	realloc, _ := gridrealloc.RunScenario(gridrealloc.ScenarioConfig{
//	    Scenario: "apr", Heterogeneity: "heterogeneous", Policy: "CBF",
//	    Trace: trace, Algorithm: "realloc-cancel", Heuristic: "MinMin",
//	})
//	cmp, _ := gridrealloc.Compare(baseline, realloc)
//	fmt.Printf("relative response time: %.2f\n", cmp.RelativeResponseTime)
//
// The full experiment campaign of the paper (Tables 2 through 17) is driven
// by the experiment package through cmd/experiments; the individual building
// blocks (event engine, batch schedulers, meta-scheduling agent, heuristics,
// metrics) live under internal/ and are documented there.
//
// # Capacity dynamics
//
// Beyond the paper's static platforms, every cluster can carry a capacity
// timeline of bounded windows: announced maintenance windows the batch
// scheduler plans around, and unannounced outages that strike mid-run and
// displace running jobs (killed or requeued per ScenarioConfig.OutagePolicy).
// Scenario names with a "-maint"/"-outage" suffix ("jan-maint",
// "jan-outage") pair a burstier variant of the monthly workload with a
// default window on the first cluster; the OutageCluster, OutageStartSeconds,
// OutageDurationSeconds, OutageSeverity and OutageAnnounced fields place an
// explicit window instead, which is how campaigns sweep outage severity.
// With no capacity events configured, simulation results are bit-identical
// to the static simulator.
//
// # Performance
//
// The batch scheduler is indexed and incremental: jobs are addressed through
// ID maps, running completions come from a min-heap, the running-jobs
// availability profile is maintained as jobs start/finish instead of being
// rebuilt per query, and queue re-planning is deferred until the next
// observation so bursts of mutations (Algorithm 2 cancels every waiting job
// back-to-back) pay for one re-plan. Under FCFS the event loop never
// re-plans: no job may start before the queue head, so the next start is the
// head's earliest slot and a start event starts a prefix of the queue; only
// readers of the plan (estimates, snapshots, listings) bring it up to date.
// After finishes, early starts and cancels, which only free cores, no FCFS
// start can move later, so a reader re-places jobs from the head only until
// one keeps its start after every window that changed (released walltime
// tails, the old windows of moved, early-started and cancelled jobs); from
// there the new plan equals the old one, whose profile is spliced in
// instead of placing the rest of the queue. Any other mutation re-plans the
// whole queue. Profiles deep enough to matter carry
// bucketed free-core summaries (per-bucket max/min over fixed segment
// buckets, maintained exactly by every mutation): slot searches hop whole
// buckets that cannot fit a request and swallow whole buckets that satisfy
// it everywhere, which generalizes the zero-prefix firstFree hint and makes
// deep-queue and saturated-cluster searches effectively sublinear; shallow
// profiles stay below the activation threshold and pay nothing. Per-run
// queue and allocation records come from block arenas (sim.Arena), and each
// run's result digest is folded into an order-independent accumulator
// (sim.DigestAcc) at the instant each record finalizes, so campaign digests
// need no post-pass over the records. The meta-scheduler takes one
// availability snapshot per cluster per reallocation sweep and evaluates
// its ECT matrix lazily: each cluster column carries a version bumped when
// the sweep mutates that cluster, and a stale cell is re-queried only when
// the heuristic reads it. MCT queries only the row of the job it places
// (n*m queries per pass instead of O(n^2)); under Algorithm 2, and for
// Algorithm 1's move destinations, a column's ECTs can only rise, so stale
// cells are lower bounds — MinMin picks from a lazy min-heap and the
// scanning heuristics (which declare the estimate fields they read)
// re-query a row only when a field they read depends on the touched
// cluster. Custom heuristics see fully materialised
// estimates, and every built-in agrees bit for bit with that eager path
// (TestABDigestLazyECT and the fuzz oracle). A from-scratch reference
// implementation remains available behind the explicit invalidation hooks;
// GRIDREALLOC_DEBUG_PROFILE=1 cross-checks the incremental state against it
// on every re-plan. BENCH_batch.json is the committed baseline of the hot
// paths; regenerate it with
//
//	WRITE_BENCH_BASELINE=1 go test -run TestWriteBenchBatchBaseline .
//
// whenever scheduler internals change.
//
// Buffer reuse is the profile engine's invariant that matters to future
// scale-out work: each cluster has one plan buffer, which re-plans and
// append-path submissions update in place (an FCFS re-plan that splices
// builds into a spare and swaps the two), and the scheduler pools its
// queue/allocation records, so the steady-state event loop and re-plan path
// allocate nothing. An EstimateSnapshot owns no profile: it is a view that
// reads the live plan, and a query on a view whose plan changed since it
// was taken re-takes it first, so a view always answers for the cluster's
// current state — the paper's middleware only ever asks for the current
// estimate.
//
// The reallocation sweep is sequential, as in the paper's agent: a
// per-cluster worker pool never ran measurably faster on the benchmark
// workloads, because with lazy ECT evaluation almost no pass holds enough
// work to pay for the goroutine handoff.
//
// # Campaign engine
//
// Campaigns — grids of many configurations, severity sweeps, fuzz batches —
// run through internal/runner: a bounded worker pool in which every worker
// owns one pooled simulator, reused across all scenarios the worker
// executes, with results streaming to the caller as they complete. The
// façade exposes it as Simulator (one pooled context), RunScenarios (an
// index-ordered batch) and RunScenariosStream (streaming); cmd/experiments,
// cmd/gridsim's multi-scenario mode, cmd/gridfuzz and the A/B digest tests
// all route through it.
//
// The reuse contract: every layer of one simulation run — sim.Engine,
// batch.Scheduler, server.Server, the core agent and driver — has a Reset
// path that returns it to its freshly-constructed state while keeping its
// buffers (profiles, heaps, pools, indexes, scratch matrices), and a reset
// component is observationally identical to a fresh one. What survives a
// reset is capacity only, never content: no job, reservation, revealed
// outage, sequence number or counter crosses runs (caller configuration
// such as the outage policy and step limits is reapplied per run by the
// driver). Reuse is proven digest-identical to fresh construction over the
// 72-configuration grid (TestSimulatorReuseDigest72Grid), over random
// harness scenarios (TestSimulatorReuseDigestHarnessSeeds), and on every
// fuzz scenario — harness.CheckOn compares a fresh reference run against
// pooled reruns as part of the oracle.
//
// Inside one run, reallocation sweeps skip work that provably cannot change
// the outcome: a pass with no waiting job anywhere is skipped outright
// (still counted in ReallocationEvents), a cluster whose scheduler state
// version did not move since the previous pass is not re-listed (the cached
// queue view is exact — the version increments on every submission,
// cancellation, start, early finish, reveal or invalidation), and snapshot
// completion estimates are memoised per job shape while the published plan
// is unchanged, reusable whenever the cached start lies at or after the
// query's lower bound. All three are behaviour-neutral by construction and
// covered by the digest grids and the fuzz oracle.
//
// # Fault model
//
// Campaigns are not all-or-nothing. The context-aware entry points
// (RunScenariosCtx, RunScenariosStreamCtx, experiment.RunCtx, and
// runner.RunCtx/StreamCtx underneath) degrade gracefully along four paths:
//
//   - Cancellation: when the context is cancelled (the CLIs wire SIGINT
//     through signal.NotifyContext), workers finish their in-flight
//     scenario, stop claiming new ones and drain completely — no goroutine
//     leaks, every completed result still emitted, and RunStats accounting
//     for every task as completed, failed or skipped. cmd/experiments,
//     cmd/gridsim -scenario and cmd/gridfuzz all print what they completed
//     before exiting non-zero.
//
//   - Deadlines and retries: runner.Options.TaskTimeout bounds each task
//     attempt, and errors marked runner.Transient are retried up to
//     MaxRetries times with linear backoff. Timeouts and retries are
//     counted in RunStats and surfaced through metrics.HealthOf, which
//     grades a campaign clean, recovered or degraded.
//
//   - Panic quarantine: a panicking task is recovered into a structured
//     *runner.TaskError (index, scenario seed, stack) and the campaign
//     continues — but the worker's pooled simulator is discarded and
//     replaced fresh. The quarantine rule is absolute: a panicked simulator
//     never re-enters the pool, because the panic may have interrupted a
//     mutation mid-flight, leaving state outside the Reset contract.
//
//   - Fault injection: internal/faultinject derives a seeded fault plan
//     (panics, transient errors, slow tasks, poisoned-Reset simulators)
//     and installs it into runner workers through a test hook;
//     harness.CheckFaultTolerance asserts that under any plan, non-faulted
//     scenarios stay bit-identical to a fault-free campaign, transient
//     retries converge, RunStats match the plan counter for counter, and
//     no goroutines leak (gridfuzz -faults 50 -seed 42 runs it from the
//     CLI; the same seed replays the same faults). The quarantine digest
//     proof (TestQuarantineDigest72Grid) injects poisoning panics into the
//     72-configuration grid and requires the surviving 69 digests to match
//     fresh runs bit-for-bit.
//
// # Service
//
// cmd/gridd makes the paper's deployed architecture real instead of
// in-process only: a long-running HTTP/JSON daemon (internal/service)
// exposing the restricted cluster-frontal API — POST /v1/submit, /v1/cancel,
// /v1/estimate and GET /v1/list, the observe-and-resubmit surface the
// paper's middleware is limited to — plus POST /v1/campaigns, which runs a
// scenario batch through the campaign engine and streams one NDJSON result
// line per scenario as it completes, ending with a stats trailer. Virtual
// time is per cluster and only moves forward: requests carry their own
// "now" and are clamped to the cluster's current time.
//
// Concurrent campaigns share one bounded pool of pooled simulators through
// the service lease manager (service.LeaseManager, a runner.SimSource):
// Acquire blocks until a slot frees, Release returns the instance for
// reuse, and Discard — taken after any recovered panic — retires the
// instance forever while returning its capacity slot, so the PR 8
// quarantine rule holds across tenants: a poisoned simulator is never
// re-leased, no matter which campaign leases next. The lease table,
// per-instance health state and quarantine counters are visible on /stats.
//
// The daemon is hardened for hostile traffic: admission control bounds
// running and pending campaigns and sheds the excess with 429 +
// Retry-After instead of queueing without bound; every request runs under
// a deadline propagated as a context into runner.RunCtx; bodies are capped
// by http.MaxBytesReader and decoded strictly (unknown fields and trailing
// garbage rejected); a panicking handler answers 500 without taking the
// process down; and every campaign stream write carries its own deadline,
// so a slow reader is cut off rather than pinning a worker. /healthz and
// /stats expose lease state, admission counters, per-cluster
// server.RequestLoad and p50/p99 latency histograms (metrics.Histogram)
// for submit, estimate and campaign serving.
//
// SIGTERM or SIGINT starts a graceful drain: admission stops (503), queued
// waiters are released, in-flight campaigns get half the drain budget to
// finish before being cancelled — partial results and a trailer marked
// draining still flush — and gridd exits 0 on a clean drain, 3 when the
// drain was degraded. harness.CheckServiceFaultTolerance is the service
// leg of the fault oracle: under injected panics, slow tasks and
// mid-stream disconnects, non-faulted campaign digests served over HTTP
// are bit-identical to in-process runs, trailer stats match the fault
// plan exactly, and leakcheck finds zero goroutines after drain.
//
// # Randomized scenario harness
//
// Beyond the paper's fixed campaign, internal/harness draws arbitrary
// scenarios from the whole configuration space — random traces (raw jobs
// and random SiteProfiles), random platforms of 1–16 clusters with mixed
// sizes and speeds, multi-window capacity timelines mixing maintenance and
// outages, every (policy, algorithm, heuristic, outage policy) combination,
// random mapping policies and reallocation periods — and checks an
// invariant oracle over each: digest determinism across repeated runs,
// verification neutrality, lazy == eager ECT evaluation,
// incremental-profile consistency against a from-scratch rebuild,
// reservations bounded by the capacity ceiling, requeue seniority
// ordering, job conservation (every submitted job finishes exactly once),
// SWF round-trips, and zero-capacity inertness.
// The oracle is exposed three ways: the FuzzScenario and FuzzReadSWF native
// fuzz targets (with committed seed corpora), the cmd/gridfuzz CLI
// (gridfuzz -n 500 -seed 42 -parallel 8), and per-run verification through
// core.Config.VerifyInvariants. A failing scenario is always a single
// uint64 seed; reproduce it with
//
//	gridfuzz -replay <seed>
//
// Every future sharding/batching/async refactor is expected to pass a
// gridfuzz campaign in addition to the fixed-grid digests.
//
// # Static invariants
//
// The runtime contracts above — Reset completeness, state-version
// observability, pooled-buffer lifetimes, bit-for-bit determinism — are
// enforced at the source level by internal/lint, a dependency-free suite
// of five analyzers following the golang.org/x/tools go/analysis shape. The interprocedural members share a program-wide
// static call graph (internal/lint/callgraph.go):
//
//   - directives: validates the //gridlint: control comments themselves —
//     unknown (typo'd) directive words are rejected, and suppression
//     directives (keep-across-reset, allow-retain, unordered-ok) must
//     carry a prose justification. A misspelled directive never fails; it
//     silently disarms the check it was meant to configure, which is why
//     this pass exists.
//
//   - resetcomplete: every field of a type marked //gridlint:resettable
//     (batch.Scheduler, sim.Engine, server.Server, core.Agent, the core
//     simulation driver) must be assigned in its Reset method or carry a
//     //gridlint:keep-across-reset directive explaining why stale state is
//     harmless. Coverage follows same-receiver helper methods and plain
//     functions that receive the value as an argument, and walks embedded
//     structs field by field under their promoted names. A new field that
//     Reset forgets is a pooled-simulator cross-contamination bug the
//     72-grid digest may not catch.
//
//   - stateversion: methods of types carrying a stateVersion counter that
//     write middleware-observable state (fields marked
//     //gridlint:observable) must bump the counter on every path — directly,
//     through a same-receiver method, or through a plain helper function —
//     or be annotated //gridlint:stateversion-bumped-by-caller. The
//     directive is verified from the other side too: the call graph is
//     walked and every static caller of a bumped-by-caller method must
//     itself bump (or carry the directive). A missed bump silently disables
//     the dirty-cluster sweep-skipping of the campaign engine.
//
//   - poollife: values returned by //gridlint:pooled functions (such as
//     the Advance notification slice) must not be retained in struct
//     fields, package variables or escaping closures without a copy;
//     intentional ownership transfers carry //gridlint:allow-retain with a
//     justification.
//
//   - determinism: forbids time.Now/Since/Until and the global math/rand
//     functions anywhere in the simulation, requires every map iteration to
//     be annotated //gridlint:unordered-ok (asserting order-insensitivity),
//     and rejects package-level values of //gridlint:stateful types such as
//     MappingPolicy — the fuzz oracle's first real catch.
//
// Run the suite locally with
//
//	go run ./cmd/gridlint ./...
//
// which prints file:line:col diagnostics and exits non-zero when the tree
// is dirty; CI runs it on every push and surfaces the lines as PR
// annotations through a problem matcher. gridlint -json emits the same
// diagnostics as a JSON array for tooling, and gridlint -suppressions
// counts the suppression directives in the tree against the committed
// LINT_SUPPRESSIONS budget — CI fails when a count grows past its budget,
// so the suppression total only ratchets down. The analyzers are
// dependency-free by design (a custom loader type-checks the module with
// go/types), so `go vet -vettool=$(which gridlint) ./...` is not wired up
// today — the vettool protocol needs golang.org/x/tools' unitchecker;
// because the analyzers already follow the analysis.Analyzer shape,
// migrating is mechanical if the module ever takes on that dependency.
// Fixture-based tests (internal/lint/testdata) pin each rule with flagged
// and accepted cases, and TestSuiteCleanOnRealTree keeps the real tree at
// zero diagnostics.
package gridrealloc
