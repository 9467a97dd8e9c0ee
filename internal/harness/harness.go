// Package harness is the randomized trust layer of the simulator: a seeded
// generator that draws arbitrary scenarios from the whole configuration
// space — random synthetic traces, random platforms of 1–16 clusters with
// mixed sizes and speeds, multi-window capacity timelines mixing announced
// maintenance with unannounced outages, every batch policy, reallocation
// algorithm, heuristic and outage policy — paired with an invariant oracle
// that runs each scenario through the full simulator and checks the
// properties every refactor must preserve:
//
//   - determinism: the same spec produces a bit-identical result digest on
//     every run;
//   - verification neutrality: a run with invariant verification enabled
//     produces the same digest as one without;
//   - lazy == eager: the run with its heuristic wrapped by EagerHeuristic,
//     whose sweeps re-query every stale estimate before each Select,
//     produces the same digest as the built-in's lazy evaluation;
//   - scheduler consistency: batch.CheckInvariants (which includes the
//     incremental-vs-from-scratch profile cross-check, the capacity-ceiling
//     reservation bound and the queue seniority ordering that outage
//     requeues rely on) holds after every reallocation pass, at every
//     capacity-window boundary (start and end), and at the end of the run;
//   - job conservation: every submitted job finishes exactly once (killed
//     or not), no record is dropped, times are ordered, and the outage
//     kill/requeue counters agree with the per-job records and the
//     configured policy;
//   - SWF round-trip: the generated trace survives WriteSWF + ReadSWF with
//     every simulated field intact;
//   - zero-capacity inertness: on platforms without capacity windows the
//     outage policy is irrelevant — flipping it cannot change the digest.
//
// The paper's fixed 364-run campaign (and the 72-configuration A/B digest
// grid derived from it) exercises seven hand-picked workloads; the harness
// exists so that sharding, batching and async refactors can be trusted over
// scenarios nobody enumerated. Entry points: Generate builds a Spec from a
// seed, Check runs the oracle, the FuzzScenario fuzz target mutates seeds,
// and cmd/gridfuzz fans seeds over a worker pool
// (gridfuzz -n 500 -seed 42 -parallel 8; gridfuzz -replay <seed>
// reproduces one failure).
package harness
