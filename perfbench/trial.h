// One benchmark trial: a fresh H2Cloud, populated by the setup plans,
// driven by the measured plans, drained to quiescence, and checked
// against the reference model.
//
// The untraced trial goes through the sharded engine (RunSharded) and
// yields the end-to-end metrics.  The traced trial replays the same plans
// through the same public calls with spans around every call into a
// lower layer, and yields the per-layer metrics.  Both end in the same
// cloud state; the traced run proves it by comparing state digests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "model.h"
#include "plans.h"
#include "stats.h"

namespace h2perf {

/// Everything a trial needs, built once per run.
struct Bench {
  WorkloadPlans plans;
  /// Per-client reference state after the setup and measured plans.
  std::vector<ReferenceFs> expected;
  /// Ops the reference model rejected while replaying the plans (a
  /// generator or model defect: any entry fails the run).
  std::vector<std::string> model_rejects;
  std::uint64_t jitter_seed = 0;
  int threads = 1;
};

Bench MakeBench(Workload w, std::uint64_t seed, Size size, int threads);

struct TrialOutcome {
  MetricSet metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;  // empty iff the trial was correct
  std::uint64_t state_digest = 0;     // Fnv1a64 of ObjectCloud::DebugDump()
  std::size_t maint_steps = 0;
  double ops_per_s = 0;
};

/// Untraced trial through RunSharded at `threads` worker threads.  Sets
/// the end-to-end metrics (error_rate is reported by the traced run).
/// The state digest is computed only when `want_digest`.
TrialOutcome RunUntracedTrial(const Bench& bench, int threads,
                              bool want_digest);

/// One timed set-up on its own (a fresh cloud, the setup plans, the first
/// run to quiescence), torn down again: its `setup_s`.
double TimeSetUp(const Bench& bench, int threads);

/// Traced trial: per-layer metrics except the engine and trace-overhead
/// ones, which need the untraced and serial trials as well.
TrialOutcome RunTracedTrial(const Bench& bench);

}  // namespace h2perf
