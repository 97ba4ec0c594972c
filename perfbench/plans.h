// Seeded, pure workload generation for the benchmark.
//
// Every workload is 8 closed-loop clients, one account per client, each
// served by its own middleware.  A workload is a pair of plan sets: the
// setup plans that populate every account's tree, and the measured plans
// the clients then replay.  Generation is a function of (workload, seed,
// size) alone; the program under test only ever sees the plans.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "engine/sharded_engine.h"
#include "h2/h2cloud.h"

namespace h2perf {

inline constexpr std::size_t kClients = 8;

enum class Workload { kHotPoint, kWideList, kNamespaceChurn };

/// Plan sizes.  kFull is what the benchmark measures; kSmoke is a tiny
/// version of the same shape for the benchmark's own tests.
enum class Size { kFull, kSmoke };

std::optional<Workload> ParseWorkload(std::string_view name);
std::string_view WorkloadName(Workload w);

struct WorkloadPlans {
  Workload workload = Workload::kHotPoint;
  std::vector<h2::ShardPlan> setup;
  std::vector<h2::ShardPlan> measure;
  /// Sum of WRITE sizes in the measured plans (user bytes written).
  std::uint64_t measured_write_bytes = 0;
  std::size_t measured_ops = 0;
  /// Chained XxHash64 digest over every generated plan, setup and
  /// measured.
  std::uint64_t digest = 0;
};

WorkloadPlans BuildPlans(Workload w, std::uint64_t seed, Size size);

/// The deployment each workload runs on: one middleware per client, the
/// default 8-node, 3-replica cloud; namespace_churn uses the segment-log
/// backend with an fsync per record (group_commit_window = 0).
h2::H2CloudConfig CloudConfigFor(Workload w);

/// Whether a storage node joins after setup (namespace_churn only).
bool JoinsNodeAfterSetup(Workload w);

/// Engine jitter seed derived from the workload seed.
std::uint64_t JitterSeed(std::uint64_t seed);

}  // namespace h2perf
