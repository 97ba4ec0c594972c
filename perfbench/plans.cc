#include "plans.h"

#include <algorithm>
#include <string_view>

#include "common/rng.h"
#include "hash/fast_hash.h"
#include "workload/loadgen.h"
#include "workload/trace.h"
#include "workload/tree_gen.h"

namespace h2perf {
namespace {

using h2::ShardPlan;
using h2::TraceOp;
using h2::TraceOpKind;

// Measured operations per client.  Sized so one trial's measured phase
// lasts about a second on a 4-core host.
constexpr std::size_t kHotPointOps = 80'000;
constexpr std::size_t kWideListOps = 256;
constexpr std::size_t kChurnOps = 8'000;

// namespace_churn file sizes are capped here.  The generator's size mix
// has a 0.1% tail of multi-GB files; uncapped, the byte-priced metrics
// (virtual op time, stored bytes per user byte) hinge on which handful of
// huge files a seed happens to draw, and swing by 20% from seed to seed.
constexpr std::uint64_t kChurnMaxFileBytes = 1 << 20;

std::uint64_t Derive(std::uint64_t seed, std::uint64_t salt) {
  return h2::SplitMix64(seed * 0x9e3779b97f4a7c15ULL + salt).Next();
}

void SplitLoads(const std::vector<h2::ShardLoad>& loads, WorkloadPlans& out) {
  for (const h2::ShardLoad& load : loads) {
    out.setup.push_back(ShardPlan{load.account, load.setup});
    out.measure.push_back(ShardPlan{load.account, load.ops});
  }
}

void BuildZipf(Workload w, std::uint64_t seed, Size size,
               WorkloadPlans& out) {
  const bool smoke = size == Size::kSmoke;
  h2::LoadgenSpec spec;
  spec.shards = kClients;
  spec.zipf_s = 1.1;
  spec.file_size = 4 * 1024;
  spec.seed = Derive(seed, 1);
  spec.stat_weight = spec.read_weight = spec.list_weight =
      spec.write_weight = 0;
  if (w == Workload::kHotPoint) {
    spec.dirs_per_shard = smoke ? 2 : 16;
    spec.files_per_dir = smoke ? 8 : 256;
    spec.ops_per_shard = smoke ? 200 : kHotPointOps;
    spec.stat_weight = 45;
    spec.read_weight = 35;
    spec.write_weight = 20;
  } else {
    spec.dirs_per_shard = smoke ? 2 : 4;
    spec.files_per_dir = smoke ? 20 : 1'000;
    spec.ops_per_shard = smoke ? 10 : kWideListOps;
    spec.list_weight = 100;
  }
  SplitLoads(h2::BuildZipfLoad(spec), out);
}

void BuildChurn(std::uint64_t seed, Size size, WorkloadPlans& out) {
  const bool smoke = size == Size::kSmoke;
  for (std::size_t s = 0; s < kClients; ++s) {
    h2::TreeSpec spec;
    spec.file_count = smoke ? 30 : 300;
    spec.dir_count = smoke ? 5 : 30;
    spec.max_depth = 6;
    spec.dir_zipf_s = 1.1;
    spec.seed = Derive(seed, 100 + s);
    const h2::GeneratedTree tree = h2::GenerateTree(spec);

    ShardPlan setup{"u" + std::to_string(s), {}};
    for (const std::string& dir : tree.dirs) {
      setup.ops.push_back(TraceOp{TraceOpKind::kMkdir, dir, "", 0});
    }
    for (const h2::FileSpec& file : tree.files) {
      setup.ops.push_back(TraceOp{TraceOpKind::kWrite, file.path, "",
                                  std::min(file.size, kChurnMaxFileBytes)});
    }
    ShardPlan measure{
        "u" + std::to_string(s),
        h2::GenerateTrace(tree, smoke ? 200 : kChurnOps, h2::TraceMix{},
                          Derive(seed, 200 + s))};
    for (TraceOp& op : measure.ops) {
      op.size = std::min(op.size, kChurnMaxFileBytes);
    }
    out.setup.push_back(std::move(setup));
    out.measure.push_back(std::move(measure));
  }
}

}  // namespace

std::optional<Workload> ParseWorkload(std::string_view name) {
  if (name == "hot_point") return Workload::kHotPoint;
  if (name == "wide_list") return Workload::kWideList;
  if (name == "namespace_churn") return Workload::kNamespaceChurn;
  return std::nullopt;
}

std::string_view WorkloadName(Workload w) {
  switch (w) {
    case Workload::kHotPoint: return "hot_point";
    case Workload::kWideList: return "wide_list";
    case Workload::kNamespaceChurn: return "namespace_churn";
  }
  return "?";
}

WorkloadPlans BuildPlans(Workload w, std::uint64_t seed, Size size) {
  WorkloadPlans out;
  out.workload = w;
  if (w == Workload::kNamespaceChurn) {
    BuildChurn(seed, size, out);
  } else {
    BuildZipf(w, seed, size, out);
  }
  // Each field is hashed with the digest so far as its seed, so field
  // boundaries count: ("ab", "c") and ("a", "bc") differ.
  std::uint64_t digest = 0;
  const auto add = [&digest](std::string_view field) {
    digest = h2::XxHash64(field, digest);
  };
  for (const auto* plans : {&out.setup, &out.measure}) {
    for (const ShardPlan& plan : *plans) {
      add(plan.account);
      for (const TraceOp& op : plan.ops) {
        add(std::to_string(static_cast<int>(op.kind)));
        add(op.path);
        add(op.path2);
        add(std::to_string(op.size));
      }
    }
  }
  for (const ShardPlan& plan : out.measure) {
    out.measured_ops += plan.ops.size();
    for (const TraceOp& op : plan.ops) {
      if (op.kind == TraceOpKind::kWrite) out.measured_write_bytes += op.size;
    }
  }
  out.digest = digest;
  return out;
}

h2::H2CloudConfig CloudConfigFor(Workload w) {
  h2::H2CloudConfig cfg;
  cfg.middleware_count = static_cast<int>(kClients);
  if (w == Workload::kNamespaceChurn) {
    cfg.cloud.backend.kind = h2::BackendKind::kSegmentLog;
    cfg.cloud.backend.group_commit_window = 0;
  }
  return cfg;
}

bool JoinsNodeAfterSetup(Workload w) {
  return w == Workload::kNamespaceChurn;
}

std::uint64_t JitterSeed(std::uint64_t seed) { return Derive(seed, 7); }

}  // namespace h2perf
