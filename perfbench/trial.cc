#include "trial.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <ctime>
#include <memory>
#include <stdexcept>
#include <thread>

#include "common/rng.h"
#include "engine/sharded_engine.h"
#include "fs/path.h"
#include "h2/h2cloud.h"
#include "hash/fast_hash.h"
#include "workload/trace.h"

namespace h2perf {
namespace {

using Clock = std::chrono::steady_clock;
using h2::H2Cloud;
using h2::TraceOp;
using h2::TraceOpKind;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

void Require(const h2::Status& status, const std::string& what) {
  if (!status.ok()) {
    throw std::runtime_error(what + ": " + status.ToString());
  }
}

// --- deployment ------------------------------------------------------------

struct Deployment {
  std::unique_ptr<H2Cloud> cloud;
  double setup_s = 0;
};

h2::EngineOptions EngineOptionsFor(const Bench& bench, int threads) {
  h2::EngineOptions opts;
  opts.threads = threads;
  opts.jitter_seed = bench.jitter_seed;
  return opts;
}

/// Builds the cloud, replays the setup plans, drains maintenance; then,
/// outside the timed set-up, joins a storage node when the workload asks
/// for one (its rebalance queue drains in the post-measure maintenance).
Deployment Deploy(const Bench& bench, int threads) {
  Deployment d;
  const Clock::time_point t0 = Clock::now();
  d.cloud = std::make_unique<H2Cloud>(CloudConfigFor(bench.plans.workload));
  h2::EngineOptions opts = EngineOptionsFor(bench, threads);
  opts.collect_latencies = false;
  h2::Result<h2::EngineReport> report =
      h2::RunSharded(*d.cloud, bench.plans.setup, opts);
  Require(report.status(), "setup replay");
  if (report->failures != 0) {
    throw std::runtime_error("setup replay: " +
                             std::to_string(report->failures) +
                             " operations failed");
  }
  d.cloud->RunMaintenanceToQuiescence();
  // Each RunSharded call derives its shard clock domains from the global
  // clock, which the setup replay's shard domains ran ahead of.  Without
  // this advance the measured replay can mint timestamps older than the
  // setup's, and newest-wins revives removed and moved files.
  d.cloud->cloud().clock().Advance(
      static_cast<h2::VirtualNanos>(bench.plans.setup.size() + 1) *
      opts.clock_stride);
  d.setup_s = Seconds(t0, Clock::now());
  if (JoinsNodeAfterSetup(bench.plans.workload)) {
    Require(d.cloud->AddStorageNode().status(), "AddStorageNode");
  }
  return d;
}

// --- correctness -------------------------------------------------------------

/// Walks one account's whole tree through the public API and collects
/// what a client observes: names, kinds, sizes and file samples.
std::map<std::string, ModelNode> ObserveTree(h2::H2AccountFs& fs,
                                             std::vector<std::string>& problems) {
  std::map<std::string, ModelNode> seen;
  std::vector<std::string> pending{"/"};
  while (!pending.empty()) {
    const std::string dir = pending.back();
    pending.pop_back();
    h2::Result<std::vector<h2::DirEntry>> entries =
        fs.List(dir, h2::ListDetail::kDetailed);
    if (!entries.ok()) {
      problems.push_back("LIST " + dir + ": " + entries.status().ToString());
      continue;
    }
    for (const h2::DirEntry& entry : *entries) {
      const std::string path = h2::JoinPath(dir, entry.name);
      if (entry.kind == h2::EntryKind::kDirectory) {
        seen[path] = ModelNode{true, "", 0};
        pending.push_back(path);
        continue;
      }
      h2::Result<h2::FileInfo> info = fs.Stat(path);
      h2::Result<h2::FileBlob> blob = fs.ReadFile(path);
      if (!info.ok() || !blob.ok()) {
        problems.push_back("STAT/READ " + path + " failed");
        continue;
      }
      if (info->size != entry.size || blob->logical_size != entry.size) {
        problems.push_back("size disagreement at " + path + ": list " +
                           std::to_string(entry.size) + ", stat " +
                           std::to_string(info->size) + ", read " +
                           std::to_string(blob->logical_size));
      }
      seen[path] = ModelNode{false, blob->data, blob->logical_size};
    }
  }
  return seen;
}

std::string Describe(const std::string& path, const ModelNode* node) {
  if (node == nullptr) return path + " absent";
  if (node->is_dir) return path + " dir";
  return path + " file size " + std::to_string(node->size) + " sample '" +
         node->data + "'";
}

void CompareTrees(const std::string& account,
                  const std::map<std::string, ModelNode>& want,
                  const std::map<std::string, ModelNode>& got,
                  std::vector<std::string>& problems) {
  std::size_t reported = 0;
  auto report = [&](const std::string& path, const ModelNode* w,
                    const ModelNode* g) {
    if (++reported > 5) return;
    problems.push_back(account + ": expected " + Describe(path, w) +
                       ", observed " + Describe(path, g));
  };
  auto wi = want.begin();
  auto gi = got.begin();
  while (wi != want.end() || gi != got.end()) {
    if (gi == got.end() || (wi != want.end() && wi->first < gi->first)) {
      report(wi->first, &wi->second, nullptr);
      ++wi;
    } else if (wi == want.end() || gi->first < wi->first) {
      report(gi->first, nullptr, &gi->second);
      ++gi;
    } else {
      if (!(wi->second == gi->second)) {
        report(wi->first, &wi->second, &gi->second);
      }
      ++wi;
      ++gi;
    }
  }
}

void Verify(H2Cloud& cloud, const Bench& bench,
            std::vector<std::string>& problems) {
  if (const std::size_t pending = cloud.cloud().RebalancePending();
      pending != 0) {
    problems.push_back("RebalancePending() = " + std::to_string(pending));
  }
  if (const std::uint64_t divergent = cloud.cloud().DivergentKeyCount();
      divergent != 0) {
    problems.push_back("DivergentKeyCount() = " + std::to_string(divergent));
  }
  // Accounts are checked in parallel, one session per account on its own
  // middleware, as the engine runs them.
  const std::size_t accounts = bench.plans.measure.size();
  const std::size_t threads = std::min<std::size_t>(
      static_cast<std::size_t>(std::max(1, bench.threads)), accounts);
  std::vector<std::vector<std::string>> found(accounts);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = t; i < accounts; i += threads) {
        const std::string& account = bench.plans.measure[i].account;
        h2::Result<std::unique_ptr<h2::H2AccountFs>> fs =
            cloud.OpenFilesystem(account, i);
        if (!fs.ok()) {
          found[i].push_back("open " + account + ": " +
                             fs.status().ToString());
          continue;
        }
        CompareTrees(account, bench.expected[i].nodes(),
                     ObserveTree(**fs, found[i]), found[i]);
      }
    });
  }
  for (std::thread& worker : pool) worker.join();
  for (const std::vector<std::string>& f : found) {
    problems.insert(problems.end(), f.begin(), f.end());
  }
}

std::uint64_t StateDigest(H2Cloud& cloud) {
  return h2::Fnv1a64(cloud.cloud().DebugDump());
}

double StoredBytesPerUserByte(H2Cloud& cloud, const Bench& bench) {
  std::uint64_t stored = 0;
  for (std::size_t i = 0; i < cloud.cloud().node_count(); ++i) {
    stored += cloud.cloud().node(i).logical_bytes();
  }
  std::uint64_t user = 0;
  for (const ReferenceFs& model : bench.expected) user += model.live_bytes();
  return Ratio(static_cast<double>(stored), static_cast<double>(user));
}

// --- layer counters ------------------------------------------------------------

/// Cumulative counters the program exports, summed over middlewares and
/// storage nodes; the traced run reports measured-phase deltas.
struct Counters {
  std::uint64_t patches = 0;
  std::uint64_t resolve_hits = 0;
  std::uint64_t resolve_misses = 0;
  std::uint64_t resolve_invalidations = 0;
  std::uint64_t read_repairs = 0;
  std::uint64_t hints_queued = 0;
  std::uint64_t backend_records = 0;
  std::uint64_t backend_fsyncs = 0;
  std::uint64_t backend_bytes = 0;
};

Counters ReadCounters(H2Cloud& cloud) {
  Counters c;
  for (std::size_t i = 0; i < cloud.middleware_count(); ++i) {
    const h2::H2Counters mw = cloud.middleware(i).counters();
    c.patches += mw.patches_submitted;
    c.resolve_hits += mw.resolve_cache_hits;
    c.resolve_misses += mw.resolve_cache_misses;
    c.resolve_invalidations += mw.resolve_cache_invalidations;
  }
  const h2::ObjectCloud::RepairStats repair = cloud.cloud().repair_stats();
  c.read_repairs = repair.read_repairs_pushed;
  c.hints_queued = repair.hints_queued;
  for (std::size_t i = 0; i < cloud.cloud().node_count(); ++i) {
    const h2::BackendStats b = cloud.cloud().node(i).backend_stats();
    c.backend_records += b.puts_applied + b.deletes_applied;
    c.backend_fsyncs += b.fsyncs;
    c.backend_bytes += b.appended_bytes;
  }
  return c;
}

// --- traced replay ---------------------------------------------------------------

constexpr std::array<std::pair<TraceOpKind, const char*>, 10> kApiKinds = {{
    {TraceOpKind::kStat, "stat"},
    {TraceOpKind::kRead, "read"},
    {TraceOpKind::kWrite, "write"},
    {TraceOpKind::kList, "list"},
    {TraceOpKind::kMkdir, "mkdir"},
    {TraceOpKind::kMove, "move"},
    {TraceOpKind::kRename, "rename"},
    {TraceOpKind::kCopy, "copy"},
    {TraceOpKind::kRemove, "remove"},
    {TraceOpKind::kRmdir, "rmdir"},
}};

struct KindSpans {
  std::vector<double> us;  // wall latency per op
  double busy_s = 0;
};

/// One client of the traced replay: the shard context RunSharded would
/// build, plus its spans.
struct TracedShard {
  const h2::ShardPlan* plan = nullptr;
  std::unique_ptr<h2::H2AccountFs> fs;
  std::unique_ptr<h2::SimClock> clock;
  std::unique_ptr<h2::Rng> jitter;
  std::array<KindSpans, h2::kTraceOpKinds> kinds;
  h2::OpCost cost;
  std::size_t failures = 0;
};

/// RunSharded's measured phase, call for call, with a span per op.
double TracedReplay(H2Cloud& cloud, const Bench& bench,
                    std::vector<TracedShard>& shards) {
  const h2::EngineOptions opts = EngineOptionsFor(bench, bench.threads);
  const std::vector<h2::ShardPlan>& plans = bench.plans.measure;
  shards.resize(plans.size());
  const h2::VirtualNanos epoch = cloud.cloud().clock().Now();
  for (std::size_t i = 0; i < plans.size(); ++i) {
    TracedShard& shard = shards[i];
    shard.plan = &plans[i];
    const h2::Status created = cloud.CreateAccount(plans[i].account);
    if (!created.ok() && created.code() != h2::ErrorCode::kAlreadyExists) {
      Require(created, "CreateAccount");
    }
    h2::Result<std::unique_ptr<h2::H2AccountFs>> fs =
        cloud.OpenFilesystem(plans[i].account, i);
    Require(fs.status(), "OpenFilesystem");
    shard.fs = std::move(*fs);
    shard.clock = std::make_unique<h2::SimClock>(
        epoch + static_cast<h2::VirtualNanos>(i + 1) * opts.clock_stride);
    shard.jitter = std::make_unique<h2::Rng>(
        h2::SplitMix64(opts.jitter_seed + i).Next());
    shard.fs->BindExecutionContext(shard.clock.get(), shard.jitter.get());
  }

  auto run_shard = [](TracedShard& shard) {
    for (const TraceOp& op : shard.plan->ops) {
      const Clock::time_point t0 = Clock::now();
      const h2::Status status = h2::ApplyTraceOp(*shard.fs, op);
      const double s = Seconds(t0, Clock::now());
      KindSpans& kind = shard.kinds[static_cast<std::size_t>(op.kind)];
      kind.us.push_back(s * 1e6);
      kind.busy_s += s;
      if (!status.ok()) ++shard.failures;
      shard.cost += shard.fs->last_op();
    }
  };
  const std::size_t threads = std::min<std::size_t>(
      static_cast<std::size_t>(std::max(1, opts.threads)), shards.size());
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&shards, &run_shard, threads, t] {
      for (std::size_t i = t; i < shards.size(); i += threads) {
        run_shard(shards[i]);
      }
    });
  }
  for (std::thread& worker : pool) worker.join();
  const double wall = Seconds(t0, Clock::now());
  for (TracedShard& shard : shards) {
    shard.fs->BindExecutionContext(nullptr, nullptr);
  }
  return wall;
}

struct Lane {
  double s = 0;
  std::uint64_t work = 0;
};

template <typename F>
std::size_t Span(Lane& lane, F&& call) {
  const Clock::time_point t0 = Clock::now();
  const std::size_t work = call();
  lane.s += Seconds(t0, Clock::now());
  lane.work += work;
  return work;
}

/// RunMaintenanceToQuiescence, lane for lane, with a span per lane call.
void TracedMaintenance(H2Cloud& cloud, MetricSet& m, std::size_t& steps) {
  Lane merge, cleanup, compact, gossip, repair, rebalance;
  steps = 0;
  while (steps < 10'000) {
    ++steps;
    std::size_t work = 0;
    for (std::size_t i = 0; i < cloud.middleware_count(); ++i) {
      h2::H2Middleware& mw = cloud.middleware(i);
      work += Span(merge, [&] { return mw.MergePending(); });
      work += Span(cleanup, [&] { return mw.RunLazyCleanup(256); });
      work += Span(compact, [&] { return mw.CompactRingHistory(64); });
    }
    work += Span(gossip, [&] { return cloud.gossip().Step(); });
    work += Span(repair, [&] { return cloud.cloud().RunRepairStep(); });
    work += Span(rebalance, [&] { return cloud.cloud().RunRebalanceStep(); });
    if (work == 0) {
      bool idle = cloud.gossip().Idle();
      for (std::size_t i = 0; i < cloud.middleware_count(); ++i) {
        idle = idle && cloud.middleware(i).MaintenanceIdle();
      }
      if (idle) break;
    }
  }
  m.Set("maint.steps", static_cast<double>(steps), "count");
  m.Set("maint.merge_s", merge.s, "s");
  m.Set("maint.cleanup_s", cleanup.s, "s");
  m.Set("maint.compact_s", compact.s, "s");
  m.Set("maint.gossip_s", gossip.s, "s");
  m.Set("maint.repair_s", repair.s, "s");
  m.Set("maint.rebalance_s", rebalance.s, "s");
  m.Set("maint.merge_work", static_cast<double>(merge.work), "count");
  m.Set("maint.cleanup_work", static_cast<double>(cleanup.work), "count");
  m.Set("maint.gossip_deliveries", static_cast<double>(gossip.work), "count");
  m.Set("maint.rebalance_keys", static_cast<double>(rebalance.work), "count");
  m.Set("gossip.us_per_delivery",
        Ratio(gossip.s * 1e6, static_cast<double>(gossip.work)), "us");
}

// --- read-only probes ------------------------------------------------------------

/// Mean nanoseconds per call of `call(i)` over `calls` calls.
template <typename F>
double NanosPerCall(std::size_t calls, F&& call) {
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < calls; ++i) call(i);
  return Seconds(t0, Clock::now()) * 1e9 / static_cast<double>(calls);
}

/// Up to `n` evenly spaced elements of a sorted key list.
std::vector<std::string> Sample(const std::vector<std::string>& keys,
                                std::size_t n) {
  std::vector<std::string> out;
  if (keys.empty()) return out;
  const std::size_t step = std::max<std::size_t>(1, keys.size() / n);
  for (std::size_t i = 0; i < keys.size() && out.size() < n; i += step) {
    out.push_back(keys[i]);
  }
  return out;
}

std::vector<std::string> NodeKeys(h2::StorageNode& node) {
  std::vector<std::string> keys;
  node.ForEach([&keys](const std::string& key, const h2::ObjectValue&) {
    keys.push_back(key);
  });
  return keys;
}

constexpr std::size_t kProbeKeys = 2'048;
constexpr std::size_t kProbeCalls = 20'000;

void Probe(H2Cloud& cloud, const Bench& bench, MetricSet& m) {
  // mw: a full-path resolve of every directory, cache warm.
  std::vector<std::pair<std::size_t, std::string>> dirs;
  for (std::size_t i = 0; i < bench.expected.size(); ++i) {
    dirs.emplace_back(i, "/");
    for (const auto& [path, node] : bench.expected[i].nodes()) {
      if (node.is_dir) dirs.emplace_back(i, path);
    }
  }
  std::vector<std::unique_ptr<h2::H2AccountFs>> sessions;
  for (std::size_t i = 0; i < bench.plans.measure.size(); ++i) {
    auto fs = cloud.OpenFilesystem(bench.plans.measure[i].account, i);
    Require(fs.status(), "OpenFilesystem");
    sessions.push_back(std::move(*fs));
  }
  h2::OpMeter meter;
  m.Set("mw.resolve.us",
        NanosPerCall(kProbeCalls,
                     [&](std::size_t i) {
                       const auto& [shard, path] = dirs[i % dirs.size()];
                       h2::H2AccountFs& fs = *sessions[shard];
                       Require(fs.middleware()
                                   .ResolvePath(fs.root(), path, meter)
                                   .status(),
                               "ResolvePath");
                     }) *
            1e-3,
        "us");

  // cloud / ring: live keys from every node, deduplicated.
  h2::ObjectCloud& oc = cloud.cloud();
  std::vector<std::string> all;
  for (std::size_t i = 0; i < oc.node_count(); ++i) {
    std::vector<std::string> keys = NodeKeys(oc.node(i));
    all.insert(all.end(), keys.begin(), keys.end());
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  std::vector<std::string> live;
  for (std::string& key : Sample(all, kProbeKeys)) {
    if (oc.Head(key, meter).ok()) live.push_back(std::move(key));
  }
  if (live.empty()) throw std::runtime_error("no live keys to probe");
  m.Set("cloud.head.us", NanosPerCall(kProbeCalls, [&](std::size_t i) {
          Require(oc.Head(live[i % live.size()], meter).status(), "Head");
        }) * 1e-3,
        "us");
  m.Set("cloud.get.us", NanosPerCall(kProbeCalls, [&](std::size_t i) {
          Require(oc.Get(live[i % live.size()], meter).status(), "Get");
        }) * 1e-3,
        "us");
  const std::size_t lanes = std::min<std::size_t>(1'000, live.size());
  constexpr std::size_t kBatches = 20;
  m.Set("cloud.batch.us_per_lane",
        NanosPerCall(kBatches,
                     [&](std::size_t) {
                       std::vector<h2::BatchOp> ops;
                       ops.reserve(lanes);
                       for (std::size_t i = 0; i < lanes; ++i) {
                         ops.push_back(h2::BatchOp::Head(live[i]));
                       }
                       for (const h2::BatchResult& r :
                            oc.ExecuteBatch(std::move(ops), meter)) {
                         Require(r.status, "ExecuteBatch");
                       }
                     }) *
            1e-3 / static_cast<double>(lanes),
        "us");
  m.Set("ring.lookup.ns", NanosPerCall(kProbeCalls * 10, [&](std::size_t i) {
          (void)oc.PrimaryDeviceOf(live[i % live.size()]);
        }),
        "ns");

  // node: direct StorageNode reads of keys node 0 holds.
  h2::StorageNode& node = oc.node(0);
  std::vector<std::string> held;
  for (std::string& key : Sample(NodeKeys(node), kProbeKeys)) {
    if (node.Head(key).ok()) held.push_back(std::move(key));
  }
  if (held.empty()) throw std::runtime_error("node 0 holds no live keys");
  m.Set("node.head.ns", NanosPerCall(kProbeCalls * 5, [&](std::size_t i) {
          Require(node.Head(held[i % held.size()]).status(), "node Head");
        }),
        "ns");
  m.Set("node.get.ns", NanosPerCall(kProbeCalls * 5, [&](std::size_t i) {
          Require(node.Get(held[i % held.size()]).status(), "node Get");
        }),
        "ns");
}

}  // namespace

// --- public entry points -------------------------------------------------------------

Bench MakeBench(Workload w, std::uint64_t seed, Size size, int threads) {
  Bench bench;
  bench.plans = BuildPlans(w, seed, size);
  bench.jitter_seed = JitterSeed(seed);
  bench.threads = threads;
  bench.expected.resize(bench.plans.setup.size());
  for (const auto* plans : {&bench.plans.setup, &bench.plans.measure}) {
    for (std::size_t i = 0; i < plans->size(); ++i) {
      for (const TraceOp& op : (*plans)[i].ops) {
        if (!bench.expected[i].Apply(op)) {
          bench.model_rejects.push_back(
              (*plans)[i].account + " " +
              std::string(h2::TraceOpName(op.kind)) + " " + op.path + " " +
              op.path2);
        }
      }
    }
  }
  return bench;
}

TrialOutcome RunUntracedTrial(const Bench& bench, int threads,
                              bool want_digest) {
  TrialOutcome out;
  Deployment d = Deploy(bench, threads);
  H2Cloud& cloud = *d.cloud;

  h2::EngineOptions opts = EngineOptionsFor(bench, threads);
  opts.collect_latencies = true;
  const double cpu0 = ProcessCpuSeconds();
  h2::Result<h2::EngineReport> report =
      h2::RunSharded(cloud, bench.plans.measure, opts);
  const double cpu1 = ProcessCpuSeconds();
  Require(report.status(), "measured replay");
  const Clock::time_point m0 = Clock::now();
  out.maint_steps = cloud.RunMaintenanceToQuiescence();
  const double maint_s = Seconds(m0, Clock::now());

  if (want_digest) out.state_digest = StateDigest(cloud);
  Verify(cloud, bench, out.problems);

  const double ops = static_cast<double>(report->ops);
  out.attempted = report->ops;
  out.failed = report->failures;
  out.ops_per_s = report->ops_per_sec;
  MetricSet& m = out.metrics;
  m.Set("ops_per_s", report->ops_per_sec, "ops/s");
  m.Set("lat_p50_us", report->p50_ms * 1e3, "us");
  m.Set("lat_p99_us", report->p99_ms * 1e3, "us");
  m.Set("cpu_us_per_op", Ratio((cpu1 - cpu0) * 1e6, ops), "us");
  m.Set("virt_ms_per_op", Ratio(report->virtual_cost.elapsed_ms(), ops), "ms");
  m.Set("prims_per_op",
        Ratio(static_cast<double>(report->virtual_cost.object_primitives()),
              ops),
        "count");
  m.Set("maint_s", maint_s, "s");
  m.Set("setup_s", d.setup_s, "s");
  m.Set("peak_rss_mb", PeakRssMiB(), "MiB");
  m.Set("stored_bytes_per_user_byte", StoredBytesPerUserByte(cloud, bench),
        "ratio");
  return out;
}

double TimeSetUp(const Bench& bench, int threads) {
  return Deploy(bench, threads).setup_s;
}

TrialOutcome RunTracedTrial(const Bench& bench) {
  TrialOutcome out;
  Deployment d = Deploy(bench, bench.threads);
  H2Cloud& cloud = *d.cloud;

  const Counters before = ReadCounters(cloud);
  std::vector<TracedShard> shards;
  const double wall = TracedReplay(cloud, bench, shards);
  const Counters after = ReadCounters(cloud);

  MetricSet& m = out.metrics;
  TracedMaintenance(cloud, m, out.maint_steps);
  out.state_digest = StateDigest(cloud);
  Verify(cloud, bench, out.problems);
  Probe(cloud, bench, m);

  // api: per-kind latency and share of busy time.
  std::array<KindSpans, h2::kTraceOpKinds> kinds;
  h2::OpCost cost;
  for (TracedShard& shard : shards) {
    for (std::size_t k = 0; k < h2::kTraceOpKinds; ++k) {
      kinds[k].us.insert(kinds[k].us.end(), shard.kinds[k].us.begin(),
                         shard.kinds[k].us.end());
      kinds[k].busy_s += shard.kinds[k].busy_s;
    }
    cost += shard.cost;
    out.failed += shard.failures;
  }
  double busy = 0;
  for (const KindSpans& k : kinds) {
    busy += k.busy_s;
    out.attempted += k.us.size();
  }
  const double ops = static_cast<double>(out.attempted);
  out.ops_per_s = Ratio(ops, wall);
  m.Set("error_rate", Ratio(static_cast<double>(out.failed), ops),
        "fraction");
  for (const auto& [kind, name] : kApiKinds) {
    KindSpans& k = kinds[static_cast<std::size_t>(kind)];
    const std::string prefix = std::string("api.") + name;
    m.Set(prefix + ".p50_us", NearestRankPercentile(k.us, 50), "us");
    m.Set(prefix + ".p99_us", NearestRankPercentile(k.us, 99), "us");
    m.Set(prefix + ".share", Ratio(k.busy_s, busy), "fraction");
  }

  // mw
  const double hits = static_cast<double>(after.resolve_hits - before.resolve_hits);
  const double misses =
      static_cast<double>(after.resolve_misses - before.resolve_misses);
  m.Set("mw.resolve.hit_ratio", Ratio(hits, hits + misses), "fraction");
  m.Set("mw.resolve.invalidations_per_kop",
        Ratio(1e3 * static_cast<double>(after.resolve_invalidations -
                                         before.resolve_invalidations),
              ops),
        "count/kop");
  m.Set("mw.patches_per_op",
        Ratio(static_cast<double>(after.patches - before.patches), ops),
        "count");

  // cloud: foreground primitives from the per-op cost deltas.
  auto per_op = [ops](std::uint64_t n) {
    return Ratio(static_cast<double>(n), ops);
  };
  m.Set("cloud.gets_per_op", per_op(cost.gets), "count");
  m.Set("cloud.heads_per_op", per_op(cost.heads), "count");
  m.Set("cloud.puts_per_op", per_op(cost.puts), "count");
  m.Set("cloud.deletes_per_op", per_op(cost.deletes), "count");
  m.Set("cloud.copies_per_op", per_op(cost.copies), "count");
  m.Set("cloud.batch.lanes_per_op", per_op(cost.batched_ops), "count");
  m.Set("cloud.batch.mean_width", cost.mean_batch_width(), "count");
  m.Set("cloud.read_repairs",
        static_cast<double>(after.read_repairs - before.read_repairs),
        "count");
  m.Set("cloud.hints_queued",
        static_cast<double>(after.hints_queued - before.hints_queued),
        "count");

  // backend
  m.Set("backend.records_per_op",
        per_op(after.backend_records - before.backend_records), "count");
  m.Set("backend.fsyncs_per_op",
        per_op(after.backend_fsyncs - before.backend_fsyncs), "count");
  m.Set("backend.bytes_per_user_byte",
        Ratio(static_cast<double>(after.backend_bytes - before.backend_bytes),
              static_cast<double>(bench.plans.measured_write_bytes)),
        "ratio");
  return out;
}

}  // namespace h2perf
