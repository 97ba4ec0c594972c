// h2perf, the repository benchmark program.
//
//   h2perf --workload <hot_point|wide_list|namespace_churn> --seed <n>
//          --seconds <s> --trace <0|1>
//
// Repeats whole trials (fresh cloud, set-up, measured phase, maintenance,
// correctness check) until `--seconds` have passed, then prints medians.
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// an untraced trial, a traced trial and a serial (1-thread) trial per
// round and prints the per-layer metrics.  The last stdout line is one
// JSON object {"correct", "attempted", "failed", "metrics"}; the exit code
// is 0 only when every correctness check passed.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "plans.h"
#include "stats.h"
#include "trial.h"

namespace h2perf {
namespace {

using Clock = std::chrono::steady_clock;

/// Measured trials per run at the least, whatever --seconds says: the
/// reported figures are medians over trials.  In both modes one warm-up
/// trial runs first (checked, but not measured): the first trial in a
/// fresh process pays for heap growth and page faults no later trial sees.
constexpr int kMinTrials = 3;

/// Each measured trial is followed by extra set-ups of its own until the
/// trial has at least kMinSetUpsPerTrial of them and kSetUpSecondsPerTrial
/// seconds of set-up time; `setup_s` is the median over all of them.  A
/// single set-up is short (0.1-0.8 s) and so noisier than the measured
/// phase; the short ones get the most repeats.
constexpr int kMinSetUpsPerTrial = 2;
constexpr double kSetUpSecondsPerTrial = 0.6;

struct Args {
  Workload workload = Workload::kHotPoint;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "h2perf: %s\nusage: h2perf --workload "
               "<hot_point|wide_list|namespace_churn> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why.c_str());
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      const auto w = ParseWorkload(value);
      if (!w) Usage("unknown workload " + value);
      args.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!have_workload) Usage("--workload is required");
  return args;
}

struct RunResult {
  MetricSet metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;
};

void Absorb(RunResult& run, const TrialOutcome& trial) {
  run.attempted += trial.attempted;
  run.failed += trial.failed;
  run.problems.insert(run.problems.end(), trial.problems.begin(),
                      trial.problems.end());
}

RunResult RunEndToEnd(const Bench& bench, Clock::time_point deadline) {
  RunResult run;
  std::vector<MetricSet> trials;
  std::vector<double> setups;
  Absorb(run, RunUntracedTrial(bench, bench.threads, false));  // warm-up
  while (static_cast<int>(trials.size()) < kMinTrials ||
         Clock::now() < deadline) {
    const Clock::time_point t0 = Clock::now();
    TrialOutcome trial = RunUntracedTrial(bench, bench.threads, false);
    Absorb(run, trial);
    std::vector<double> trial_setups{trial.metrics.Value("setup_s")};
    double setup_total = trial_setups.front();
    while (static_cast<int>(trial_setups.size()) < kMinSetUpsPerTrial ||
           setup_total < kSetUpSecondsPerTrial) {
      trial_setups.push_back(TimeSetUp(bench, bench.threads));
      setup_total += trial_setups.back();
    }
    std::printf("# trial %zu (%.2f s): %.0f ops/s, p50 %.2f us, "
                "p99 %.2f us, maint %.4f s, setup %.4f s (median of %zu)\n",
                trials.size() + 1,
                std::chrono::duration<double>(Clock::now() - t0).count(),
                trial.metrics.Value("ops_per_s"),
                trial.metrics.Value("lat_p50_us"),
                trial.metrics.Value("lat_p99_us"),
                trial.metrics.Value("maint_s"), Median(trial_setups),
                trial_setups.size());
    setups.insert(setups.end(), trial_setups.begin(), trial_setups.end());
    trials.push_back(std::move(trial.metrics));
  }
  run.metrics = MetricSet::MedianOf(trials);
  run.metrics.Set("setup_s", Median(setups), "s");
  std::printf("# %zu trials, %zu set-ups; %zu latency samples per trial "
              "(p99 supported up to p%.2f)\n",
              trials.size(), setups.size(), bench.plans.measured_ops,
              HighestSupportedPercentile(bench.plans.measured_ops));
  return run;
}

RunResult RunTraced(const Bench& bench, Clock::time_point deadline) {
  RunResult run;
  std::vector<MetricSet> rounds;
  Absorb(run, RunUntracedTrial(bench, bench.threads, false));  // warm-up
  while (rounds.empty() || Clock::now() < deadline) {
    const TrialOutcome plain = RunUntracedTrial(bench, bench.threads, true);
    TrialOutcome traced = RunTracedTrial(bench);
    const TrialOutcome serial = RunUntracedTrial(bench, 1, false);
    Absorb(run, plain);
    Absorb(run, traced);
    Absorb(run, serial);
    if (traced.state_digest != plain.state_digest) {
      run.problems.push_back("traced state digest " +
                             Hex64(traced.state_digest) +
                             " != untraced " + Hex64(plain.state_digest));
    }
    if (traced.maint_steps != plain.maint_steps) {
      run.problems.push_back(
          "traced maintenance took " + std::to_string(traced.maint_steps) +
          " steps, untraced " + std::to_string(plain.maint_steps));
    }
    MetricSet& m = traced.metrics;
    m.Set("engine.serial_ops_per_s", serial.ops_per_s, "ops/s");
    m.Set("engine.scaling",
          serial.ops_per_s == 0 ? 0 : plain.ops_per_s / serial.ops_per_s,
          "ratio");
    m.Set("trace.overhead",
          plain.ops_per_s == 0 ? 0 : 1 - traced.ops_per_s / plain.ops_per_s,
          "fraction");
    std::printf("# round %zu: untraced %.0f ops/s, traced %.0f ops/s, "
                "serial %.0f ops/s, state %s\n",
                rounds.size() + 1, plain.ops_per_s, traced.ops_per_s,
                serial.ops_per_s, Hex64(traced.state_digest).c_str());
    rounds.push_back(std::move(m));
  }
  run.metrics = MetricSet::MedianOf(rounds);
  return run;
}

int Main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  const Clock::time_point start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds));
  const int threads = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));

  RunResult run;
  try {
    const Bench bench =
        MakeBench(args.workload, args.seed, Size::kFull, threads);
    std::printf("# workload %s seed %llu threads %d clients %zu "
                "plan_digest %s measured_ops %zu\n",
                std::string(WorkloadName(args.workload)).c_str(),
                static_cast<unsigned long long>(args.seed), threads,
                bench.plans.measure.size(), Hex64(bench.plans.digest).c_str(),
                bench.plans.measured_ops);
    for (const std::string& reject : bench.model_rejects) {
      run.problems.push_back("reference model rejects " + reject);
    }
    if (run.problems.empty()) {
      RunResult measured = args.trace ? RunTraced(bench, deadline)
                                      : RunEndToEnd(bench, deadline);
      if (!args.trace &&
          HighestSupportedPercentile(bench.plans.measured_ops) < 99) {
        measured.problems.push_back(
            "too few samples per trial for a p99 with 10 samples beyond it");
      }
      if (measured.failed != 0) {
        measured.problems.push_back(std::to_string(measured.failed) +
                                    " operations failed");
      }
      run = std::move(measured);
    }
  } catch (const std::exception& e) {
    run.problems.push_back(std::string("aborted: ") + e.what());
  }
  for (const std::string& problem : run.problems) {
    std::printf("# CHECK FAILED: %s\n", problem.c_str());
  }
  for (const std::string& name : run.metrics.names()) {
    std::printf("# %-36s %.6g %s\n", name.c_str(), run.metrics.Value(name),
                run.metrics.Unit(name).c_str());
  }
  const bool correct = run.problems.empty();
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", std::max<std::size_t>(1, run.attempted),
              run.failed, run.metrics.ToJson().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace h2perf

int main(int argc, char** argv) { return h2perf::Main(argc, argv); }
