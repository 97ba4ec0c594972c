// The benchmark's own tests: reference-model semantics, the percentile
// rules, metric naming, plan purity, and a smoke-size run of every
// workload through both the untraced and the traced trial.
#include <gtest/gtest.h>

#include "model.h"
#include "plans.h"
#include "stats.h"
#include "trial.h"

namespace h2perf {
namespace {

using h2::TraceOp;
using h2::TraceOpKind;

TraceOp Op(TraceOpKind kind, std::string path, std::string path2 = "",
           std::uint64_t size = 0) {
  return TraceOp{kind, std::move(path), std::move(path2), size};
}

ReferenceFs SmallTree() {
  ReferenceFs fs;
  EXPECT_TRUE(fs.Apply(Op(TraceOpKind::kMkdir, "/a")));
  EXPECT_TRUE(fs.Apply(Op(TraceOpKind::kMkdir, "/a/b")));
  EXPECT_TRUE(fs.Apply(Op(TraceOpKind::kWrite, "/a/f", "", 10)));
  EXPECT_TRUE(fs.Apply(Op(TraceOpKind::kWrite, "/a/b/g", "", 20)));
  EXPECT_TRUE(fs.Apply(Op(TraceOpKind::kMkdir, "/z")));
  return fs;
}

std::vector<std::string> Paths(const ReferenceFs& fs) {
  std::vector<std::string> out;
  for (const auto& [path, node] : fs.nodes()) out.push_back(path);
  return out;
}

TEST(ReferenceModel, MoveCarriesSubtreeAndContent) {
  ReferenceFs fs = SmallTree();
  ASSERT_TRUE(fs.Apply(Op(TraceOpKind::kMove, "/a", "/z/a2")));
  EXPECT_EQ(Paths(fs), (std::vector<std::string>{
                           "/z", "/z/a2", "/z/a2/b", "/z/a2/b/g", "/z/a2/f"}));
  EXPECT_EQ(fs.nodes().at("/z/a2/b/g").data, "trace:/a/b/g");
  EXPECT_EQ(fs.nodes().at("/z/a2/b/g").size, 20u);
  // Into its own subtree, onto an existing path, or from nowhere: refused.
  EXPECT_FALSE(fs.Apply(Op(TraceOpKind::kMove, "/z", "/z/a2/inner")));
  EXPECT_FALSE(fs.Apply(Op(TraceOpKind::kMove, "/z/a2/f", "/z/a2/b")));
  EXPECT_FALSE(fs.Apply(Op(TraceOpKind::kMove, "/nope", "/x")));
  EXPECT_FALSE(fs.Apply(Op(TraceOpKind::kMove, "/z/a2/f", "/missing/f")));
}

TEST(ReferenceModel, RenameStaysInParent) {
  ReferenceFs fs = SmallTree();
  ASSERT_TRUE(fs.Apply(Op(TraceOpKind::kRename, "/a/b/g", "h")));
  EXPECT_EQ(fs.nodes().count("/a/b/g"), 0u);
  EXPECT_EQ(fs.nodes().at("/a/b/h").data, "trace:/a/b/g");
  ASSERT_TRUE(fs.Apply(Op(TraceOpKind::kRename, "/a", "c")));
  EXPECT_EQ(Paths(fs), (std::vector<std::string>{"/c", "/c/b", "/c/b/h",
                                                 "/c/f", "/z"}));
  EXPECT_FALSE(fs.Apply(Op(TraceOpKind::kRename, "/c", "z")));
}

TEST(ReferenceModel, CopyDuplicatesAndKeepsSource) {
  ReferenceFs fs = SmallTree();
  ASSERT_TRUE(fs.Apply(Op(TraceOpKind::kCopy, "/a/f", "/z/f2")));
  EXPECT_EQ(fs.nodes().at("/z/f2").data, "trace:/a/f");
  ASSERT_TRUE(fs.Apply(Op(TraceOpKind::kCopy, "/a", "/z/acopy")));
  EXPECT_EQ(fs.nodes().at("/z/acopy/b/g").size, 20u);
  EXPECT_EQ(fs.nodes().count("/a/b/g"), 1u);
  EXPECT_EQ(fs.live_bytes(), 10u + 20u + 10u + 10u + 20u);
  EXPECT_FALSE(fs.Apply(Op(TraceOpKind::kCopy, "/a", "/a/b/self")));
  // Overwriting a copy gives it its own sample.
  ASSERT_TRUE(fs.Apply(Op(TraceOpKind::kWrite, "/z/f2", "", 5)));
  EXPECT_EQ(fs.nodes().at("/z/f2").data, "trace:/z/f2");
  EXPECT_EQ(fs.nodes().at("/a/f").size, 10u);
}

TEST(ReferenceModel, RmdirRemovesSubtreeOnly) {
  ReferenceFs fs = SmallTree();
  ASSERT_TRUE(fs.Apply(Op(TraceOpKind::kMkdir, "/ab")));  // sorts near "/a"
  ASSERT_TRUE(fs.Apply(Op(TraceOpKind::kRmdir, "/a")));
  EXPECT_EQ(Paths(fs), (std::vector<std::string>{"/ab", "/z"}));
  EXPECT_FALSE(fs.Apply(Op(TraceOpKind::kRmdir, "/a")));
  EXPECT_FALSE(fs.Apply(Op(TraceOpKind::kRmdir, "/")));
  EXPECT_EQ(fs.live_bytes(), 0u);
}

TEST(ReferenceModel, KindChecks) {
  ReferenceFs fs = SmallTree();
  EXPECT_FALSE(fs.Apply(Op(TraceOpKind::kRmdir, "/a/f")));
  EXPECT_FALSE(fs.Apply(Op(TraceOpKind::kRemove, "/a/b")));
  EXPECT_FALSE(fs.Apply(Op(TraceOpKind::kRead, "/a")));
  EXPECT_FALSE(fs.Apply(Op(TraceOpKind::kList, "/a/f")));
  EXPECT_FALSE(fs.Apply(Op(TraceOpKind::kMkdir, "/a")));
  EXPECT_FALSE(fs.Apply(Op(TraceOpKind::kWrite, "/a/b", "", 1)));
  EXPECT_TRUE(fs.Apply(Op(TraceOpKind::kStat, "/a/b")));
}

TEST(Percentiles, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(NearestRankPercentile(v, 50), 50);
  EXPECT_EQ(NearestRankPercentile(v, 99), 99);
  EXPECT_EQ(NearestRankPercentile(v, 100), 100);
  EXPECT_EQ(NearestRankPercentile(v, 0), 1);
  std::vector<double> three{3, 1, 2};
  EXPECT_EQ(NearestRankPercentile(three, 50), 2);
  EXPECT_EQ(NearestRankPercentile(three, 34), 2);
  EXPECT_EQ(NearestRankPercentile(three, 33), 1);
  std::vector<double> none;
  EXPECT_EQ(NearestRankPercentile(none, 50), 0);
}

TEST(Percentiles, HighestWithTenBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 99), 9u);
  EXPECT_EQ(HighestSupportedPercentile(1000), 99.0);
  EXPECT_EQ(HighestSupportedPercentile(999), 95.0);
  EXPECT_EQ(HighestSupportedPercentile(10'000), 99.9);
  EXPECT_EQ(HighestSupportedPercentile(100'000), 99.99);
  EXPECT_EQ(HighestSupportedPercentile(20), 50.0);
  EXPECT_EQ(HighestSupportedPercentile(19), 0.0);
}

TEST(Metrics, NamesAndUnits) {
  EXPECT_TRUE(ValidMetricName("api.stat.p99_us"));
  EXPECT_TRUE(ValidMetricName("ops_per_s"));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName(".x"));
  EXPECT_FALSE(ValidMetricName("a b"));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
  MetricSet m;
  EXPECT_THROW(m.Set("bad name", 1, "s"), std::invalid_argument);
  EXPECT_THROW(m.Set("ok", 1, ""), std::invalid_argument);
  m.Set("b", 2, "s");
  m.Set("a", 1.25, "ms");
  EXPECT_EQ(m.ToJson(), "{\"b\": {\"value\": 2, \"unit\": \"s\"}, "
                        "\"a\": {\"value\": 1.25, \"unit\": \"ms\"}}");
  MetricSet other;
  other.Set("b", 4, "s");
  other.Set("a", 3, "ms");
  MetricSet third;
  third.Set("b", 9, "s");
  third.Set("a", 0, "ms");
  const MetricSet med = MetricSet::MedianOf({m, other, third});
  EXPECT_EQ(med.Value("b"), 4);
  EXPECT_EQ(med.Value("a"), 1.25);
}

TEST(Plans, SameSeedSameDigest) {
  for (const Workload w : {Workload::kHotPoint, Workload::kWideList,
                           Workload::kNamespaceChurn}) {
    const WorkloadPlans a = BuildPlans(w, 11, Size::kSmoke);
    const WorkloadPlans b = BuildPlans(w, 11, Size::kSmoke);
    const WorkloadPlans c = BuildPlans(w, 12, Size::kSmoke);
    EXPECT_EQ(a.digest, b.digest) << WorkloadName(w);
    EXPECT_NE(a.digest, c.digest) << WorkloadName(w);
    EXPECT_EQ(a.measure.size(), kClients);
    EXPECT_EQ(ParseWorkload(WorkloadName(w)), w);
  }
}

void CheckMetricSet(const MetricSet& m) {
  for (const std::string& name : m.names()) {
    EXPECT_TRUE(ValidMetricName(name)) << name;
    EXPECT_FALSE(m.Unit(name).empty()) << name;
  }
}

class SmokeRun : public ::testing::TestWithParam<Workload> {};

TEST_P(SmokeRun, UntracedAndTracedAgree) {
  const Bench bench = MakeBench(GetParam(), 5, Size::kSmoke, 2);
  ASSERT_TRUE(bench.model_rejects.empty()) << bench.model_rejects.front();
  const TrialOutcome plain = RunUntracedTrial(bench, bench.threads, true);
  EXPECT_TRUE(plain.problems.empty()) << plain.problems.front();
  EXPECT_EQ(plain.failed, 0u);
  EXPECT_EQ(plain.attempted, bench.plans.measured_ops);
  for (const char* name :
       {"ops_per_s", "lat_p50_us", "lat_p99_us", "cpu_us_per_op",
        "virt_ms_per_op", "prims_per_op", "maint_s", "setup_s",
        "peak_rss_mb", "stored_bytes_per_user_byte"}) {
    ASSERT_TRUE(plain.metrics.Has(name)) << name;
    EXPECT_GT(plain.metrics.Value(name), 0) << name;
  }
  CheckMetricSet(plain.metrics);

  const TrialOutcome traced = RunTracedTrial(bench);
  EXPECT_TRUE(traced.problems.empty()) << traced.problems.front();
  EXPECT_EQ(traced.state_digest, plain.state_digest);
  EXPECT_EQ(traced.maint_steps, plain.maint_steps);
  EXPECT_EQ(traced.metrics.Value("maint.steps"),
            static_cast<double>(plain.maint_steps));
  EXPECT_EQ(traced.metrics.Value("error_rate"), 0);
  CheckMetricSet(traced.metrics);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, SmokeRun,
                         ::testing::Values(Workload::kHotPoint,
                                           Workload::kWideList,
                                           Workload::kNamespaceChurn),
                         [](const auto& info) {
                           return std::string(WorkloadName(info.param));
                         });

}  // namespace
}  // namespace h2perf
