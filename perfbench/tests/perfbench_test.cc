// Tests of the benchmark's own arithmetic and determinism.
//
//   cmake --build .bench_build/perfbench --target perfbench_tests
//   .bench_build/perfbench/perfbench_tests

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "bench_math.h"
#include "harness.h"
#include "workload_spec.h"

namespace perfbench {
namespace {

TEST(NearestRankTest, PercentileAndCountBeyond) {
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);  // unsorted input
  const Percentile p99 = NearestRank(values, 0.99);
  EXPECT_EQ(p99.value, 99.0);
  EXPECT_EQ(p99.count, 100u);
  EXPECT_EQ(p99.beyond, 1u);
  const Percentile p50 = NearestRank(values, 0.50);
  EXPECT_EQ(p50.value, 50.0);
  EXPECT_EQ(p50.beyond, 50u);
  const Percentile max = NearestRank(values, 1.0);
  EXPECT_EQ(max.value, 100.0);
  EXPECT_EQ(max.beyond, 0u);
}

TEST(NearestRankTest, TiesCountOnlyStrictlyGreater) {
  const Percentile p = NearestRank({3, 2, 2, 1, 2}, 0.5);
  EXPECT_EQ(p.value, 2.0);
  EXPECT_EQ(p.beyond, 1u);
  const Percentile small = NearestRank({7}, 0.99);
  EXPECT_EQ(small.value, 7.0);
  EXPECT_EQ(small.beyond, 0u);
  const Percentile empty = NearestRank({}, 0.99);
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.value, 0.0);
}

TEST(NearestRankTest, Median) {
  EXPECT_EQ(Median({5, 1, 3}), 3.0);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(DueScheduleTest, CompressesTheVirtualTimeline) {
  const int64_t day = 86'400'000'000;
  const std::vector<int64_t> due =
      DueSchedule({0, day / 4, day / 2, day - 1}, day, /*window_s=*/16.0);
  ASSERT_EQ(due.size(), 4u);
  EXPECT_EQ(due[0], 0);
  EXPECT_EQ(due[1], 4'000'000'000);
  EXPECT_EQ(due[2], 8'000'000'000);
  EXPECT_LE(due[3], 16'000'000'000);
}

TEST(WindowRatesTest, CountsCompletionsPerSecondPerWindow) {
  // 4 windows of 250 ms over one second.
  const std::vector<double> rates = WindowRates(
      {0, 100, 250'000'000, 260'000'000, 999'999'999, 1'000'000'000, -1},
      1'000'000'000, 4);
  ASSERT_EQ(rates.size(), 4u);
  EXPECT_DOUBLE_EQ(rates[0], 8.0);  // 2 completions / 0.25 s
  EXPECT_DOUBLE_EQ(rates[1], 8.0);
  EXPECT_DOUBLE_EQ(rates[2], 0.0);
  EXPECT_DOUBLE_EQ(rates[3], 4.0);  // the end and negatives are outside
  EXPECT_EQ(Median(rates), 6.0);
}

WorkloadSpec SmallStorm() {
  WorkloadSpec spec;
  spec.name = "write_storm";
  spec.scenario = "emotion_shift_storm";
  spec.users = 2'000;
  spec.rate = 50.0;
  spec.closed_events = 200;
  return spec;
}

TEST(DueScheduleTest, PureFunctionOfSeedAndConstants) {
  const WorkloadSpec spec = SmallStorm();
  const auto schedule = [&spec](uint64_t seed, size_t threads) {
    const spa::workload::ScenarioConfig config =
        OpenLoopScenario(spec, seed, /*window_s=*/8.0);
    const spa::workload::ScenarioGenerator generator(config);
    return StreamDueSchedule(generator.Generate(threads), config.duration,
                             8.0);
  };
  const std::vector<int64_t> a = schedule(7, 1);
  EXPECT_EQ(a, schedule(7, 4));
  EXPECT_NE(a, schedule(8, 1));
  ASSERT_FALSE(a.empty());
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_LT(a.back(), 8'000'000'000);
  // The event count follows the fixed rate, not any measurement.
  EXPECT_NEAR(static_cast<double>(a.size()), 400.0, 80.0);
}

TEST(DueScheduleTest, TripwireDigestIsStableAndMixSpecific) {
  WorkloadSpec reads = SmallStorm();
  reads.scenario = "steady_power_law";
  reads.interaction_fraction = 0.0;
  EXPECT_EQ(TripwireDigest(SmallStorm()), TripwireDigest(SmallStorm()));
  EXPECT_NE(TripwireDigest(SmallStorm()), TripwireDigest(reads));
}

TEST(SelfTimeTest, SubtractsTheUnionOfClippedChildren) {
  std::vector<Span> spans = {
      {1, -1, "root", 0, 100},
      {1, 0, "a", 10, 30},
      {1, 0, "b", 20, 50},   // overlaps a: union [10, 50]
      {1, 0, "c", 90, 120},  // clipped to [90, 100]
      {1, 1, "grand", 12, 14},
  };
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 20 - 2);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 2);
}

TEST(WaterfallTest, PartsPlusResidualSumToTheEndToEndMean) {
  const std::vector<Span> spans = {
      {1, -1, "read", 0, 100},   {1, 0, "lag", 0, 10},
      {1, 0, "queue", 10, 60},   {1, 0, "serve", 60, 90},
      {2, -1, "read", 0, 200},   {2, 4, "lag", 0, 20},
      {2, 4, "queue", 20, 120},  {2, 4, "serve", 120, 200},
      {3, -1, "write", 0, 1000},
  };
  const Waterfall w = BuildWaterfall(spans, SelfTimes(spans), "read",
                                     {"lag", "queue", "serve"});
  EXPECT_DOUBLE_EQ(w.end_to_end_mean_ms, 150e-6);
  EXPECT_DOUBLE_EQ(w.residual_mean_ms, 5e-6);
  ASSERT_EQ(w.parts_mean_ms.size(), 3u);
  EXPECT_DOUBLE_EQ(w.parts_mean_ms[1].second, 75e-6);
  EXPECT_NEAR(w.overlap_frac, 0.0, 1e-12);
  EXPECT_NEAR(w.residual_frac, 5.0 / 150.0, 1e-12);
  EXPECT_NEAR(w.error_frac, 5.0 / 150.0, 1e-12);

  // Overlapping parts double-count time, which the check exposes.
  const std::vector<Span> overlap = {
      {1, -1, "read", 0, 100}, {1, 0, "queue", 0, 80}, {1, 0, "serve", 40, 100}};
  const Waterfall bad =
      BuildWaterfall(overlap, SelfTimes(overlap), "read", {"queue", "serve"});
  EXPECT_NEAR(bad.overlap_frac, 0.4, 1e-12);
  EXPECT_NEAR(bad.residual_frac, 0.0, 1e-12);
  EXPECT_NEAR(bad.error_frac, 0.4, 1e-12);
}

TEST(WaterfallTest, UncoveredGapFailsTheCheck) {
  // The parts tile only 40 of 100 ns: the sum with the residual still
  // matches, but the residual shows that the parts explain too little.
  const std::vector<Span> gap = {
      {1, -1, "read", 0, 100}, {1, 0, "lag", 0, 10}, {1, 0, "serve", 70, 100}};
  const Waterfall w =
      BuildWaterfall(gap, SelfTimes(gap), "read", {"lag", "serve"});
  EXPECT_NEAR(w.overlap_frac, 0.0, 1e-12);
  EXPECT_NEAR(w.residual_frac, 0.6, 1e-12);
  EXPECT_NEAR(w.error_frac, 0.6, 1e-12);
  EXPECT_GT(w.error_frac, 0.05);
}

TEST(DirectReplayTest, DigestRepeatsExactly) {
  const Inputs in = MakeInputs(SmallStorm(), /*seed=*/3, /*window_s=*/8.0);
  ASSERT_FALSE(in.open_events.empty());
  std::vector<Span> spans;
  const DirectReplay a =
      RunDirectReplay(in, in.open_events, in.open_updates, &spans, 0);
  const DirectReplay b =
      RunDirectReplay(in, in.open_events, in.open_updates, nullptr, 0);
  ASSERT_TRUE(a.status.ok()) << a.status.ToString();
  ASSERT_TRUE(b.status.ok()) << b.status.ToString();
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_NE(a.digest, 0u);
  EXPECT_FALSE(a.apply_ms.empty());
  EXPECT_FALSE(a.publish_us.empty());
  EXPECT_EQ(a.hit_us.size() + a.miss_us.size(),
            b.hit_us.size() + b.miss_us.size());
  EXPECT_FALSE(spans.empty());
}

}  // namespace
}  // namespace perfbench
