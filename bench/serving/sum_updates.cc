#include <cstdio>

#include "eit/emotion.h"
#include "serving/sections.h"
#include "sum/sum_update.h"

namespace spa::bench::serving {

void RunSumUpdateSection(const Setup& setup, SharedStack* stack,
                         JsonWriter& json) {
  PrintHeader("SUM update throughput");
  sum::SumService& sums = stack->emotions.sums;
  recsys::RecsysEngine* cached = stack->cached_engine.get();
  const recsys::EngineCacheStats before = cached->cache_stats();
  const sum::AttributeId lively =
      stack->emotions.catalog.EmotionalId(eit::EmotionalAttribute::kLively);
  const size_t users = setup.users;

  const auto apply_start = Clock::now();
  for (size_t i = 0; i < users; ++i) {
    (void)sums.Apply(sum::SumUpdate(static_cast<sum::UserId>(i % users))
                         .Reward(lively, 0.05));
  }
  const double apply_seconds = SecondsSince(apply_start);
  const double apply_ups = static_cast<double>(users) / apply_seconds;
  std::printf("Apply (1 op):      %8.0f updates/s  (%.3f s for %zu)\n",
              apply_ups, apply_seconds, users);

  const size_t batch_size = 256;
  const size_t batch_rounds = users / batch_size + 1;
  const auto applyall_start = Clock::now();
  for (size_t round = 0; round < batch_rounds; ++round) {
    std::vector<sum::SumUpdate> batch;
    batch.reserve(batch_size);
    for (size_t i = 0; i < batch_size; ++i) {
      batch.push_back(
          sum::SumUpdate(
              static_cast<sum::UserId>((round * batch_size + i) % users))
              .Reward(lively, 0.05));
    }
    (void)sums.ApplyAll(batch);
  }
  const double applyall_seconds = SecondsSince(applyall_start);
  const double applyall_ups =
      static_cast<double>(batch_rounds * batch_size) / applyall_seconds;
  // How much cheaper a batched publish is per update than single-update
  // publishes. Sharded COW snapshots keep this bounded: one Apply
  // clones a single user shard (~users/S entries), not the world.
  const double apply_vs_apply_all_ratio = applyall_ups / apply_ups;
  std::printf("ApplyAll (x%zu):   %8.0f updates/s  (%.3f s)  "
              "batch-vs-single ratio %.2fx\n",
              batch_size, applyall_ups, applyall_seconds,
              apply_vs_apply_all_ratio);

  // Every user's context changed: the hot cache must now recompute.
  const auto invalidated_start = Clock::now();
  for (const auto& request : stack->requests) {
    (void)cached->Recommend(request);
  }
  const double invalidated_rps =
      static_cast<double>(users) / SecondsSince(invalidated_start);
  const recsys::EngineCacheStats after = cached->cache_stats();
  std::printf("post-update pass:  %8.0f req/s  (%zu stale evictions)\n",
              invalidated_rps,
              static_cast<size_t>(after.stale_evictions -
                                  before.stale_evictions));

  json.BeginObject("sum_updates");
  json.Field("apply_per_sec", apply_ups);
  json.Field("apply_all_batch_size", batch_size);
  json.Field("apply_all_per_sec", applyall_ups);
  json.Field("apply_vs_apply_all_ratio", apply_vs_apply_all_ratio);
  json.Field("post_update_serve_rps", invalidated_rps);
  json.EndObject();
}

}  // namespace spa::bench::serving
