#include <cstdio>

#include "serving/sections.h"

namespace spa::bench::serving {
namespace {

std::unique_ptr<recsys::RecsysEngine> FitEngine(SharedStack* stack,
                                                size_t items,
                                                size_t cache_capacity) {
  recsys::EngineConfig config;
  config.response_cache_capacity = cache_capacity;
  auto engine = std::make_unique<recsys::RecsysEngine>(config);
  AddStack(*engine, SecondComponent::kPopularity);
  AddEmotionProfiles(*engine, items, stack->rng);
  engine->set_sum_service(&stack->emotions.sums);
  if (!engine->Fit(stack->matrix).ok()) return nullptr;
  return engine;
}

}  // namespace

bool RunCacheSection(const Setup& setup, SharedStack* stack,
                     JsonWriter& json) {
  const std::vector<recsys::RecommendRequest>& requests = stack->requests;
  const double users = static_cast<double>(requests.size());

  auto engine = FitEngine(stack, setup.items, /*cache_capacity=*/0);
  if (engine == nullptr) {
    std::printf("engine fit failed\n");
    return false;
  }
  const auto seq_start = Clock::now();
  for (const auto& request : requests) {
    (void)engine->Recommend(request);
  }
  const double seq_seconds = SecondsSince(seq_start);
  const double seq_rps = users / seq_seconds;
  std::printf("\nsequential:        %8.0f req/s  (%.3f s)\n", seq_rps,
              seq_seconds);

  // Pass 2 models steady-state traffic whose context did not change.
  PrintHeader("Repeat traffic - response cache");
  stack->cached_engine = FitEngine(stack, setup.items, 2 * setup.users);
  recsys::RecsysEngine* cached = stack->cached_engine.get();
  if (cached == nullptr) {
    std::printf("cached engine fit failed\n");
    return false;
  }
  // One timed pass over every request; returns requests per second.
  const auto serve_pass = [&](auto* responses) {
    const auto start = Clock::now();
    responses->reserve(requests.size());
    for (const auto& request : requests) {
      responses->push_back(cached->Recommend(request));
    }
    return users / SecondsSince(start);
  };
  std::vector<spa::Result<recsys::RecommendResponse>> warm_pass, hot_pass;
  const double cold_rps = serve_pass(&warm_pass);
  const double hot_rps = serve_pass(&hot_pass);
  const auto cache_stats = cached->cache_stats();
  const bool parity = SameResults(warm_pass, hot_pass);
  const double hit_rate =
      static_cast<double>(cache_stats.hits) /
      static_cast<double>(cache_stats.hits + cache_stats.misses);
  std::printf("pass 1 (cold):     %8.0f req/s\n", cold_rps);
  std::printf("pass 2 (hot):      %8.0f req/s  speedup %.2fx  "
              "hit-rate %.3f  parity %s\n",
              hot_rps, hot_rps / cold_rps, hit_rate,
              parity ? "OK" : "MISMATCH");

  // Warm cache hits into one reused response: one untimed pass sizes
  // its buffers, the second is timed.
  PrintHeader("Warm path - cached RecommendInto, reused response");
  recsys::RecommendResponse reused;
  bool warm_ok = true;
  for (const auto& request : requests) {
    warm_ok = warm_ok && cached->RecommendInto(request, &reused).ok();
  }
  const auto warm_into_start = Clock::now();
  for (const auto& request : requests) {
    warm_ok = warm_ok && cached->RecommendInto(request, &reused).ok();
  }
  const double warm_into_rps = users / SecondsSince(warm_into_start);
  std::printf("RecommendInto:     %8.0f req/s  %s\n", warm_into_rps,
              warm_ok ? "OK" : "FAILED");

  json.Field("sequential_rps", seq_rps);
  json.BeginObject("repeat_traffic");
  json.Field("cold_rps", cold_rps);
  json.Field("hot_rps", hot_rps);
  json.Field("cache_speedup", hot_rps / cold_rps);
  json.Field("hit_rate", hit_rate);
  json.Field("parity", parity);
  json.Field("warm_recommend_into_rps", warm_into_rps);
  json.EndObject();
  return parity && warm_ok;
}

}  // namespace spa::bench::serving
