// The clustered log keeps each update burst's affected neighbourhood a
// small fraction of the matrix (two communities per round: trending
// items), unlike the two-community log where every row overlaps half
// the population.

#include <algorithm>
#include <cstdio>

#include "serving/sections.h"

namespace spa::bench::serving {
namespace {

constexpr size_t kShards = 8;
constexpr size_t kBatchSize = 16;

std::unique_ptr<recsys::RecsysEngine> MakeEngine() {
  recsys::EngineConfig config;
  config.response_cache_capacity = 0;  // measure compute, not cache
  auto engine = std::make_unique<recsys::RecsysEngine>(config);
  AddStack(*engine, SecondComponent::kItemKnn);
  return engine;
}

}  // namespace

bool RunLiveUpdateSection(const Setup& setup, uint64_t seed,
                          JsonWriter& json) {
  PrintHeader("Live updates - incremental refresh vs full refit");
  const size_t users = setup.users;
  const size_t rounds = setup.smoke ? 5 : 15;
  const size_t clusters = ClusterCount(users);
  Rng rng(seed);
  recsys::InteractionMatrix matrix =
      MatrixFrom(ClusteredLog(users, rng), kShards);
  auto live = MakeEngine();
  auto refit = MakeEngine();
  bool ok = live->Fit(&matrix).ok() && refit->Fit(matrix).ok();
  bool parity = true;

  double incremental_seconds = 0.0;  // ApplyInteractions wall
  double refit_seconds = 0.0;        // engine Fit on the same matrix
  double serve_seconds = 0.0;
  size_t served = 0;
  size_t rows_refreshed = 0;
  size_t full_rebuilds = 0;
  const size_t sample = std::min<size_t>(users, 100);
  for (size_t round = 0; ok && round < rounds; ++round) {
    // An update burst over two communities.
    std::vector<recsys::Interaction> batch;
    batch.reserve(kBatchSize);
    for (size_t i = 0; i < kBatchSize; ++i) {
      const size_t cluster = static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(clusters > 1 ? 2 : 1) - 1));
      const size_t base =
          (round * 2 + cluster) % clusters * kClusterUsers;
      const auto user = static_cast<recsys::UserId>(
          base + rng.UniformInt(
                     0, static_cast<int64_t>(kClusterUsers) - 1));
      const auto item = static_cast<recsys::ItemId>(
          (base / kClusterUsers) * kClusterItems +
          rng.UniformInt(0, static_cast<int64_t>(kClusterItems) - 1));
      batch.push_back({user, item, rng.Uniform(0.2, 3.0)});
    }

    auto start = Clock::now();
    const auto report = live->ApplyInteractions(batch);
    incremental_seconds += SecondsSince(start);
    if (!report.ok()) {
      ok = false;
      break;
    }
    rows_refreshed += report.value().rows_refreshed;
    full_rebuilds += report.value().full_rebuild ? 1 : 0;

    start = Clock::now();
    ok = refit->Fit(matrix).ok();
    refit_seconds += SecondsSince(start);
    if (!ok) break;

    // Interleaved serving on the live engine, parity-checked against
    // the freshly refitted reference.
    std::vector<recsys::RecommendRequest> requests(sample);
    for (size_t s = 0; s < sample; ++s) {
      requests[s].user =
          static_cast<recsys::UserId>((round * sample + s * 7) % users);
      requests[s].k = setup.k;
    }
    std::vector<spa::Result<recsys::RecommendResponse>> responses;
    responses.reserve(sample);
    start = Clock::now();
    for (const auto& request : requests) {
      responses.push_back(live->Recommend(request));
    }
    serve_seconds += SecondsSince(start);
    served += sample;
    std::vector<spa::Result<recsys::RecommendResponse>> expected;
    expected.reserve(sample);
    for (const auto& request : requests) {
      expected.push_back(refit->Recommend(request));
    }
    const bool all_ok =
        std::all_of(expected.begin(), expected.end(),
                    [](const auto& result) { return result.ok(); });
    if (!all_ok || !SameResults(responses, expected)) parity = false;
  }
  parity = parity && ok;

  const double incremental_avg =
      incremental_seconds / static_cast<double>(rounds);
  const double refit_avg = refit_seconds / static_cast<double>(rounds);
  const double serve_rps = static_cast<double>(served) / serve_seconds;
  std::printf("live_update (x%zu shards): incremental %8.3f ms | "
              "full refit %8.3f ms | speedup %6.1fx | serve %8.0f "
              "req/s | %zu rows | %zu full rebuilds | parity %s\n",
              kShards, incremental_avg * 1e3, refit_avg * 1e3,
              refit_avg / incremental_avg, serve_rps, rows_refreshed,
              full_rebuilds, parity ? "OK" : "MISMATCH");

  json.BeginObject("live_update");
  json.Field("users", users);
  json.Field("shards", kShards);
  json.Field("rounds", rounds);
  json.Field("batch_size", kBatchSize);
  json.Field("incremental_seconds_avg", incremental_avg);
  json.Field("full_refit_seconds_avg", refit_avg);
  json.Field("update_speedup", refit_avg / incremental_avg);
  json.Field("interleaved_serve_rps", serve_rps);
  json.Field("rows_refreshed", rows_refreshed);
  json.Field("full_rebuilds", full_rebuilds);
  json.Field("parity", parity);
  json.EndObject();
  return parity;
}

}  // namespace spa::bench::serving
