#include <cstdio>

#include "recsys/knn_cf.h"
#include "serving/sections.h"

namespace spa::bench::serving {
namespace {

/// Fits `Rec` and serves every user once, with no response cache in
/// front, written as the next object of the `knn_index` array. Returns
/// false when the fit fails.
template <typename Rec>
bool ColdTraffic(const char* scenario, const Setup& setup,
                 const recsys::InteractionMatrix& matrix, JsonWriter& json) {
  Rec indexed;
  auto start = Clock::now();
  if (!indexed.Fit(matrix).ok()) return false;
  const double fit_seconds = SecondsSince(start);
  const recsys::SimilarityIndexStats stats = *indexed.index_stats();

  std::vector<recsys::Scored> ranked;
  start = Clock::now();
  for (size_t u = 0; u < setup.users; ++u) {
    recsys::CandidateQuery query;
    query.user = static_cast<recsys::UserId>(u);
    query.k = setup.k;
    indexed.RecommendCandidatesInto(query, &ranked);
  }
  const double rps = static_cast<double>(setup.users) / SecondsSince(start);
  std::printf("%s:  indexed %8.0f req/s | build %.3fs | %.1f KiB\n",
              scenario, rps, stats.build_seconds,
              static_cast<double>(stats.memory_bytes) / 1024.0);

  json.BeginObject();
  json.Field("scenario", scenario);
  json.Field("indexed_rps", rps);
  json.Field("indexed_fit_seconds", fit_seconds);
  json.Field("index_build_seconds", stats.build_seconds);
  json.Field("index_bytes", stats.memory_bytes);
  json.Field("index_entries", stats.entries);
  json.EndObject();
  return true;
}

}  // namespace

bool RunKnnIndexSection(const Setup& setup,
                        const recsys::InteractionMatrix& matrix,
                        JsonWriter& json) {
  PrintHeader("KNN cold traffic - fit-time similarity index");
  json.BeginArray("knn_index");
  const bool item_ok =
      ColdTraffic<recsys::ItemKnnRecommender>("ItemKNN", setup, matrix, json);
  const bool user_ok =
      ColdTraffic<recsys::UserKnnRecommender>("UserKNN", setup, matrix, json);
  json.EndArray();
  return item_ok && user_ok;
}

}  // namespace spa::bench::serving
