#ifndef SPA_TESTS_RECSYS_RECSYS_TEST_UTIL_H_
#define SPA_TESTS_RECSYS_RECSYS_TEST_UTIL_H_

#include "common/profiler.h"
#include "common/status.h"
#include "recsys/engine.h"
#include "recsys/interaction_matrix.h"
#include "recsys/recommender.h"

/// Shared fixtures for the recsys test suites.

namespace spa::recsys {

/// Top-k excluding seen items through the CandidateQuery API (what the
/// since-removed Recommend(user, k) shim used to spell).
inline std::vector<Scored> RecommendTopK(const Recommender& rec,
                                         UserId user, size_t k) {
  CandidateQuery query;
  query.user = user;
  query.k = k;
  query.exclude_seen = ExcludeSeen::kYes;
  return rec.RecommendCandidates(query);
}

/// Result-returning spelling of `RecommendFallbackInto`.
inline spa::Result<RecommendResponse> ServeFallback(
    const RecsysEngine& engine, const RecommendRequest& request,
    BatchPin* pin = nullptr) {
  RecommendResponse response;
  SPA_RETURN_IF_ERROR(engine.RecommendFallbackInto(request, &response, pin));
  return response;
}

/// One item of the engine profiler's snapshot (all zeros when the item
/// never recorded).
inline ProfilerItemSnapshot ProfilerItemOf(const RecsysEngine& engine,
                                           ProfilerItem item) {
  for (const ProfilerItemSnapshot& s :
       engine.profiler().Snapshot(ProfilerLevel::kL3).items) {
    if (s.item == item) return s;
  }
  return {};
}

/// Users 0-4 like items 0-4; users 5-9 like items 5-9; user 0 has not
/// seen item 4 yet, user 5 has not seen item 9.
inline InteractionMatrix MakeTwoCommunityMatrix() {
  InteractionMatrix m;
  for (UserId u = 0; u < 5; ++u) {
    for (ItemId i = 0; i < 5; ++i) {
      if (u == 0 && i == 4) continue;
      m.Add(u, i, 1.0);
    }
  }
  for (UserId u = 5; u < 10; ++u) {
    for (ItemId i = 5; i < 10; ++i) {
      if (u == 5 && i == 9) continue;
      m.Add(u, i, 1.0);
    }
  }
  return m;
}

}  // namespace spa::recsys

#endif  // SPA_TESTS_RECSYS_RECSYS_TEST_UTIL_H_
