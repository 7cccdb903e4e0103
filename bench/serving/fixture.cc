#include "serving/fixture.h"

#include <memory>

#include "eit/emotion.h"
#include "recsys/knn_cf.h"
#include "recsys/popularity.h"
#include "sum/sum_update.h"

namespace spa::bench::serving {

namespace {

/// 12 draws per user (item, then weight in [0.2, 3)), user `u` drawing
/// items from [first_item(u), first_item(u) + span).
template <typename FirstItem>
std::vector<recsys::Interaction> CommunityLog(size_t users, size_t span,
                                              FirstItem first_item,
                                              Rng& rng) {
  std::vector<recsys::Interaction> log;
  log.reserve(users * 12);
  for (size_t u = 0; u < users; ++u) {
    for (int j = 0; j < 12; ++j) {
      const auto item = static_cast<recsys::ItemId>(
          first_item(u) + rng.UniformInt(0, static_cast<int64_t>(span) - 1));
      log.push_back({static_cast<recsys::UserId>(u), item,
                     rng.Uniform(0.2, 3.0)});
    }
  }
  return log;
}

}  // namespace

std::vector<recsys::Interaction> TwoCommunityLog(size_t users, size_t items,
                                                 Rng& rng) {
  return CommunityLog(
      users, items / 2,
      [items](size_t u) { return u % 2 == 0 ? 0 : items / 2; }, rng);
}

std::vector<recsys::Interaction> ClusteredLog(size_t users, Rng& rng) {
  return CommunityLog(
      users, kClusterItems,
      [](size_t u) { return u / kClusterUsers * kClusterItems; }, rng);
}

recsys::InteractionMatrix MatrixFrom(
    const std::vector<recsys::Interaction>& log, size_t shards) {
  recsys::InteractionMatrix matrix(shards);
  for (const recsys::Interaction& it : log) {
    matrix.Add(it.user, it.item, it.weight);
  }
  return matrix;
}

std::vector<recsys::RecommendRequest> EveryUserOnce(size_t users,
                                                    size_t k) {
  std::vector<recsys::RecommendRequest> requests(users);
  for (size_t u = 0; u < users; ++u) {
    requests[u].user = static_cast<recsys::UserId>(u);
    requests[u].k = k;
  }
  return requests;
}

spa::Status EmotionalContext::Bootstrap(size_t users, Rng& rng) {
  std::vector<sum::SumUpdate> bootstrap;
  bootstrap.reserve(users);
  for (size_t u = 0; u < users; ++u) {
    sum::SumUpdate update(static_cast<sum::UserId>(u));
    for (eit::EmotionalAttribute attr : eit::AllEmotionalAttributes()) {
      if (rng.Bernoulli(0.3)) {
        update.SetSensibility(catalog.EmotionalId(attr),
                              rng.Uniform(0.3, 1.0));
      }
    }
    bootstrap.push_back(std::move(update));
  }
  return sums.ApplyAll(bootstrap);
}

void AddStack(recsys::RecsysEngine& engine, SecondComponent second) {
  engine.AddComponent(std::make_unique<recsys::UserKnnRecommender>(), 0.6);
  if (second == SecondComponent::kPopularity) {
    engine.AddComponent(std::make_unique<recsys::PopularityRecommender>(),
                        0.4);
  } else {
    engine.AddComponent(std::make_unique<recsys::ItemKnnRecommender>(),
                        0.4);
  }
}

void AddEmotionProfiles(recsys::RecsysEngine& engine, size_t items,
                        Rng& rng) {
  for (size_t i = 0; i < items; ++i) {
    recsys::EmotionProfile profile{};
    for (double& p : profile) p = rng.Uniform();
    engine.SetItemEmotionProfile(static_cast<recsys::ItemId>(i), profile);
  }
}

bool SameResults(
    const std::vector<spa::Result<recsys::RecommendResponse>>& a,
    const std::vector<spa::Result<recsys::RecommendResponse>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].ok() != b[i].ok()) return false;
    if (!a[i].ok()) continue;
    const auto& lhs = a[i].value().items;
    const auto& rhs = b[i].value().items;
    if (lhs.size() != rhs.size()) return false;
    for (size_t j = 0; j < lhs.size(); ++j) {
      if (lhs[j].item != rhs[j].item || lhs[j].score != rhs[j].score) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace spa::bench::serving
