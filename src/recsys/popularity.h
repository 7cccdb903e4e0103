#ifndef SPA_RECSYS_POPULARITY_H_
#define SPA_RECSYS_POPULARITY_H_

#include <cstdint>
#include <unordered_map>

#include "recsys/recommender.h"

/// \file
/// Non-personalized popularity baseline: the weakest comparator every
/// personalization claim must beat.

namespace spa::recsys {

/// \brief Ranks items by total interaction weight.
class PopularityRecommender : public Recommender {
 public:
  spa::Status Fit(const InteractionMatrix& matrix) override;
  /// Recomputes the totals of items whose postings mutated since the
  /// last Fit/Refresh (each re-summed exactly as Fit would, so the
  /// ranking stays bitwise-identical to a refit). Popularity is
  /// non-personalized — a changed total can move any user's blend —
  /// so every user is reported affected.
  spa::Status Refresh(RefreshOutcome* outcome) override;
  void RecommendCandidatesInto(const CandidateQuery& query,
                               std::vector<Scored>* out) const override;
  std::string name() const override { return "Popularity"; }

 private:
  /// Rebuilds `ranked_` from `total_` in matrix item order (the exact
  /// construction Fit uses).
  void Rank();

  const InteractionMatrix* matrix_ = nullptr;
  std::unordered_map<ItemId, double> total_;  // interaction weight sums
  std::vector<Scored> ranked_;  // all items by popularity
  /// Matrix version the totals match (dirty-item cursor for Refresh).
  uint64_t synced_version_ = 0;
};

}  // namespace spa::recsys

#endif  // SPA_RECSYS_POPULARITY_H_
