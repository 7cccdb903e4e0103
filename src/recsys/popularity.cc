#include "recsys/popularity.h"

#include <chrono>

#include "common/clock.h"

namespace spa::recsys {

spa::Status PopularityRecommender::Fit(const InteractionMatrix& matrix) {
  matrix_ = &matrix;
  total_.clear();
  total_.reserve(matrix.item_count());
  for (ItemId item : matrix.items()) {
    double total = 0.0;
    for (const auto& [user, w] : matrix.UsersOf(item)) total += w;
    total_[item] = total;
  }
  synced_version_ = matrix.version();
  Rank();
  return spa::Status::OK();
}

spa::Status PopularityRecommender::Refresh(RefreshOutcome* outcome) {
  if (matrix_ == nullptr) {
    return spa::Status::FailedPrecondition(
        "Popularity not fitted; nothing to refresh");
  }
  outcome->all_users = true;
  if (matrix_->version() == synced_version_) return spa::Status::OK();
  const auto start = std::chrono::steady_clock::now();
  const std::vector<ItemId> dirty =
      matrix_->ItemsTouchedSince(synced_version_);
  for (const ItemId item : dirty) {
    double total = 0.0;
    for (const auto& [user, w] : matrix_->UsersOf(item)) total += w;
    total_[item] = total;
  }
  synced_version_ = matrix_->version();
  Rank();
  outcome->rows_refreshed += dirty.size();
  outcome->seconds += SecondsSince(start);
  return spa::Status::OK();
}

void PopularityRecommender::Rank() {
  ranked_.clear();
  ranked_.reserve(matrix_->item_count());
  for (ItemId item : matrix_->items()) {
    ranked_.push_back({item, total_.at(item)});
  }
  SortAndTruncate(&ranked_, ranked_.size());
}

void PopularityRecommender::RecommendCandidatesInto(
    const CandidateQuery& query, std::vector<Scored>* out) const {
  out->clear();
  if (matrix_ == nullptr) return;
  for (const Scored& candidate : ranked_) {
    if (out->size() >= query.k) break;
    if (query.Admits(matrix_, candidate.item)) out->push_back(candidate);
  }
}

}  // namespace spa::recsys
