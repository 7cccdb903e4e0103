#ifndef SPA_TESTS_RECSYS_LAZY_KNN_REFERENCE_H_
#define SPA_TESTS_RECSYS_LAZY_KNN_REFERENCE_H_

#include <algorithm>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "recsys/kernels.h"
#include "recsys/knn_cf.h"
#include "recsys/recommender.h"
#include "recsys/similarity_index.h"

/// The lazy KNN neighbourhood oracle: the parity reference for the
/// fit-time `SimilarityIndex` of `UserKnnRecommender` /
/// `ItemKnnRecommender`. It keeps no fitted state and recomputes every
/// neighbourhood per request from the live matrix, with the same float
/// operations in the same order as the indexed path, so its rankings
/// must match the indexed recommenders bitwise.
///
/// `Refresh` keeps the base default: similarities are recomputed from
/// the live matrix, so any user sharing an item with an updated user
/// may re-rank and the affected set cannot be bounded.

namespace spa::recsys {

enum class KnnKind { kUser, kItem };

class LazyKnnReference : public Recommender {
 public:
  explicit LazyKnnReference(KnnKind kind, KnnConfig config = {})
      : kind_(kind), config_(config) {}

  spa::Status Fit(const InteractionMatrix& matrix) override {
    matrix_ = &matrix;
    return spa::Status::OK();
  }

  void RecommendCandidatesInto(const CandidateQuery& query,
                               std::vector<Scored>* out) const override {
    out->clear();
    if (matrix_ == nullptr) return;
    kernels::ScoreWorkspace& ws = kernels::ResolveWorkspace(query.workspace);
    kernels::ScoreAccumulator& acc = ws.acc;
    acc.Begin(/*expected_items=*/64);
    if (kind_ == KnnKind::kUser) {
      AccumulateUser(query.user, &ws);
    } else {
      AccumulateItem(query.user, &ws);
    }
    const size_t scored = acc.size();
    out->reserve(scored);
    for (size_t i = 0; i < scored; ++i) {
      if (query.Admits(matrix_, acc.item(i))) {
        out->push_back({acc.item(i), acc.score(i)});
      }
    }
    SortAndTruncate(out, query.k);
  }

  std::string name() const override {
    return kind_ == KnnKind::kUser ? "UserKNN" : "ItemKNN";
  }

  /// Cosine similarity between two users / two items, computed live
  /// against the current matrix.
  double UserSimilarity(UserId a, UserId b) const {
    return SparseCosine(matrix_->ItemsOf(a), matrix_->ItemsOf(b),
                        matrix_->UserNormSquared(a),
                        matrix_->UserNormSquared(b));
  }
  double ItemSimilarity(ItemId a, ItemId b) const {
    return SparseCosine(matrix_->UsersOf(a), matrix_->UsersOf(b),
                        matrix_->ItemNormSquared(a),
                        matrix_->ItemNormSquared(b));
  }

 private:
  /// score(u, i) = sum over the top-k users v sharing an item with u
  /// of sim(u, v) * weight(v, i).
  void AccumulateUser(UserId user, kernels::ScoreWorkspace* ws) const {
    std::unordered_map<UserId, double> similarity;
    for (const auto& [item, w] : matrix_->ItemsOf(user)) {
      for (const auto& [other, w2] : matrix_->UsersOf(item)) {
        if (other != user) similarity.emplace(other, 0.0);
      }
    }
    for (auto& [other, sim] : similarity) {
      sim = UserSimilarity(user, other);
    }
    std::vector<std::pair<UserId, double>> neighbors(similarity.begin(),
                                                     similarity.end());
    std::sort(neighbors.begin(), neighbors.end(), BySimilarity<UserId>);
    if (neighbors.size() > config_.neighbors) {
      neighbors.resize(config_.neighbors);
    }
    for (const auto& [other, sim] : neighbors) {
      if (sim < config_.min_similarity) continue;
      const auto& items = matrix_->ItemsOf(other);
      const size_t n = items.size();
      if (n == 0) continue;
      double* products = ws->EnsureProducts(n);
      kernels::ScaleGather(&items[0].second, 2, n, sim, products);
      for (size_t i = 0; i < n; ++i) ws->acc.Add(items[i].first, products[i]);
    }
  }

  /// score(u, i) = sum over the user's items j of sim(i, j) *
  /// weight(u, j), each j's neighbourhood the top-k co-rated items.
  void AccumulateItem(UserId user, kernels::ScoreWorkspace* ws) const {
    for (const auto& [item, weight] : matrix_->ItemsOf(user)) {
      std::unordered_set<ItemId> candidates;
      for (const auto& [other_user, w2] : matrix_->UsersOf(item)) {
        for (const auto& [candidate, w3] : matrix_->ItemsOf(other_user)) {
          if (candidate != item) candidates.insert(candidate);
        }
      }
      std::vector<std::pair<ItemId, double>> sims;
      sims.reserve(candidates.size());
      for (const ItemId candidate : candidates) {
        const double sim = ItemSimilarity(item, candidate);
        if (sim >= config_.min_similarity) sims.emplace_back(candidate, sim);
      }
      std::sort(sims.begin(), sims.end(), BySimilarity<ItemId>);
      if (sims.size() > config_.neighbors) sims.resize(config_.neighbors);
      const size_t n = sims.size();
      if (n == 0) continue;
      double* products = ws->EnsureProducts(n);
      kernels::ScaleGather(&sims[0].second, 2, n, weight, products);
      for (size_t i = 0; i < n; ++i) ws->acc.Add(sims[i].first, products[i]);
    }
  }

  /// (similarity desc, id asc): the index's row order.
  template <typename Id>
  static bool BySimilarity(const std::pair<Id, double>& a,
                           const std::pair<Id, double>& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  }

  KnnKind kind_;
  KnnConfig config_;
  const InteractionMatrix* matrix_ = nullptr;
};

}  // namespace spa::recsys

#endif  // SPA_TESTS_RECSYS_LAZY_KNN_REFERENCE_H_
