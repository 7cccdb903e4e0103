#include "recsys/knn_cf.h"

#include "common/check.h"
#include "recsys/kernels.h"

namespace spa::recsys {

namespace {

// The ScaleGather kernels below walk the `double` member of 16-byte
// (id, weight) records at stride 2 — pin the layouts they assume.
static_assert(sizeof(std::pair<ItemId, double>) == 2 * sizeof(double));
static_assert(sizeof(std::pair<UserId, double>) == 2 * sizeof(double));
static_assert(sizeof(SimilarityIndex<ItemId>::Neighbor) ==
              2 * sizeof(double));

SimilarityIndexConfig IndexConfigFrom(const KnnConfig& config) {
  SimilarityIndexConfig out;
  out.top_n = config.neighbors;
  out.min_similarity = config.min_similarity;
  out.full_rebuild_fraction = config.refresh_full_rebuild_fraction;
  return out;
}

/// Admitted accumulator entries, sorted and truncated to the query's k.
void Harvest(const kernels::ScoreAccumulator& acc,
             const CandidateQuery& query, const InteractionMatrix& matrix,
             std::vector<Scored>* out) {
  const size_t scored = acc.size();
  out->reserve(scored);
  for (size_t i = 0; i < scored; ++i) {
    if (query.Admits(&matrix, acc.item(i))) {
      out->push_back({acc.item(i), acc.score(i)});
    }
  }
  SortAndTruncate(out, query.k);
}

}  // namespace

UserKnnRecommender::UserKnnRecommender(KnnConfig config)
    : config_(config) {}

spa::Status UserKnnRecommender::Fit(const InteractionMatrix& matrix) {
  matrix_ = &matrix;
  index_.reset();  // free the old index before building its successor
  index_ = std::make_unique<SimilarityIndex<UserId>>(
      BuildUserSimilarityIndex(matrix, IndexConfigFrom(config_)));
  return spa::Status::OK();
}

const SimilarityIndexStats* UserKnnRecommender::index_stats() const {
  return index_ == nullptr ? nullptr : &index_->stats();
}

spa::Status UserKnnRecommender::Refresh(RefreshOutcome* outcome) {
  if (matrix_ == nullptr) {
    return spa::Status::FailedPrecondition(
        "UserKNN not fitted; nothing to refresh");
  }
  auto report = RefreshUserSimilarityIndex(index_.get(), *matrix_);
  outcome->refreshed_index = true;
  outcome->full_rebuild = report.full_rebuild;
  outcome->rows_refreshed =
      report.full_rebuild ? index_->stats().rows : report.rows.size();
  outcome->seconds = report.seconds;
  outcome->all_users = report.full_rebuild;
  if (!report.full_rebuild) {
    outcome->affected_users.insert(outcome->affected_users.end(),
                                   report.rows.begin(),
                                   report.rows.end());
  }
  return spa::Status::OK();
}

void UserKnnRecommender::RecommendCandidatesInto(
    const CandidateQuery& query, std::vector<Scored>* out) const {
  out->clear();
  if (matrix_ == nullptr) return;
  const UserId user = query.user;

  // Score through the pooled workspace: neighbor weights are gathered
  // and scaled by the kernel, then folded into the epoch-cleared
  // accumulator. Admission is checked once per distinct item at
  // harvest — filtering other items never changes an admitted item's
  // += sequence, so the scores are bitwise-identical to the old
  // filter-then-accumulate map.
  kernels::ScoreWorkspace& ws = kernels::ResolveWorkspace(query.workspace);
  kernels::ScoreAccumulator& acc = ws.acc;
  acc.Begin(/*expected_items=*/64);
  SPA_CHECK_MSG(
      index_->built_version() == matrix_->version(),
      "stale UserKNN similarity index: the InteractionMatrix was "
      "mutated after Fit; Refresh() or refit before serving");
  for (const auto& neighbor : index_->NeighborsOf(user)) {
    const auto& items = matrix_->ItemsOf(neighbor.id);
    const size_t n = items.size();
    if (n == 0) continue;
    double* products = ws.EnsureProducts(n);
    kernels::ScaleGather(&items[0].second, 2, n, neighbor.similarity,
                         products);
    for (size_t i = 0; i < n; ++i) acc.Add(items[i].first, products[i]);
  }
  Harvest(acc, query, *matrix_, out);
}

ItemKnnRecommender::ItemKnnRecommender(KnnConfig config)
    : config_(config) {}

spa::Status ItemKnnRecommender::Fit(const InteractionMatrix& matrix) {
  matrix_ = &matrix;
  index_.reset();  // free the old index before building its successor
  index_ = std::make_unique<SimilarityIndex<ItemId>>(
      BuildItemSimilarityIndex(matrix, IndexConfigFrom(config_)));
  return spa::Status::OK();
}

const SimilarityIndexStats* ItemKnnRecommender::index_stats() const {
  return index_ == nullptr ? nullptr : &index_->stats();
}

spa::Status ItemKnnRecommender::Refresh(RefreshOutcome* outcome) {
  if (matrix_ == nullptr) {
    return spa::Status::FailedPrecondition(
        "ItemKNN not fitted; nothing to refresh");
  }
  auto report = RefreshItemSimilarityIndex(index_.get(), *matrix_);
  outcome->refreshed_index = true;
  outcome->full_rebuild = report.full_rebuild;
  outcome->rows_refreshed =
      report.full_rebuild ? index_->stats().rows : report.rows.size();
  outcome->seconds = report.seconds;
  outcome->all_users = report.full_rebuild;
  if (!report.full_rebuild) {
    // A user's ItemKNN scores sum over the neighbor rows of their own
    // items: everyone holding a rebuilt item row may re-rank.
    for (const ItemId item : report.rows) {
      for (const auto& [user, w] : matrix_->UsersOf(item)) {
        outcome->affected_users.push_back(user);
      }
    }
  }
  return spa::Status::OK();
}

void ItemKnnRecommender::RecommendCandidatesInto(
    const CandidateQuery& query, std::vector<Scored>* out) const {
  out->clear();
  if (matrix_ == nullptr) return;
  const UserId user = query.user;
  const auto& own_items = matrix_->ItemsOf(user);

  // Same workspace discipline as UserKNN: kernel-scaled similarity
  // walks into the pooled accumulator, admission hoisted to harvest.
  kernels::ScoreWorkspace& ws = kernels::ResolveWorkspace(query.workspace);
  kernels::ScoreAccumulator& acc = ws.acc;
  acc.Begin(/*expected_items=*/64);
  SPA_CHECK_MSG(
      index_->built_version() == matrix_->version(),
      "stale ItemKNN similarity index: the InteractionMatrix was "
      "mutated after Fit; Refresh() or refit before serving");
  for (const auto& [item, weight] : own_items) {
    const auto& neighbors = index_->NeighborsOf(item);
    const size_t n = neighbors.size();
    if (n == 0) continue;
    double* products = ws.EnsureProducts(n);
    kernels::ScaleGather(&neighbors[0].similarity, 2, n, weight, products);
    for (size_t i = 0; i < n; ++i) {
      acc.Add(neighbors[i].id, products[i]);
    }
  }
  Harvest(acc, query, *matrix_, out);
}

}  // namespace spa::recsys
