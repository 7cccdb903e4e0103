#ifndef SPA_BENCH_SERVING_FIXTURE_H_
#define SPA_BENCH_SERVING_FIXTURE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "recsys/engine.h"
#include "recsys/interaction_matrix.h"
#include "recsys/request.h"
#include "sum/catalog.h"
#include "sum/sum_service.h"

/// The data and stacks bench_serving's sections share. Every generator
/// draws from the caller's `Rng` in a fixed order, so a seed names one
/// interaction log, one set of sensibilities and one set of emotion
/// profiles.

namespace spa::bench::serving {

/// Two-community log: even users interact with the lower half of
/// `items`, odd users with the upper half, 12 draws each (item, then
/// weight in [0.2, 3)). Every row overlaps half the population.
std::vector<recsys::Interaction> TwoCommunityLog(size_t users, size_t items,
                                                 Rng& rng);

/// Clustered log: users come in communities of `kClusterUsers` sharing
/// a `kClusterItems`-item slice, 12 draws each. An update burst on a
/// couple of communities touches a bounded neighbourhood — the shape
/// incremental index maintenance exists for.
inline constexpr size_t kClusterUsers = 50;
inline constexpr size_t kClusterItems = 10;
std::vector<recsys::Interaction> ClusteredLog(size_t users, Rng& rng);
/// Communities in a clustered population of `users` (at least one).
inline size_t ClusterCount(size_t users) {
  return std::max<size_t>(users / kClusterUsers, 1);
}

/// The log replayed in order into a matrix of `shards` row shards.
recsys::InteractionMatrix MatrixFrom(
    const std::vector<recsys::Interaction>& log, size_t shards = 1);

/// One top-`k` request per user, in user order.
std::vector<recsys::RecommendRequest> EveryUserOnce(size_t users, size_t k);

/// The emotional context a serving stack reads: the Emagister
/// attribute catalog and a SUM service over it.
struct EmotionalContext {
  sum::AttributeCatalog catalog = sum::AttributeCatalog::EmagisterDefault();
  sum::SumService sums{&catalog};

  /// Gives each of `users` a sensibility in [0.3, 1) on each emotional
  /// attribute with probability 0.3, published as one ApplyAll.
  spa::Status Bootstrap(size_t users, Rng& rng);
};

/// The bench stack's second blend component (weight 0.4 beside
/// UserKNN's 0.6): the cache stack blends popularity, the live-update,
/// streaming and router stacks blend ItemKNN.
enum class SecondComponent { kPopularity, kItemKnn };
void AddStack(recsys::RecsysEngine& engine, SecondComponent second);

/// Gives items [0, items) emotion profiles uniform in [0, 1).
void AddEmotionProfiles(recsys::RecsysEngine& engine, size_t items,
                        Rng& rng);

/// True when both result lists agree on ok-ness and every OK pair has
/// the same items with bitwise-equal scores.
bool SameResults(
    const std::vector<spa::Result<recsys::RecommendResponse>>& a,
    const std::vector<spa::Result<recsys::RecommendResponse>>& b);

}  // namespace spa::bench::serving

#endif  // SPA_BENCH_SERVING_FIXTURE_H_
