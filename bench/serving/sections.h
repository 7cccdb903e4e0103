#ifndef SPA_BENCH_SERVING_SECTIONS_H_
#define SPA_BENCH_SERVING_SECTIONS_H_

#include <chrono>
#include <memory>

#include "bench_util.h"
#include "common/clock.h"
#include "json_writer.h"
#include "serving/fixture.h"

/// bench_serving's sections, one per file. Each measures, prints its
/// lines, appends its block to the artifact and returns false when its
/// exit gate fails.

namespace spa::bench::serving {

using Clock = std::chrono::steady_clock;

/// Sizes of one bench_serving run.
struct Setup {
  size_t users = 0;
  size_t items = 0;
  size_t k = 0;
  bool smoke = false;
};

/// The two-community data the cache, SUM-update and KNN sections
/// share. `rng` continues past the log and SUM draws: the cache
/// section draws its engines' emotion profiles from it.
struct SharedStack {
  explicit SharedStack(uint64_t seed) : rng(seed) {}

  Rng rng;
  recsys::InteractionMatrix matrix;
  EmotionalContext emotions;
  std::vector<recsys::RecommendRequest> requests;  ///< every user once
  /// The response-cached engine, built by the cache section and read
  /// by the SUM-update section and the profiler export.
  std::unique_ptr<recsys::RecsysEngine> cached_engine;
};

/// `sequential_rps` (uncached) and `repeat_traffic` (cold vs hot cached
/// passes plus warm `RecommendInto` with a reused response). Gates:
/// cached bytes equal cold bytes, every warm serve succeeds. Leaves
/// `stack->cached_engine` null when a fit fails.
bool RunCacheSection(const Setup& setup, SharedStack* stack,
                     JsonWriter& json);

/// `sum_updates`: SumService Apply / ApplyAll throughput, then one
/// serve pass over the invalidated cache. No gate.
void RunSumUpdateSection(const Setup& setup, SharedStack* stack,
                         JsonWriter& json);

/// `knn_index`: cold traffic through each indexed KNN component.
/// Gate: both fits succeed. Ranking parity against the lazy reference
/// is `KnnIndexParityTest.BenchColdTrafficMatchesLazyReference`.
bool RunKnnIndexSection(const Setup& setup,
                        const recsys::InteractionMatrix& matrix,
                        JsonWriter& json);

/// `live_update`: interleaved ApplyInteractions + serving vs a full
/// refit per batch, on a clustered log. Gate: live rankings equal the
/// refit's.
bool RunLiveUpdateSection(const Setup& setup, uint64_t seed,
                          JsonWriter& json);

/// `streaming`: quiescent streamed-vs-RecommendBatch parity, then an
/// open-loop arrival sweep under deadline degradation. Gates: parity
/// (including the degraded/dropped flags against the pipeline's
/// counters) and bounded p99 at the 2x point.
bool RunStreamingSection(const Setup& setup, uint64_t seed,
                         JsonWriter& json);

/// `router`: 1/2/4-worker deployments after one fanned batch. Gate:
/// routed responses equal a single-process engine's at the same pins.
bool RunRouterSection(const Setup& setup, uint64_t seed, JsonWriter& json);

}  // namespace spa::bench::serving

#endif  // SPA_BENCH_SERVING_SECTIONS_H_
