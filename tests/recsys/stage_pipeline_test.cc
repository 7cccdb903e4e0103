#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/profiler.h"
#include "common/rng.h"
#include "eit/emotion.h"
#include "gtest/gtest.h"
#include "recsys/engine.h"
#include "recsys/knn_cf.h"
#include "sum/sum_service.h"

/// The engine's serve core (admit → candidate-gen → blend → rerank →
/// explain, stage-major across a batch). The load-bearing claim tested
/// here is the **batch contract**: `RecommendBatch` at its `BatchPin`
/// is bitwise equal to sequential `RecommendInto` calls on a cold
/// reference engine at the same pin — every score, every breakdown
/// field, every error — for every request shape the serving API admits
/// (explain, exclusions, allowlists, overrides, duplicates, invalid
/// requests), through cache hits and across a live update. The TSAN
/// stress case runs under TSAN in CI (StagePipelineTest is in the TSAN
/// job's ctest regex).

namespace spa::recsys {
namespace {

constexpr size_t kUsers = 60;
constexpr size_t kItems = 40;

/// Engine + matrix + SUM context with deterministic contents.
struct Stack {
  Stack() : catalog(sum::AttributeCatalog::EmagisterDefault()),
            sums(&catalog),
            matrix(4) {
    Rng rng(7, /*stream=*/1);
    for (size_t u = 0; u < kUsers; ++u) {
      const auto base =
          static_cast<ItemId>((u % 2 == 0) ? 0 : kItems / 2);
      for (int j = 0; j < 6; ++j) {
        const auto item = static_cast<ItemId>(
            base +
            rng.UniformInt(0, static_cast<int64_t>(kItems) / 2 - 1));
        matrix.Add(static_cast<UserId>(u), item, rng.Uniform(0.2, 3.0));
      }
    }
    std::vector<sum::SumUpdate> bootstrap;
    for (size_t u = 0; u < kUsers; ++u) {
      sum::SumUpdate update(static_cast<sum::UserId>(u));
      for (eit::EmotionalAttribute attr :
           eit::AllEmotionalAttributes()) {
        if (rng.Bernoulli(0.4)) {
          update.SetSensibility(catalog.EmotionalId(attr),
                                rng.Uniform(0.2, 1.0));
        }
      }
      bootstrap.push_back(std::move(update));
    }
    EXPECT_TRUE(sums.ApplyAll(bootstrap).ok());
  }

  std::unique_ptr<RecsysEngine> MakeEngine(size_t cache_capacity) {
    EngineConfig config;
    config.response_cache_capacity = cache_capacity;
    config.interaction_shards = matrix.shard_count();
    auto engine = std::make_unique<RecsysEngine>(config);
    engine->AddComponent(std::make_unique<UserKnnRecommender>(), 0.6);
    engine->AddComponent(std::make_unique<ItemKnnRecommender>(), 0.4);
    Rng rng(7, /*stream=*/3);
    for (size_t i = 0; i < kItems; ++i) {
      EmotionProfile profile{};
      for (double& p : profile) p = rng.Uniform();
      engine->SetItemEmotionProfile(static_cast<ItemId>(i), profile);
    }
    engine->set_sum_service(&sums);
    EXPECT_TRUE(engine->Fit(&matrix).ok());
    return engine;
  }

  sum::AttributeCatalog catalog;
  sum::SumService sums;
  InteractionMatrix matrix;
};

/// Every request shape the serving API admits, plus invalid ones.
std::vector<RecommendRequest> MakeRequestMix(
    const sum::SumService& sums) {
  std::vector<RecommendRequest> requests;
  for (size_t u = 0; u < 20; ++u) {
    RecommendRequest request;
    request.user = static_cast<UserId>(u * 3 % kUsers);
    request.k = 1 + u % 7;
    request.explain = (u % 2 == 0);
    if (u % 3 == 0) {
      request.exclude_items = {static_cast<ItemId>(u % kItems),
                               static_cast<ItemId>((u + 5) % kItems)};
    }
    if (u % 5 == 0) {
      request.candidate_items.emplace();
      for (ItemId item = 0; item < static_cast<ItemId>(kItems);
           item += 2) {
        request.candidate_items->insert(item);
      }
    }
    if (u % 7 == 0) {
      request.emotion_override = sums.snapshot();  // bypasses cache
    }
    requests.push_back(std::move(request));
  }
  // Duplicates: one batch computes both, bytes must not change.
  requests.push_back(requests.front());
  requests.push_back(requests[4]);
  // Invalid: k == 0 and an empty allowlist fail validation in the
  // batch and in the reference with the same verdict.
  RecommendRequest bad_k;
  bad_k.user = 1;
  bad_k.k = 0;
  requests.push_back(bad_k);
  RecommendRequest empty_allowlist;
  empty_allowlist.user = 2;
  empty_allowlist.candidate_items.emplace();
  requests.push_back(empty_allowlist);
  return requests;
}

void ExpectBitwiseEqual(const RecommendResponse& a,
                        const RecommendResponse& b,
                        const std::string& context) {
  EXPECT_EQ(a.user, b.user) << context;
  EXPECT_EQ(a.degraded, b.degraded) << context;
  EXPECT_EQ(a.emotion_applied, b.emotion_applied) << context;
  EXPECT_EQ(a.explained, b.explained) << context;
  ASSERT_EQ(a.items.size(), b.items.size()) << context;
  for (size_t i = 0; i < a.items.size(); ++i) {
    const RecommendedItem& x = a.items[i];
    const RecommendedItem& y = b.items[i];
    EXPECT_EQ(x.item, y.item) << context << " rank " << i;
    EXPECT_EQ(x.score, y.score) << context << " rank " << i;  // bitwise
    EXPECT_EQ(x.breakdown.base, y.breakdown.base) << context;
    EXPECT_EQ(x.breakdown.base_share, y.breakdown.base_share)
        << context;
    EXPECT_EQ(x.breakdown.emotional_alignment,
              y.breakdown.emotional_alignment)
        << context;
    EXPECT_EQ(x.breakdown.emotion_delta, y.breakdown.emotion_delta)
        << context;
    ASSERT_EQ(x.breakdown.components.size(),
              y.breakdown.components.size())
        << context;
    for (size_t c = 0; c < x.breakdown.components.size(); ++c) {
      EXPECT_EQ(x.breakdown.components[c].component,
                y.breakdown.components[c].component)
          << context;
      EXPECT_EQ(x.breakdown.components[c].contribution,
                y.breakdown.components[c].contribution)
          << context;
    }
  }
}

void ExpectSameResults(
    const std::vector<spa::Result<RecommendResponse>>& batch,
    const std::vector<spa::Result<RecommendResponse>>& reference,
    const std::string& context) {
  ASSERT_EQ(batch.size(), reference.size()) << context;
  for (size_t i = 0; i < batch.size(); ++i) {
    const std::string at = context + " request " + std::to_string(i);
    ASSERT_EQ(batch[i].ok(), reference[i].ok()) << at;
    if (!batch[i].ok()) {
      EXPECT_EQ(batch[i].status().code(), reference[i].status().code())
          << at;
      continue;
    }
    ExpectBitwiseEqual(batch[i].value(), reference[i].value(), at);
  }
}

/// The contract's reference side: `requests` served one at a time
/// through `RecommendInto`, recycling a single response slot.
std::vector<spa::Result<RecommendResponse>> ServeSequentially(
    const RecsysEngine& engine,
    const std::vector<RecommendRequest>& requests) {
  std::vector<spa::Result<RecommendResponse>> out;
  RecommendResponse slot;
  for (const RecommendRequest& request : requests) {
    const spa::Status status = engine.RecommendInto(request, &slot);
    if (status.ok()) {
      out.emplace_back(slot);
    } else {
      out.emplace_back(status);
    }
  }
  return out;
}

/// The consistency point an engine serves at right now (an empty batch
/// pins without serving anything).
BatchPin PinOf(const RecsysEngine& engine) {
  BatchPin pin;
  EXPECT_TRUE(engine.RecommendBatch({}, &pin).empty());
  return pin;
}

void ExpectSamePin(const BatchPin& a, const BatchPin& b) {
  EXPECT_EQ(a.fit_epoch, b.fit_epoch);
  EXPECT_EQ(a.matrix_version, b.matrix_version);
  EXPECT_EQ(a.sum_version, b.sum_version);
}

class StagePipelineTest : public ::testing::Test {
 protected:
  Stack stack_;
};

TEST_F(StagePipelineTest, BatchMatchesSequentialIntoOnColdReference) {
  // A cold cached engine serving one batch against an uncached
  // reference serving the same requests one by one: same pin, same
  // bytes, same errors.
  auto engine = stack_.MakeEngine(/*cache_capacity=*/256);
  auto reference = stack_.MakeEngine(/*cache_capacity=*/0);
  const auto requests = MakeRequestMix(stack_.sums);

  BatchPin pin;
  const auto batch = engine->RecommendBatch(requests, &pin);
  ExpectSamePin(pin, PinOf(*reference));
  ExpectSameResults(batch, ServeSequentially(*reference, requests),
                    "cold");
  // Every admission probes the cache before any insert, so the
  // in-batch duplicates computed too: no hit, one miss per cacheable
  // valid request.
  const EngineCacheStats stats = engine->cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  size_t cacheable = 0;
  for (const auto& request : requests) {
    if (request.k > 0 && !(request.candidate_items.has_value() &&
                           request.candidate_items->empty()) &&
        request.emotion_override == nullptr) {
      ++cacheable;
    }
  }
  EXPECT_EQ(stats.misses, cacheable);
}

TEST_F(StagePipelineTest, BatchMatchesColdReferenceThroughCacheAndUpdates) {
  // One engine served round after round: cache hits, then (across a
  // live update) re-stamped hits, re-warmed entries and recomputes
  // must all match a freshly fitted reference at the same pin.
  auto engine = stack_.MakeEngine(/*cache_capacity=*/256);
  const auto requests = MakeRequestMix(stack_.sums);
  (void)engine->RecommendBatch(requests);

  BatchPin warm_pin;
  const auto warm = engine->RecommendBatch(requests, &warm_pin);
  EXPECT_GT(engine->cache_stats().hits, 0u);
  {
    auto reference = stack_.MakeEngine(/*cache_capacity=*/0);
    ExpectSamePin(warm_pin, PinOf(*reference));
    ExpectSameResults(warm, ServeSequentially(*reference, requests),
                      "cache hits");
  }

  // Users 3 and 6 are in the mix, so their invalidated entries are
  // hot enough (two accesses) to be re-warmed.
  std::vector<Interaction> batch = {{3, 1, 1.0}, {6, 7, 0.5},
                                    {3, 3, 2.0}};
  const auto report = engine->ApplyInteractions(batch);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report.value().entries_rewarmed, 0u);

  BatchPin post_pin;
  const auto post = engine->RecommendBatch(requests, &post_pin);
  EXPECT_GT(post_pin.matrix_version, warm_pin.matrix_version);
  // Refitting at the post-update matrix gives the cold reference.
  auto reference = stack_.MakeEngine(/*cache_capacity=*/0);
  ExpectSamePin(post_pin, PinOf(*reference));
  ExpectSameResults(post, ServeSequentially(*reference, requests),
                    "post-update");
}

TEST_F(StagePipelineTest, StagedBatchRecordsLeveledProfilerItems) {
  auto engine = stack_.MakeEngine(/*cache_capacity=*/0);
  std::vector<RecommendRequest> requests;
  for (size_t u = 0; u < 8; ++u) {
    RecommendRequest request;
    request.user = static_cast<UserId>(u);
    request.k = 3;
    requests.push_back(request);
  }
  (void)engine->RecommendBatch(requests);

  const ProfilerSnapshot snap =
      engine->profiler().Snapshot(ProfilerLevel::kL3);
  for (const ProfilerItemSnapshot& s : snap.items) {
    switch (s.item) {
      case ProfilerItem::kBatchServe:
        EXPECT_EQ(s.count, 1u);
        break;
      case ProfilerItem::kRequestServe:
        EXPECT_EQ(s.count, 0u);  // batches record batch.serve only
        break;
      case ProfilerItem::kStageCandidateGen:
      case ProfilerItem::kStageBlend:
      case ProfilerItem::kStageRerank:
      case ProfilerItem::kStageExplain:
        EXPECT_EQ(s.count, requests.size()) << s.name;
        // One histogram recording per stage execution, exactly.
        EXPECT_EQ(s.histogram.total(), s.count) << s.name;
        break;
      case ProfilerItem::kCandidateComponent:
        // Two components per request.
        EXPECT_EQ(s.count, 2 * requests.size());
        break;
      default:
        break;
    }
  }
}

TEST_F(StagePipelineTest, TsanStressStagedServeWhileUpdating) {
  // Batches racing live updates: each batch holds the shared serve
  // lock for its whole run while the writer re-warms through the same
  // serve core and the profiler records from every thread. Run under
  // TSAN in CI.
  auto engine = stack_.MakeEngine(/*cache_capacity=*/64);
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&engine, &stop, t] {
      std::vector<RecommendRequest> requests;
      for (size_t u = 0; u < 6; ++u) {
        RecommendRequest request;
        request.user =
            static_cast<UserId>((t * 11 + u * 5) % kUsers);
        request.k = 4;
        request.explain = (u % 2 == 0);
        requests.push_back(request);
      }
      while (!stop.load(std::memory_order_relaxed)) {
        const auto results = engine->RecommendBatch(requests);
        for (const auto& result : results) {
          EXPECT_TRUE(result.ok());
        }
      }
    });
  }
  std::thread writer([&engine, &stop] {
    Rng rng(13);
    while (!stop.load(std::memory_order_relaxed)) {
      std::vector<Interaction> batch;
      for (int i = 0; i < 4; ++i) {
        batch.push_back(
            {static_cast<UserId>(rng.UniformInt(0, kUsers - 1)),
             static_cast<ItemId>(rng.UniformInt(0, kItems - 1)),
             rng.Uniform(0.2, 2.0)});
      }
      EXPECT_TRUE(engine->ApplyInteractions(batch).ok());
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  writer.join();
  // Quiescent now: every histogram agrees with its counter.
  const ProfilerSnapshot snap =
      engine->profiler().Snapshot(ProfilerLevel::kL3);
  for (const ProfilerItemSnapshot& s : snap.items) {
    EXPECT_EQ(s.histogram.total(), s.count) << s.name;
  }
}

}  // namespace
}  // namespace spa::recsys
