// Allocation-count regression for the serve hot path: the warm cached
// `RecommendInto` path and the warm `RecommendFallbackInto` tier must
// perform ZERO heap allocations. This TU replaces the global operator
// new/delete with counting versions (binary-wide — the replacements
// just delegate to malloc/free, so every other test is unaffected) and
// asserts that a window of warm calls never enters the allocator.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "eit/emotion.h"
#include "gtest/gtest.h"
#include "recsys/engine.h"
#include "recsys/knn_cf.h"
#include "recsys/popularity.h"
#include "recsys/recsys_test_util.h"
#include "recsys/request.h"
#include "sum/sum_service.h"
#include "sum/sum_update.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_new_calls{0};

void* CountedAlloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_new_calls.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  void* ptr = std::malloc(size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

void* CountedAllocAligned(std::size_t size, std::align_val_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_new_calls.fetch_add(1, std::memory_order_relaxed);
  }
  const std::size_t alignment = static_cast<std::size_t>(align);
  std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (rounded == 0) rounded = alignment;
  void* ptr = std::aligned_alloc(alignment, rounded);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAllocAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAllocAligned(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_new_calls.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_new_calls.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::size_t,
                       std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}

namespace spa::recsys {
namespace {

/// The serving bench's shape at test size: every user has emotional
/// sensibilities and every item an emotion profile, so cache hits
/// resolve a SUM model and computed responses run the emotional stage.
class AllocationRegressionTest : public ::testing::Test {
 protected:
  static constexpr UserId kUsers = 10;  // MakeTwoCommunityMatrix's
  static constexpr ItemId kItems = 10;

  AllocationRegressionTest()
      : matrix_(MakeTwoCommunityMatrix()),
        catalog_(sum::AttributeCatalog::EmagisterDefault()),
        sums_(&catalog_) {
    std::vector<sum::SumUpdate> bootstrap;
    for (UserId u = 0; u < kUsers; ++u) {
      sum::SumUpdate update(u);
      size_t a = 0;
      for (eit::EmotionalAttribute attr : eit::AllEmotionalAttributes()) {
        if ((u + a++) % 3 == 0) {
          update.SetSensibility(catalog_.EmotionalId(attr),
                                0.3 + 0.05 * static_cast<double>(u));
        }
      }
      bootstrap.push_back(std::move(update));
    }
    EXPECT_TRUE(sums_.ApplyAll(bootstrap).ok());
  }

  std::unique_ptr<RecsysEngine> MakeEngine() {
    auto engine = std::make_unique<RecsysEngine>(EngineConfig{});
    engine->AddComponent(std::make_unique<UserKnnRecommender>(), 0.6);
    engine->AddComponent(std::make_unique<PopularityRecommender>(),
                         0.4);
    for (ItemId i = 0; i < kItems; ++i) {
      EmotionProfile profile{};
      for (size_t d = 0; d < profile.size(); ++d) {
        profile[d] = static_cast<double>((i + d) % 4) / 4.0;
      }
      engine->SetItemEmotionProfile(i, profile);
    }
    engine->set_sum_service(&sums_);
    EXPECT_TRUE(engine->Fit(matrix_).ok());
    return engine;
  }

  InteractionMatrix matrix_;
  sum::AttributeCatalog catalog_;
  sum::SumService sums_;
};

TEST_F(AllocationRegressionTest, WarmCachedRecommendIntoIsAllocFree) {
  auto engine = MakeEngine();
  RecommendRequest request;
  request.user = 0;
  request.k = 3;

  // Warm up: first call computes + caches; the next hits the cache and
  // sizes the reused response's buffers.
  RecommendResponse out;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(engine->RecommendInto(request, &out).ok());
  }
  ASSERT_GT(engine->cache_stats().hits, 0u);

  // Measurement window: nothing inside may allocate, including the
  // Status round-trips (OK is an SSO-empty string). All EXPECTs stay
  // outside the window — gtest assertions allocate.
  bool all_ok = true;
  g_new_calls.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_release);
  for (int i = 0; i < 200; ++i) {
    all_ok = all_ok && engine->RecommendInto(request, &out).ok();
  }
  g_counting.store(false, std::memory_order_release);
  const uint64_t allocs = g_new_calls.load(std::memory_order_relaxed);

  EXPECT_TRUE(all_ok);
  EXPECT_EQ(allocs, 0u)
      << "warm cached RecommendInto entered operator new " << allocs
      << " times over 200 calls";
  EXPECT_FALSE(out.items.empty());
}

TEST_F(AllocationRegressionTest, DistinctWarmEntriesStayAllocFree) {
  // Alternating between several already-cached fingerprints must also
  // stay alloc-free: the reused response's capacity only grows.
  auto engine = MakeEngine();
  RecommendRequest requests[4];
  for (UserId u = 0; u < 4; ++u) {
    requests[u].user = u;
    requests[u].k = 5;
  }
  RecommendResponse out;
  for (int round = 0; round < 3; ++round) {
    for (const RecommendRequest& request : requests) {
      ASSERT_TRUE(engine->RecommendInto(request, &out).ok());
    }
  }

  bool all_ok = true;
  g_new_calls.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_release);
  for (int round = 0; round < 50; ++round) {
    for (const RecommendRequest& request : requests) {
      all_ok = all_ok && engine->RecommendInto(request, &out).ok();
    }
  }
  g_counting.store(false, std::memory_order_release);
  const uint64_t allocs = g_new_calls.load(std::memory_order_relaxed);

  EXPECT_TRUE(all_ok);
  EXPECT_EQ(allocs, 0u);
}

TEST_F(AllocationRegressionTest, WarmCacheCyclingEveryUserIsAllocFree) {
  // Every user, each resolving a SUM model on the hit path, cycled
  // through one reused response at the serving bench's depth.
  auto engine = MakeEngine();
  std::vector<RecommendRequest> requests(kUsers);
  for (UserId u = 0; u < kUsers; ++u) {
    requests[u].user = u;
    requests[u].k = 10;
  }
  RecommendResponse out;
  bool emotion_applied = false;
  for (int round = 0; round < 2; ++round) {
    for (const RecommendRequest& request : requests) {
      ASSERT_TRUE(engine->RecommendInto(request, &out).ok());
      emotion_applied = emotion_applied || out.emotion_applied;
    }
  }
  ASSERT_TRUE(emotion_applied);  // the fixture's SUMs reach the engine

  bool all_ok = true;
  g_new_calls.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_release);
  for (int round = 0; round < 20; ++round) {
    for (const RecommendRequest& request : requests) {
      all_ok = all_ok && engine->RecommendInto(request, &out).ok();
    }
  }
  g_counting.store(false, std::memory_order_release);
  const uint64_t allocs = g_new_calls.load(std::memory_order_relaxed);

  EXPECT_TRUE(all_ok);
  EXPECT_EQ(allocs, 0u)
      << "warm cached RecommendInto entered operator new " << allocs
      << " times over " << 20 * kUsers << " calls";
}

TEST_F(AllocationRegressionTest, WarmRecommendFallbackIntoIsAllocFree) {
  // The degraded tier answers under overload, so it must stay as cheap
  // as a cache hit: its ranking buffer is pooled serve scratch.
  auto engine = MakeEngine();
  RecommendRequest request;
  request.user = 0;
  request.k = 5;
  RecommendResponse out;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(engine->RecommendFallbackInto(request, &out).ok());
  }

  bool all_ok = true;
  g_new_calls.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_release);
  for (int i = 0; i < 200; ++i) {
    all_ok = all_ok && engine->RecommendFallbackInto(request, &out).ok();
  }
  g_counting.store(false, std::memory_order_release);
  const uint64_t allocs = g_new_calls.load(std::memory_order_relaxed);

  EXPECT_TRUE(all_ok);
  EXPECT_EQ(allocs, 0u)
      << "warm RecommendFallbackInto entered operator new " << allocs
      << " times over 200 calls";
  EXPECT_TRUE(out.degraded);
  EXPECT_FALSE(out.items.empty());
}

TEST_F(AllocationRegressionTest, RecomputePathStillProducesResults) {
  // Sanity guard for the counter harness itself: the cold (computing)
  // path does allocate, so the counter must observe traffic there —
  // otherwise a silent counting breakage would make the zero-alloc
  // assertions above vacuous.
  auto engine = MakeEngine();
  RecommendRequest request;
  request.user = 1;
  request.k = 3;
  RecommendResponse out;

  g_new_calls.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_release);
  const bool ok = engine->RecommendInto(request, &out).ok();
  g_counting.store(false, std::memory_order_release);

  EXPECT_TRUE(ok);
  EXPECT_GT(g_new_calls.load(std::memory_order_relaxed), 0u);
  EXPECT_FALSE(out.items.empty());
}

}  // namespace
}  // namespace spa::recsys
