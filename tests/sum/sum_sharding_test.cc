// Randomized differential tests of the sharded copy-on-write
// SumSnapshot: services configured with 1, 4 and 16 user shards are
// driven through identical op sequences and must stay
// observation-equivalent at every step — same global version, same
// per-user versions, same user creation order, byte-identical CSV
// serialization. The single-shard service doubles as the reference
// for the original one-map semantics (shard count 1 holds every user
// in one sub-map).

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "sum/sum_service.h"
#include "sum/sum_update.h"

namespace spa::sum {
namespace {

constexpr size_t kShardCounts[] = {1, 4, 16};

class ShardedSumParityTest : public ::testing::Test {
 protected:
  ShardedSumParityTest()
      : catalog_(AttributeCatalog::EmagisterDefault()) {
    for (const size_t shards : kShardCounts) {
      SumServiceConfig config;
      config.user_shards = shards;
      services_.push_back(std::make_unique<SumService>(&catalog_, config));
    }
  }

  AttributeId Emo(size_t i) const {
    const auto& ids = catalog_.ids_of(AttributeKind::kEmotional);
    return ids[i % ids.size()];
  }

  /// Applies the same update to every service and asserts success.
  void ApplyEverywhere(const SumUpdate& update) {
    for (auto& service : services_) {
      ASSERT_TRUE(service->Apply(update).ok());
    }
  }

  void ApplyAllEverywhere(const std::vector<SumUpdate>& updates) {
    for (auto& service : services_) {
      uint64_t published = 0;
      ASSERT_TRUE(service->ApplyAll(updates, &published).ok());
      EXPECT_EQ(published, service->version());
    }
  }

  /// Every observable surface must match the first (1-shard) service.
  void ExpectAllEquivalent() {
    const SumService& reference = *services_.front();
    const SumSnapshotPtr ref_snap = reference.snapshot();
    const std::string ref_csv = reference.ToCsv();
    for (size_t i = 1; i < services_.size(); ++i) {
      const SumService& other = *services_[i];
      EXPECT_EQ(other.version(), reference.version());
      EXPECT_EQ(other.size(), reference.size());
      const SumSnapshotPtr snap = other.snapshot();
      // Creation order is shard-count-independent.
      EXPECT_EQ(snap->users(), ref_snap->users());
      for (const UserId user : ref_snap->users()) {
        EXPECT_EQ(snap->UserVersion(user), ref_snap->UserVersion(user))
            << "user " << user;
      }
      // Byte-identical serialization pins the attribute values too.
      EXPECT_EQ(other.ToCsv(), ref_csv);
    }
  }

  AttributeCatalog catalog_;
  std::vector<std::unique_ptr<SumService>> services_;
};

TEST_F(ShardedSumParityTest, SnapshotShardCountsMatchConfig) {
  for (size_t i = 0; i < services_.size(); ++i) {
    EXPECT_EQ(services_[i]->snapshot()->shard_count(), kShardCounts[i]);
  }
}

TEST_F(ShardedSumParityTest, RandomizedApplySequencesAreEquivalent) {
  std::mt19937_64 rng(20070415);
  std::uniform_int_distribution<UserId> user_dist(1, 40);
  std::uniform_real_distribution<double> value_dist(0.0, 1.0);
  for (int step = 0; step < 200; ++step) {
    const UserId user = user_dist(rng);
    const AttributeId attr = Emo(static_cast<size_t>(rng() % 7));
    SumUpdate update(user);
    switch (rng() % 3) {
      case 0:
        update.SetSensibility(attr, value_dist(rng));
        break;
      case 1:
        update.SetSensibility(attr, value_dist(rng))
            .ValueFromSensibility(attr);
        break;
      default:
        break;  // empty update: touches the user into existence
    }
    ApplyEverywhere(update);
    if (step % 25 == 0) ExpectAllEquivalent();
  }
  ExpectAllEquivalent();
}

TEST_F(ShardedSumParityTest, BatchedApplyAllIsEquivalent) {
  std::mt19937_64 rng(8675309);
  std::uniform_int_distribution<UserId> user_dist(1, 64);
  std::uniform_real_distribution<double> value_dist(0.0, 1.0);
  for (int batch = 0; batch < 20; ++batch) {
    std::vector<SumUpdate> updates;
    const size_t n = 1 + rng() % 12;
    for (size_t i = 0; i < n; ++i) {
      SumUpdate update(user_dist(rng));
      update.SetSensibility(Emo(static_cast<size_t>(rng() % 5)),
                            value_dist(rng));
      updates.push_back(std::move(update));
    }
    ApplyAllEverywhere(updates);
    ExpectAllEquivalent();
  }
}

TEST_F(ShardedSumParityTest, ApplyAllBumpsVersionOnceEverywhere) {
  std::vector<SumUpdate> updates;
  for (UserId user = 1; user <= 9; ++user) {
    updates.emplace_back(user);
  }
  ApplyAllEverywhere(updates);
  for (auto& service : services_) {
    EXPECT_EQ(service->version(), 1u);
    EXPECT_EQ(service->size(), 9u);
    for (UserId user = 1; user <= 9; ++user) {
      EXPECT_EQ(service->UserVersion(user), 1u);
    }
  }
}

TEST_F(ShardedSumParityTest, DecayAllIsEquivalent) {
  std::mt19937_64 rng(424242);
  std::uniform_int_distribution<UserId> user_dist(1, 24);
  std::uniform_real_distribution<double> value_dist(0.0, 1.0);
  for (int i = 0; i < 40; ++i) {
    SumUpdate update(user_dist(rng));
    const AttributeId attr = Emo(static_cast<size_t>(rng() % 7));
    update.SetSensibility(attr, value_dist(rng))
        .ValueFromSensibility(attr)
        .AddEvidence(attr, value_dist(rng));
    ApplyEverywhere(update);
  }
  for (auto& service : services_) {
    ASSERT_TRUE(service->DecayAll(AttributeKind::kEmotional).ok());
  }
  ExpectAllEquivalent();
}

TEST_F(ShardedSumParityTest, ResetFromStoreIsEquivalent) {
  std::mt19937_64 rng(1337);
  std::uniform_int_distribution<UserId> user_dist(1, 16);
  std::uniform_real_distribution<double> value_dist(0.0, 1.0);
  for (int i = 0; i < 30; ++i) {
    SumUpdate update(user_dist(rng));
    update.SetSensibility(Emo(static_cast<size_t>(rng() % 7)),
                          value_dist(rng));
    ApplyEverywhere(update);
  }
  // Round-trip the reference state through CSV into every service.
  const std::string csv = services_.front()->ToCsv();
  for (auto& service : services_) {
    ASSERT_TRUE(service->LoadCsv(csv).ok());
  }
  ExpectAllEquivalent();
}

}  // namespace
}  // namespace spa::sum
