#include <atomic>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "sum/sum_service.h"
#include "sum/sum_update.h"

namespace spa::sum {
namespace {

class SumServiceTest : public ::testing::Test {
 protected:
  SumServiceTest()
      : catalog_(AttributeCatalog::EmagisterDefault()),
        service_(&catalog_) {}

  AttributeId Emo(eit::EmotionalAttribute attr) const {
    return catalog_.EmotionalId(attr);
  }

  AttributeCatalog catalog_;
  SumService service_;
};

TEST_F(SumServiceTest, StartsEmptyAtVersionZero) {
  EXPECT_EQ(service_.version(), 0u);
  EXPECT_EQ(service_.size(), 0u);
  EXPECT_EQ(service_.UserVersion(1), 0u);
  EXPECT_FALSE(service_.snapshot()->Get(1).ok());
}

TEST_F(SumServiceTest, EmptyUpdateTouchesUserIntoExistence) {
  ASSERT_TRUE(service_.Apply(SumUpdate(7)).ok());
  EXPECT_EQ(service_.version(), 1u);
  EXPECT_EQ(service_.UserVersion(7), 1u);
  ASSERT_TRUE(service_.snapshot()->Get(7).ok());
  EXPECT_EQ(service_.snapshot()->Get(7).value()->user(), 7);
}

TEST_F(SumServiceTest, OpsApplyInOrder) {
  const AttributeId attr = Emo(eit::EmotionalAttribute::kHopeful);
  ASSERT_TRUE(service_
                  .Apply(SumUpdate(1)
                             .SetSensibility(attr, 0.5)
                             .ValueFromSensibility(attr)
                             .AddEvidence(attr, 2.0))
                  .ok());
  const SumSnapshotPtr snapshot = service_.snapshot();
  const SmartUserModel& model = *snapshot->Get(1).value();
  EXPECT_DOUBLE_EQ(model.sensibility(attr), 0.5);
  EXPECT_DOUBLE_EQ(model.value(attr), 0.5);
  EXPECT_DOUBLE_EQ(model.evidence(attr), 2.0);
}

TEST_F(SumServiceTest, RewardPunishDecayMatchReinforcementUpdater) {
  const AttributeId attr = Emo(eit::EmotionalAttribute::kLively);
  // Reference trajectory applied directly to a scratch model.
  SmartUserModel reference(1, &catalog_);
  const ReinforcementUpdater updater(
      service_.reinforcement().config());
  updater.Reward(&reference, attr, 1.0);
  updater.Punish(&reference, attr, 0.5);
  updater.Decay(&reference, AttributeKind::kEmotional);

  ASSERT_TRUE(service_.Apply(SumUpdate(1).Reward(attr, 1.0)).ok());
  ASSERT_TRUE(service_.Apply(SumUpdate(1).Punish(attr, 0.5)).ok());
  ASSERT_TRUE(
      service_.Apply(SumUpdate(1).Decay(AttributeKind::kEmotional))
          .ok());
  EXPECT_DOUBLE_EQ(
      service_.snapshot()->Get(1).value()->sensibility(attr),
      reference.sensibility(attr));
}

TEST_F(SumServiceTest, VersionsAreMonotonicAndPerUser) {
  ASSERT_TRUE(service_.Apply(SumUpdate(1)).ok());
  ASSERT_TRUE(service_.Apply(SumUpdate(2)).ok());
  EXPECT_EQ(service_.version(), 2u);
  EXPECT_EQ(service_.UserVersion(1), 1u);
  EXPECT_EQ(service_.UserVersion(2), 2u);

  // Updating user 1 bumps user 1 only; user 2 keeps its version.
  ASSERT_TRUE(
      service_
          .Apply(SumUpdate(1).SetSensibility(
              Emo(eit::EmotionalAttribute::kShy), 0.3))
          .ok());
  EXPECT_EQ(service_.version(), 3u);
  EXPECT_EQ(service_.UserVersion(1), 3u);
  EXPECT_EQ(service_.UserVersion(2), 2u);
}

TEST_F(SumServiceTest, ApplyAllIsOneVersionBump) {
  std::vector<SumUpdate> batch;
  for (UserId u = 0; u < 10; ++u) {
    batch.push_back(SumUpdate(u).SetSensibility(
        Emo(eit::EmotionalAttribute::kMotivated), 0.1 * (u + 1)));
  }
  ASSERT_TRUE(service_.ApplyAll(batch).ok());
  EXPECT_EQ(service_.version(), 1u);
  for (UserId u = 0; u < 10; ++u) {
    EXPECT_EQ(service_.UserVersion(u), 1u);
  }
  EXPECT_EQ(service_.size(), 10u);
}

TEST_F(SumServiceTest, RejectsOutOfCatalogAttribute) {
  const auto status = service_.Apply(
      SumUpdate(1).SetValue(static_cast<AttributeId>(catalog_.size()),
                            0.5));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  // Nothing was published.
  EXPECT_EQ(service_.version(), 0u);
  EXPECT_EQ(service_.size(), 0u);
}

TEST_F(SumServiceTest, ApplyAllIsAtomicOnInvalidBatch) {
  std::vector<SumUpdate> batch;
  batch.push_back(SumUpdate(1).SetValue(0, 0.5));
  batch.push_back(SumUpdate(2).SetValue(-3, 0.5));  // invalid
  EXPECT_FALSE(service_.ApplyAll(batch).ok());
  EXPECT_EQ(service_.version(), 0u);
  EXPECT_FALSE(service_.snapshot()->Contains(1));
}

TEST_F(SumServiceTest, SnapshotsAreImmutableViews) {
  const AttributeId attr = Emo(eit::EmotionalAttribute::kEnthusiastic);
  ASSERT_TRUE(
      service_.Apply(SumUpdate(5).SetSensibility(attr, 0.2)).ok());
  const SumSnapshotPtr pinned = service_.snapshot();

  ASSERT_TRUE(
      service_.Apply(SumUpdate(5).SetSensibility(attr, 0.9)).ok());
  // The pinned snapshot still reads the old world; the fresh one reads
  // the new one.
  EXPECT_DOUBLE_EQ(pinned->Get(5).value()->sensibility(attr), 0.2);
  EXPECT_DOUBLE_EQ(
      service_.snapshot()->Get(5).value()->sensibility(attr), 0.9);
  EXPECT_LT(pinned->version(), service_.version());
}

TEST_F(SumServiceTest, SnapshotSharesUntouchedModels) {
  ASSERT_TRUE(service_.Apply(SumUpdate(1)).ok());
  ASSERT_TRUE(service_.Apply(SumUpdate(2)).ok());
  const SumSnapshotPtr before = service_.snapshot();
  ASSERT_TRUE(
      service_
          .Apply(SumUpdate(1).SetSensibility(
              Emo(eit::EmotionalAttribute::kShy), 0.4))
          .ok());
  const SumSnapshotPtr after = service_.snapshot();
  // Copy-on-write: user 2's model object is shared between snapshots,
  // user 1's was cloned.
  EXPECT_EQ(before->Get(2).value(), after->Get(2).value());
  EXPECT_NE(before->Get(1).value(), after->Get(1).value());
}

TEST_F(SumServiceTest, DecayAllDecaysEveryUserOnce) {
  SumServiceConfig config;
  config.reinforcement.decay_rate = 0.5;
  SumService service(&catalog_, config);
  const AttributeId attr = Emo(eit::EmotionalAttribute::kLively);
  ASSERT_TRUE(
      service.Apply(SumUpdate(1).SetSensibility(attr, 0.8)).ok());
  ASSERT_TRUE(
      service.Apply(SumUpdate(2).SetSensibility(attr, 0.4)).ok());
  const uint64_t before = service.version();
  ASSERT_TRUE(service.DecayAll(AttributeKind::kEmotional).ok());
  EXPECT_EQ(service.version(), before + 1);  // one batched publish
  EXPECT_NEAR(service.snapshot()->Get(1).value()->sensibility(attr),
              0.4, 1e-12);
  EXPECT_NEAR(service.snapshot()->Get(2).value()->sensibility(attr),
              0.2, 1e-12);
}

TEST_F(SumServiceTest, ForEachVisitsCreationOrder) {
  ASSERT_TRUE(service_.Apply(SumUpdate(3)).ok());
  ASSERT_TRUE(service_.Apply(SumUpdate(1)).ok());
  ASSERT_TRUE(service_.Apply(SumUpdate(2)).ok());
  std::vector<UserId> seen;
  service_.snapshot()->ForEach(
      [&seen](const SmartUserModel& m) { seen.push_back(m.user()); });
  EXPECT_EQ(seen, (std::vector<UserId>{3, 1, 2}));
}

TEST_F(SumServiceTest, ResetFromStorePublishesWholesale) {
  const AttributeId attr = Emo(eit::EmotionalAttribute::kHopeful);
  SumService source(&catalog_);
  ASSERT_TRUE(source.Apply(SumUpdate(10).SetSensibility(attr, 0.7)).ok());
  ASSERT_TRUE(source.Apply(SumUpdate(11)).ok());

  ASSERT_TRUE(service_.Apply(SumUpdate(99)).ok());  // pre-existing state
  ASSERT_TRUE(service_.LoadCsv(source.ToCsv()).ok());
  EXPECT_EQ(service_.size(), 2u);
  EXPECT_FALSE(service_.snapshot()->Contains(99));
  EXPECT_DOUBLE_EQ(
      service_.snapshot()->Get(10).value()->sensibility(attr), 0.7);
  EXPECT_EQ(service_.version(), 2u);  // strictly after the old head
  EXPECT_EQ(service_.UserVersion(10), 2u);  // every user re-stamped
  EXPECT_EQ(service_.UserVersion(11), 2u);
}

TEST_F(SumServiceTest, CsvRoundTripThroughServiceAndStore) {
  const AttributeId attr = Emo(eit::EmotionalAttribute::kStimulated);
  ASSERT_TRUE(
      service_.Apply(SumUpdate(1).SetSensibility(attr, 1.0 / 3.0)).ok());
  ASSERT_TRUE(service_.Apply(SumUpdate(2)).ok());  // untouched model

  SumService reloaded(&catalog_);
  ASSERT_TRUE(reloaded.LoadCsv(service_.ToCsv()).ok());
  EXPECT_EQ(reloaded.size(), 2u);
  EXPECT_EQ(reloaded.snapshot()->Get(1).value()->sensibility(attr),
            1.0 / 3.0);
}

// ---- CSV I/O ---------------------------------------------------------------

constexpr char kCsvHeader[] = "user,attribute,value,sensibility,evidence\n";

TEST_F(SumServiceTest, PresenceAndAttributeRowsShareOneModel) {
  ASSERT_TRUE(service_
                  .LoadCsv(std::string(kCsvHeader) +
                           "5,,0,0,0\n"
                           "5,age_norm,0.5,0.25,1\n")
                  .ok());
  EXPECT_EQ(service_.size(), 1u);
  const SumSnapshotPtr snapshot = service_.snapshot();
  ASSERT_TRUE(snapshot->Get(5).ok());
  EXPECT_DOUBLE_EQ(snapshot->Get(5).value()->value(
                       catalog_.IdOf("age_norm").value()),
                   0.5);
  EXPECT_FALSE(snapshot->Get(6).ok());
}

TEST_F(SumServiceTest, CsvRoundTripPreservesState) {
  const AttributeId age = catalog_.IdOf("age_norm").value();
  const AttributeId hopeful = Emo(eit::EmotionalAttribute::kHopeful);
  ASSERT_TRUE(service_
                  .Apply(SumUpdate(10)
                             .SetValue(age, 0.4)
                             .SetSensibility(hopeful, 0.75)
                             .AddEvidence(hopeful, 3.0))
                  .ok());
  ASSERT_TRUE(service_.Apply(SumUpdate(11)).ok());  // presence row only

  SumService restored(&catalog_);
  ASSERT_TRUE(restored.LoadCsv(service_.ToCsv()).ok());
  // The untouched user survives the round trip (regression: presence
  // rows; it used to vanish entirely).
  EXPECT_EQ(restored.size(), 2u);
  const SumSnapshotPtr snapshot = restored.snapshot();
  ASSERT_TRUE(snapshot->Get(11).ok());
  const auto loaded = snapshot->Get(10);
  ASSERT_TRUE(loaded.ok());
  EXPECT_DOUBLE_EQ(loaded.value()->value(age), 0.4);
  EXPECT_DOUBLE_EQ(loaded.value()->sensibility(hopeful), 0.75);
  EXPECT_DOUBLE_EQ(loaded.value()->evidence(hopeful), 3.0);
}

TEST_F(SumServiceTest, HeaderOnlyCsvLoadsAnEmptyService) {
  ASSERT_TRUE(service_.Apply(SumUpdate(1)).ok());
  const std::string csv = SumService(&catalog_).ToCsv();  // header only
  EXPECT_EQ(csv, kCsvHeader);
  ASSERT_TRUE(service_.LoadCsv(csv).ok());
  EXPECT_EQ(service_.size(), 0u);
  EXPECT_EQ(service_.version(), 2u);  // the empty state is published
}

TEST_F(SumServiceTest, CsvSerializesAtFullDoublePrecision) {
  // Values with no short decimal representation (regression: %.9g used
  // to round them and the round trip drifted).
  const double value = 1.0 / 3.0;
  const double sensibility = 0.1 + 0.2;  // 0.30000000000000004
  const double evidence = 1e-17 + 7.0;
  const AttributeId attr = catalog_.IdOf("age_norm").value();
  ASSERT_TRUE(service_
                  .Apply(SumUpdate(1)
                             .SetValue(attr, value)
                             .SetSensibility(attr, sensibility)
                             .AddEvidence(attr, evidence))
                  .ok());
  ASSERT_TRUE(service_.Apply(SumUpdate(2)).ok());  // presence row

  const std::string csv = service_.ToCsv();
  SumService restored(&catalog_);
  ASSERT_TRUE(restored.LoadCsv(csv).ok());
  const SmartUserModel& loaded = *restored.snapshot()->Get(1).value();
  EXPECT_EQ(loaded.value(attr), value);  // bitwise, not NEAR
  EXPECT_EQ(loaded.sensibility(attr), sensibility);
  EXPECT_EQ(loaded.evidence(attr), evidence);
  // ToCsv -> LoadCsv -> ToCsv reproduces the document byte for byte.
  EXPECT_EQ(restored.ToCsv(), csv);
}

TEST_F(SumServiceTest, UnknownAttributeRowErrorNamesRowAndAttribute) {
  const spa::Status status =
      service_.LoadCsv(std::string(kCsvHeader) +
                       "1,age_norm,0.5,0.5,1\n"
                       "2,definitely_not_real,0.5,0.5,1\n");
  ASSERT_FALSE(status.ok());
  // The error pinpoints the offending row and attribute name.
  EXPECT_NE(status.message().find("row 2"), std::string::npos) << status;
  EXPECT_NE(status.message().find("definitely_not_real"),
            std::string::npos)
      << status;
}

TEST_F(SumServiceTest, LoadCsvRejectsBadInput) {
  EXPECT_FALSE(service_.LoadCsv("").ok());
  EXPECT_FALSE(service_
                   .LoadCsv(std::string(kCsvHeader) +
                            "1,nonexistent_attr,0.5,0.5,1\n")
                   .ok());
  EXPECT_FALSE(
      service_.LoadCsv(std::string(kCsvHeader) + "x,age_norm,0.5,0.5,1\n")
          .ok());
  EXPECT_FALSE(
      service_.LoadCsv(std::string(kCsvHeader) + "1,age_norm,0.5\n").ok());
  EXPECT_EQ(service_.version(), 0u);  // nothing was published
}

TEST_F(SumServiceTest, LoadCsvKeepsCreationOrder) {
  ASSERT_TRUE(service_
                  .LoadCsv(std::string(kCsvHeader) +
                           "3,,0,0,0\n"
                           "1,age_norm,0.5,0.5,1\n"
                           "2,,0,0,0\n"
                           "1,,0,0,0\n")
                  .ok());
  std::vector<UserId> seen;
  service_.snapshot()->ForEach(
      [&seen](const SmartUserModel& m) { seen.push_back(m.user()); });
  EXPECT_EQ(seen, (std::vector<UserId>{3, 1, 2}));
}

TEST_F(SumServiceTest, ApplyRejectsNonFiniteAmounts) {
  const AttributeId attr = Emo(eit::EmotionalAttribute::kHopeful);
  ASSERT_TRUE(service_.Apply(SumUpdate(1).SetSensibility(attr, 0.5)).ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<SumUpdate> bad = {
      SumUpdate(1).SetSensibility(attr, nan),
      SumUpdate(1).SetValue(attr, inf),
      SumUpdate(1).AddEvidence(attr, -inf),
      SumUpdate(2).Reward(attr, nan),
      SumUpdate(2).Punish(attr, inf),
  };
  for (const SumUpdate& update : bad) {
    const spa::Status status = service_.Apply(update);
    EXPECT_EQ(status.code(), spa::StatusCode::kInvalidArgument) << status;
  }
  // A batch with one bad update publishes none of it.
  const spa::Status batch = service_.ApplyAll(
      {SumUpdate(3).SetSensibility(attr, 0.2),
       SumUpdate(3).SetSensibility(attr, nan)});
  EXPECT_EQ(batch.code(), spa::StatusCode::kInvalidArgument);
  EXPECT_EQ(service_.version(), 1u);
  EXPECT_EQ(service_.size(), 1u);
  EXPECT_EQ(service_.snapshot()->Get(1).value()->sensibility(attr), 0.5);
}

TEST_F(SumServiceTest, LoadCsvRejectsNonFiniteFields) {
  ASSERT_TRUE(service_.Apply(SumUpdate(9)).ok());
  const std::string before = service_.ToCsv();
  // std::from_chars accepts these spellings; none may reach a model.
  for (const char* row :
       {"1,age_norm,nan,0.5,1\n", "1,age_norm,0.5,nan,1\n",
        "1,age_norm,0.5,0.5,inf\n", "1,age_norm,-inf,0.5,1\n",
        "1,,nan,0,0\n"}) {
    const spa::Status status =
        service_.LoadCsv(std::string(kCsvHeader) + row);
    EXPECT_EQ(status.code(), spa::StatusCode::kInvalidArgument)
        << row << status;
    EXPECT_NE(status.message().find("non-finite"), std::string::npos)
        << status;
  }
  EXPECT_EQ(service_.version(), 1u);
  EXPECT_EQ(service_.ToCsv(), before);
}

TEST_F(SumServiceTest, LoadCsvRejectsDuplicateUserAttributeRows) {
  ASSERT_TRUE(service_.Apply(SumUpdate(9)).ok());
  const spa::Status status =
      service_.LoadCsv(std::string(kCsvHeader) +
                       "1,age_norm,0.5,0.5,1\n"
                       "2,age_norm,0.5,0.5,1\n"
                       "1,age_norm,0.25,0.5,2\n");
  ASSERT_EQ(status.code(), spa::StatusCode::kInvalidArgument) << status;
  EXPECT_NE(status.message().find("row 3"), std::string::npos) << status;
  EXPECT_EQ(service_.version(), 1u);
  EXPECT_EQ(service_.size(), 1u);
  EXPECT_TRUE(service_.snapshot()->Contains(9));
}

TEST_F(SumServiceTest, FromModelCapturesNonDefaultState) {
  SmartUserModel scratch(42, &catalog_);
  const AttributeId attr = Emo(eit::EmotionalAttribute::kEmpathic);
  scratch.set_sensibility(attr, 0.6);
  scratch.set_value(attr, 0.25);
  scratch.add_evidence(attr, 1.5);

  ASSERT_TRUE(service_.Apply(SumUpdate::FromModel(scratch)).ok());
  const SmartUserModel& loaded = *service_.snapshot()->Get(42).value();
  EXPECT_DOUBLE_EQ(loaded.sensibility(attr), 0.6);
  EXPECT_DOUBLE_EQ(loaded.value(attr), 0.25);
  EXPECT_DOUBLE_EQ(loaded.evidence(attr), 1.5);
}

// Concurrency: readers pin snapshots while writers publish. Run under
// TSAN to prove the read/write split is race-free; the invariants
// below hold in any interleaving.
TEST_F(SumServiceTest, ConcurrentReadersSeeConsistentVersions) {
  const AttributeId attr = Emo(eit::EmotionalAttribute::kMotivated);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> max_seen{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      uint64_t last = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const SumSnapshotPtr snapshot = service_.snapshot();
        // Global version never goes backwards for a given reader.
        ASSERT_GE(snapshot->version(), last);
        last = snapshot->version();
        // Per-user version never exceeds the snapshot's global one.
        ASSERT_LE(snapshot->UserVersion(1), snapshot->version());
        const auto model = snapshot->Get(1);
        if (model.ok()) {
          const double w = model.value()->sensibility(attr);
          ASSERT_GE(w, 0.0);
          ASSERT_LE(w, 1.0);
        }
        uint64_t prev = max_seen.load(std::memory_order_relaxed);
        while (last > prev &&
               !max_seen.compare_exchange_weak(prev, last)) {
        }
      }
    });
  }

  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(
        service_
            .Apply(SumUpdate(1).Reward(attr, 0.05).Punish(attr, 0.02))
            .ok());
  }
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(service_.version(), 300u);
  EXPECT_LE(max_seen.load(), 300u);
}

}  // namespace
}  // namespace spa::sum
