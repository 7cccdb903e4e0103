#include <cmath>

#include "gtest/gtest.h"
#include "sum/catalog.h"
#include "sum/human_values.h"
#include "sum/reward_punish.h"
#include "sum/user_model.h"

namespace spa::sum {
namespace {

TEST(AttributeCatalogTest, SeventyFiveAttributes) {
  const AttributeCatalog catalog = AttributeCatalog::EmagisterDefault();
  EXPECT_EQ(catalog.size(), 75u);
  EXPECT_EQ(catalog.ids_of(AttributeKind::kObjective).size(), 30u);
  EXPECT_EQ(catalog.ids_of(AttributeKind::kSubjective).size(), 35u);
  EXPECT_EQ(catalog.ids_of(AttributeKind::kEmotional).size(), 10u);
}

TEST(AttributeCatalogTest, LookupByName) {
  const AttributeCatalog catalog = AttributeCatalog::EmagisterDefault();
  const auto id = catalog.IdOf("price_sensitivity");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(catalog.def(id.value()).kind, AttributeKind::kSubjective);
  EXPECT_FALSE(catalog.IdOf("no_such_attribute").ok());
}

TEST(AttributeCatalogTest, EmotionalIdsMapToEitAttributes) {
  const AttributeCatalog catalog = AttributeCatalog::EmagisterDefault();
  for (eit::EmotionalAttribute emotion : eit::AllEmotionalAttributes()) {
    const AttributeId id = catalog.EmotionalId(emotion);
    const AttributeDef& def = catalog.def(id);
    EXPECT_EQ(def.kind, AttributeKind::kEmotional);
    EXPECT_EQ(def.emotion, emotion);
    EXPECT_EQ(def.name, eit::EmotionalAttributeName(emotion));
    EXPECT_EQ(def.valence, eit::ValenceOf(emotion));
  }
}

TEST(AttributeCatalogTest, IdsAreDense) {
  const AttributeCatalog catalog = AttributeCatalog::EmagisterDefault();
  for (size_t i = 0; i < catalog.size(); ++i) {
    EXPECT_EQ(catalog.defs()[i].id, static_cast<AttributeId>(i));
  }
}

class SmartUserModelTest : public ::testing::Test {
 protected:
  AttributeCatalog catalog_ = AttributeCatalog::EmagisterDefault();
};

TEST_F(SmartUserModelTest, InitializesFromDefaults) {
  SmartUserModel model(42, &catalog_);
  EXPECT_EQ(model.user(), 42);
  const auto pref_id = catalog_.IdOf("price_sensitivity").value();
  EXPECT_DOUBLE_EQ(model.value(pref_id), 0.5);  // neutral prior
  const auto age_id = catalog_.IdOf("age_norm").value();
  EXPECT_DOUBLE_EQ(model.value(age_id), 0.0);
  // Sensibilities start at zero (nothing learned yet).
  for (const AttributeDef& def : catalog_.defs()) {
    EXPECT_DOUBLE_EQ(model.sensibility(def.id), 0.0);
  }
}

TEST_F(SmartUserModelTest, ValuesClamped) {
  SmartUserModel model(1, &catalog_);
  model.set_value(0, 2.0);
  EXPECT_DOUBLE_EQ(model.value(0), 1.0);
  model.set_value(0, -1.0);
  EXPECT_DOUBLE_EQ(model.value(0), 0.0);
  model.set_sensibility(0, 1.5);
  EXPECT_DOUBLE_EQ(model.sensibility(0), 1.0);
}

TEST_F(SmartUserModelTest, DominantOrderingAndThreshold) {
  SmartUserModel model(1, &catalog_);
  const AttributeId hopeful =
      catalog_.EmotionalId(eit::EmotionalAttribute::kHopeful);
  const AttributeId shy =
      catalog_.EmotionalId(eit::EmotionalAttribute::kShy);
  const AttributeId lively =
      catalog_.EmotionalId(eit::EmotionalAttribute::kLively);
  model.set_sensibility(hopeful, 0.9);
  model.set_sensibility(shy, 0.5);
  model.set_sensibility(lively, 0.3);

  const auto dominant =
      model.Dominant(AttributeKind::kEmotional, 0.4);
  ASSERT_EQ(dominant.size(), 2u);
  EXPECT_EQ(dominant[0].id, hopeful);
  EXPECT_EQ(dominant[1].id, shy);

  const auto top1 = model.Dominant(AttributeKind::kEmotional, 0.1, 1);
  ASSERT_EQ(top1.size(), 1u);
  EXPECT_EQ(top1[0].id, hopeful);
}

TEST_F(SmartUserModelTest, EmotionalSensibilitiesVector) {
  SmartUserModel model(1, &catalog_);
  model.set_sensibility(
      catalog_.EmotionalId(eit::EmotionalAttribute::kEnthusiastic), 0.7);
  const auto v = model.EmotionalSensibilities();
  ASSERT_EQ(v.size(), 10u);
  EXPECT_DOUBLE_EQ(v[0], 0.7);
  EXPECT_DOUBLE_EQ(v[9], 0.0);
}

TEST_F(SmartUserModelTest, FeaturesRespectEmotionalToggle) {
  lifelog::FeatureSpace space;
  SmartUserModel::RegisterFeatures(catalog_, &space);
  SmartUserModel model(1, &catalog_);
  const AttributeId hopeful =
      catalog_.EmotionalId(eit::EmotionalAttribute::kHopeful);
  model.set_value(hopeful, 0.8);
  model.set_sensibility(hopeful, 0.6);

  const auto with = model.Features(space, /*include_emotional=*/true);
  const auto without = model.Features(space, /*include_emotional=*/false);
  EXPECT_GT(with.nnz(), without.nnz());

  const auto sens_idx = space.IndexOf("sum.sens.hopeful");
  ASSERT_TRUE(sens_idx.ok());
  bool found = false;
  for (size_t i = 0; i < with.nnz(); ++i) {
    if (with.index(i) == sens_idx.value()) {
      found = true;
      EXPECT_DOUBLE_EQ(with.value(i), 0.6);
    }
  }
  EXPECT_TRUE(found);
  for (size_t i = 0; i < without.nnz(); ++i) {
    EXPECT_NE(without.index(i), sens_idx.value());
  }
}

TEST(ReinforcementTest, RewardIncreasesBounded) {
  const AttributeCatalog catalog = AttributeCatalog::EmagisterDefault();
  SmartUserModel model(1, &catalog);
  const ReinforcementUpdater updater;
  const AttributeId id = 70;  // an emotional attribute
  double prev = model.sensibility(id);
  for (int i = 0; i < 100; ++i) {
    updater.Reward(&model, id);
    const double w = model.sensibility(id);
    EXPECT_GE(w, prev);
    EXPECT_LE(w, 1.0);
    prev = w;
  }
  EXPECT_GT(model.sensibility(id), 0.9);  // converges toward 1
  EXPECT_DOUBLE_EQ(model.evidence(id), 100.0);
}

TEST(ReinforcementTest, PunishDecreasesBounded) {
  const AttributeCatalog catalog = AttributeCatalog::EmagisterDefault();
  SmartUserModel model(1, &catalog);
  const ReinforcementUpdater updater;
  const AttributeId id = 70;
  model.set_sensibility(id, 0.9);
  for (int i = 0; i < 100; ++i) {
    updater.Punish(&model, id);
    EXPECT_GE(model.sensibility(id), 0.0);
  }
  EXPECT_LT(model.sensibility(id), 0.01);
}

TEST(ReinforcementTest, RewardPunishFixedPoint) {
  // Alternating reward/punish should hover, not diverge.
  const AttributeCatalog catalog = AttributeCatalog::EmagisterDefault();
  SmartUserModel model(1, &catalog);
  const ReinforcementUpdater updater;
  const AttributeId id = 72;
  for (int i = 0; i < 200; ++i) {
    if (i % 2 == 0) {
      updater.Reward(&model, id);
    } else {
      updater.Punish(&model, id);
    }
  }
  EXPECT_GT(model.sensibility(id), 0.05);
  EXPECT_LT(model.sensibility(id), 0.7);
}

TEST(ReinforcementTest, MagnitudeScalesStep) {
  const AttributeCatalog catalog = AttributeCatalog::EmagisterDefault();
  SmartUserModel a(1, &catalog), b(2, &catalog);
  const ReinforcementUpdater updater;
  updater.Reward(&a, 0, 0.1);
  updater.Reward(&b, 0, 1.0);
  EXPECT_LT(a.sensibility(0), b.sensibility(0));
}

TEST(ReinforcementTest, DecayOnlyTouchesRequestedKind) {
  const AttributeCatalog catalog = AttributeCatalog::EmagisterDefault();
  SmartUserModel model(1, &catalog);
  const ReinforcementUpdater updater({0.15, 0.5, 0.0});
  const AttributeId emotional =
      catalog.EmotionalId(eit::EmotionalAttribute::kLively);
  const AttributeId subjective =
      catalog.IdOf("brand_affinity").value();
  model.set_sensibility(emotional, 0.8);
  model.set_sensibility(subjective, 0.8);
  updater.Decay(&model, AttributeKind::kEmotional);
  EXPECT_NEAR(model.sensibility(emotional), 0.4, 1e-12);
  EXPECT_DOUBLE_EQ(model.sensibility(subjective), 0.8);
}

TEST(HumanValuesTest, ScaleReflectsSensibilities) {
  const AttributeCatalog catalog = AttributeCatalog::EmagisterDefault();
  SmartUserModel model(1, &catalog);
  // A strongly empathic, group-oriented user -> benevolence dominates.
  model.set_sensibility(
      catalog.EmotionalId(eit::EmotionalAttribute::kEmpathic), 0.95);
  model.set_value(catalog.IdOf("group_learning_preference").value(),
                  0.9);
  model.set_value(catalog.IdOf("social_influence").value(), 0.8);
  // Suppress the neutral 0.5 priors that would mask the signal.
  for (AttributeId id : catalog.ids_of(AttributeKind::kSubjective)) {
    if (id != catalog.IdOf("group_learning_preference").value() &&
        id != catalog.IdOf("social_influence").value()) {
      model.set_value(id, 0.0);
    }
  }
  const HumanValuesScale scale = ComputeHumanValues(model);
  EXPECT_EQ(scale.Dominant(), HumanValue::kBenevolence);
  for (double s : scale.scores) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(HumanValuesTest, AllValueNamesDistinct) {
  std::set<std::string_view> names;
  for (size_t v = 0; v < kNumHumanValues; ++v) {
    names.insert(HumanValueName(static_cast<HumanValue>(v)));
  }
  EXPECT_EQ(names.size(), kNumHumanValues);
}

TEST(CoherenceTest, AlignedUserScoresHigh) {
  const AttributeCatalog catalog = AttributeCatalog::EmagisterDefault();
  SmartUserModel model(1, &catalog);
  // Stated = observed on two attributes; everything else zeroed.
  for (AttributeId id : catalog.ids_of(AttributeKind::kSubjective)) {
    model.set_value(id, 0.0);
  }
  const AttributeId a = catalog.IdOf("topic_it").value();
  const AttributeId b = catalog.IdOf("tech_savviness").value();
  model.set_value(a, 0.9);
  model.set_sensibility(a, 0.9);
  model.set_value(b, 0.7);
  model.set_sensibility(b, 0.7);
  EXPECT_NEAR(CoherenceFunction(model), 1.0, 1e-9);
}

TEST(CoherenceTest, OrthogonalUserScoresHalf) {
  const AttributeCatalog catalog = AttributeCatalog::EmagisterDefault();
  SmartUserModel model(1, &catalog);
  for (AttributeId id : catalog.ids_of(AttributeKind::kSubjective)) {
    model.set_value(id, 0.0);
  }
  model.set_value(catalog.IdOf("topic_it").value(), 1.0);
  model.set_sensibility(catalog.IdOf("topic_arts").value(), 1.0);
  EXPECT_NEAR(CoherenceFunction(model), 0.5, 1e-9);
}

TEST(CoherenceTest, NoSignalIsNeutral) {
  const AttributeCatalog catalog = AttributeCatalog::EmagisterDefault();
  SmartUserModel model(1, &catalog);
  for (AttributeId id : catalog.ids_of(AttributeKind::kSubjective)) {
    model.set_value(id, 0.0);
  }
  EXPECT_DOUBLE_EQ(CoherenceFunction(model), 0.5);
}

// Property sweep over learning rates: reward/punish always keep the
// sensibility in [0,1].
class ReinforcementRateSweep : public ::testing::TestWithParam<double> {};

TEST_P(ReinforcementRateSweep, BoundsInvariant) {
  const AttributeCatalog catalog = AttributeCatalog::EmagisterDefault();
  SmartUserModel model(1, &catalog);
  ReinforcementConfig config;
  config.learning_rate = GetParam();
  const ReinforcementUpdater updater(config);
  for (int i = 0; i < 50; ++i) {
    updater.Reward(&model, 0, 2.0);   // magnitude > 1 exercised too
    updater.Punish(&model, 1, 3.0);
    const double w0 = model.sensibility(0);
    const double w1 = model.sensibility(1);
    ASSERT_GE(w0, 0.0);
    ASSERT_LE(w0, 1.0);
    ASSERT_GE(w1, 0.0);
    ASSERT_LE(w1, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Rates, ReinforcementRateSweep,
                         ::testing::Values(0.01, 0.1, 0.3, 0.5, 1.0));

}  // namespace
}  // namespace spa::sum
