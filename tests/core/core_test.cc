#include <cmath>

#include "campaign/course.h"
#include "core/spa.h"
#include "gtest/gtest.h"
#include "lifelog/weblog.h"

namespace spa::core {
namespace {

class SpaTest : public ::testing::Test {
 protected:
  SpaConfig SmallConfig() {
    SpaConfig config;
    config.eit_questions_per_section = 2;  // 16-question bank
    return config;
  }
};

TEST_F(SpaTest, ConstructsWithAllComponents) {
  Spa spa(SmallConfig());
  EXPECT_EQ(spa.action_catalog().size(), 984u);
  EXPECT_EQ(spa.attribute_catalog().size(), 75u);
  EXPECT_TRUE(spa.runtime()->HasAgent("preproc-0"));
  EXPECT_TRUE(spa.runtime()->HasAgent("attributes-manager"));
  EXPECT_TRUE(spa.runtime()->HasAgent("messaging"));
  EXPECT_FALSE(spa.smart_component()->trained());
}

TEST_F(SpaTest, IngestLogLinesLandsEvents) {
  Spa spa(SmallConfig());
  std::vector<lifelog::Event> events;
  for (int i = 0; i < 50; ++i) {
    lifelog::Event e;
    e.user = 100 + i % 5;
    e.time = spa.clock()->now() -
             static_cast<TimeMicros>(i) * kMicrosPerHour;
    e.action_code = (i * 11) % 984;
    events.push_back(e);
  }
  lifelog::WeblogSynthesizer synth({0.05, 0.05, 0.02, 3});
  std::vector<std::string> lines;
  synth.Synthesize(events, &lines);
  spa.IngestLogLines(lines);
  EXPECT_EQ(spa.lifelog()->total_events(), 50u);
  EXPECT_GT(spa.preprocessor()->family_stats().preprocess.lines_in, 50u);
}

TEST_F(SpaTest, EitFlowActivatesEmotionalAttributes) {
  Spa spa(SmallConfig());
  const sum::UserId user = 42;
  const auto qid = spa.NextEitQuestion(user);
  ASSERT_TRUE(qid.ok());
  const auto& question =
      *spa.gradual_eit().bank().ById(qid.value()).value();
  ASSERT_TRUE(
      spa.RecordEitAnswer(user, qid.value(), question.ModalOption())
          .ok());

  // The EIT answer became a LifeLog event...
  EXPECT_EQ(spa.lifelog()->UserEvents(user).size(), 1u);
  // ...and activated the impacted emotional attributes in the SUM.
  const auto snapshot = spa.sum_snapshot();
  const auto model = snapshot->Get(user);
  ASSERT_TRUE(model.ok());
  double total_sens = 0.0;
  for (double s : model.value()->EmotionalSensibilities()) {
    total_sens += s;
  }
  EXPECT_GT(total_sens, 0.0);
  // Scores are tracked.
  EXPECT_EQ(spa.EitScoresFor(user).answered, 1u);
}

TEST_F(SpaTest, DuplicateEitAnswerRejected) {
  Spa spa(SmallConfig());
  const auto qid = spa.NextEitQuestion(7);
  ASSERT_TRUE(qid.ok());
  ASSERT_TRUE(spa.RecordEitAnswer(7, qid.value(), 0).ok());
  EXPECT_FALSE(spa.RecordEitAnswer(7, qid.value(), 0).ok());
  // NextEitQuestion moves on.
  const auto next = spa.NextEitQuestion(7);
  ASSERT_TRUE(next.ok());
  EXPECT_NE(next.value(), qid.value());
}

TEST_F(SpaTest, ObserveInteractionUpdatesSensibility) {
  Spa spa(SmallConfig());
  const auto attr = spa.attribute_catalog().EmotionalId(
      eit::EmotionalAttribute::kMotivated);
  spa.ObserveInteraction(5, 3, attr, true);
  EXPECT_GT(spa.sum_snapshot()->Get(5).value()->sensibility(attr), 0.0);
}

TEST_F(SpaTest, RecommendCoursesEmptyWithoutInteractions) {
  Spa spa(SmallConfig());
  EXPECT_TRUE(spa.RecommendCourses(1, 5).empty());
}

TEST_F(SpaTest, RecommendCoursesWithContentAndEmotion) {
  Spa spa(SmallConfig());
  const auto attrs = spa.attribute_catalog();
  const campaign::CourseCatalog catalog =
      campaign::CourseCatalog::Generate(30, attrs, 5);
  for (const auto& course : catalog.courses()) {
    spa.SetItemFeatures(course.id, catalog.ContentFeatures(course));
    spa.SetItemEmotionProfile(course.id, course.emotion_profile);
  }
  // Two communities of users.
  const auto& clicks =
      spa.action_catalog().CodesFor(lifelog::ActionType::kClick);
  for (sum::UserId u = 0; u < 12; ++u) {
    for (int j = 0; j < 6; ++j) {
      lifelog::Event e;
      e.user = u;
      e.time = spa.clock()->now();
      e.action_code = clicks[0];
      e.item = static_cast<lifelog::ItemId>(
          (u % 2 == 0 ? 0 : 15) + ((u + j) % 10));
      spa.RecordEvent(e);
    }
  }
  ASSERT_TRUE(spa.RefreshRecommenders().ok());
  const auto recs = spa.RecommendCourses(0, 5);
  EXPECT_FALSE(recs.empty());
  EXPECT_LE(recs.size(), 5u);
  // Recommendations exclude items user 0 already interacted with.
  for (const auto& scored : recs) {
    bool seen = false;
    for (const auto& e : spa.lifelog()->UserEvents(0)) {
      if (e.item == scored.item) seen = true;
    }
    EXPECT_FALSE(seen) << "item " << scored.item;
  }
}

TEST_F(SpaTest, ZeroWeightInteractionsDoNotLeakBack) {
  // A rating of 0 never enters the sparse interaction matrix (its
  // interaction weight is 0), but the user demonstrably saw the item —
  // the serving path must still exclude it.
  Spa spa(SmallConfig());
  const auto& clicks =
      spa.action_catalog().CodesFor(lifelog::ActionType::kClick);
  const auto& ratings =
      spa.action_catalog().CodesFor(lifelog::ActionType::kRating);
  // Item 5 is popular with other users.
  for (sum::UserId u = 1; u <= 6; ++u) {
    for (lifelog::ItemId i : {5, 6, 7}) {
      lifelog::Event e;
      e.user = u;
      e.time = spa.clock()->now();
      e.action_code = clicks[0];
      e.item = i;
      spa.RecordEvent(e);
    }
  }
  // User 0 clicks items 6 and 7, and rates item 5 with value 0.
  for (lifelog::ItemId i : {6, 7}) {
    lifelog::Event e;
    e.user = 0;
    e.time = spa.clock()->now();
    e.action_code = clicks[0];
    e.item = i;
    spa.RecordEvent(e);
  }
  lifelog::Event zero_rating;
  zero_rating.user = 0;
  zero_rating.time = spa.clock()->now();
  zero_rating.action_code = ratings[0];
  zero_rating.item = 5;
  zero_rating.value = 0.0;
  spa.RecordEvent(zero_rating);

  recsys::RecommendRequest request;
  request.user = 0;
  request.k = 10;
  const auto response = spa.Recommend(request);
  ASSERT_TRUE(response.ok());
  for (const auto& item : response.value().items) {
    EXPECT_NE(item.item, 5) << "zero-weight-seen item leaked back";
  }

  // The relaxed policy may return it again: exclusion is per-request.
  recsys::RecommendRequest relaxed;
  relaxed.user = 0;
  relaxed.k = 10;
  relaxed.exclude_seen = recsys::ExcludeSeen::kNo;
  const auto relaxed_response = spa.Recommend(relaxed);
  ASSERT_TRUE(relaxed_response.ok());
  bool has_item_5 = false;
  for (const auto& item : relaxed_response.value().items) {
    if (item.item == 5) has_item_5 = true;
  }
  EXPECT_TRUE(has_item_5);
}

TEST_F(SpaTest, RecommendBatchMatchesSequentialThroughSpa) {
  Spa spa(SmallConfig());
  const auto& clicks =
      spa.action_catalog().CodesFor(lifelog::ActionType::kClick);
  for (sum::UserId u = 0; u < 12; ++u) {
    for (int j = 0; j < 6; ++j) {
      lifelog::Event e;
      e.user = u;
      e.time = spa.clock()->now();
      e.action_code = clicks[0];
      e.item = static_cast<lifelog::ItemId>(
          (u % 2 == 0 ? 0 : 15) + ((u + j) % 10));
      spa.RecordEvent(e);
    }
  }
  std::vector<recsys::RecommendRequest> requests;
  for (sum::UserId u = 0; u < 12; ++u) {
    recsys::RecommendRequest request;
    request.user = u;
    request.k = 4;
    requests.push_back(std::move(request));
  }
  std::vector<spa::Result<recsys::RecommendResponse>> sequential;
  for (const auto& request : requests) {
    sequential.push_back(spa.Recommend(request));
  }
  const auto batched = spa.RecommendBatch(requests);
  ASSERT_EQ(batched.size(), sequential.size());
  for (size_t i = 0; i < batched.size(); ++i) {
    ASSERT_EQ(batched[i].ok(), sequential[i].ok());
    if (!batched[i].ok()) continue;
    const auto& lhs = sequential[i].value().items;
    const auto& rhs = batched[i].value().items;
    ASSERT_EQ(lhs.size(), rhs.size());
    for (size_t j = 0; j < lhs.size(); ++j) {
      EXPECT_EQ(lhs[j].item, rhs[j].item);
      EXPECT_EQ(lhs[j].score, rhs[j].score);
    }
  }
}

TEST_F(SpaTest, MessageForComposesThroughAgent) {
  Spa spa(SmallConfig());
  const auto hopeful = spa.attribute_catalog().EmotionalId(
      eit::EmotionalAttribute::kHopeful);
  ASSERT_TRUE(spa.sum_service()
                  ->Apply(sum::SumUpdate(9).SetSensibility(hopeful, 0.9))
                  .ok());
  const auto message = spa.MessageFor(9, 4, {hopeful});
  EXPECT_EQ(message.message_case,
            agents::MessageCase::kSingleMatch);
  EXPECT_EQ(message.argued_attribute, hopeful);
  EXPECT_EQ(spa.messaging()->stats().composed, 1u);
}

TEST_F(SpaTest, PropensityRequiresTraining) {
  Spa spa(SmallConfig());
  ASSERT_TRUE(spa.sum_service()->Apply(sum::SumUpdate(1)).ok());
  EXPECT_EQ(spa.Propensity(1).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(spa.SelectTopProspects({1}, 1).ok());
}

TEST_F(SpaTest, TrainPropensityEndToEnd) {
  Spa spa(SmallConfig());
  // Build a population where responders have high activity.
  const auto& clicks =
      spa.action_catalog().CodesFor(lifelog::ActionType::kClick);
  std::vector<PropensityExample> examples;
  Rng rng(3);
  for (sum::UserId u = 0; u < 120; ++u) {
    const bool responder = (u % 3 == 0);
    ASSERT_TRUE(spa.sum_service()->Apply(sum::SumUpdate(u)).ok());
    const int activity =
        responder ? 12 : static_cast<int>(rng.UniformInt(1, 4));
    for (int j = 0; j < activity; ++j) {
      lifelog::Event e;
      e.user = u;
      e.time = spa.clock()->now() -
               static_cast<TimeMicros>(j) * kMicrosPerDay;
      e.action_code = clicks[static_cast<size_t>(j) % clicks.size()];
      e.item = static_cast<lifelog::ItemId>(j % 7);
      spa.RecordEvent(e);
    }
    examples.push_back({u, responder});
  }
  ASSERT_TRUE(spa.TrainPropensity(examples).ok());
  EXPECT_TRUE(spa.smart_component()->trained());
  EXPECT_GT(spa.smart_component()->last_validation_auc(), 0.8);

  // Responders should score higher than non-responders on average.
  double responder_sum = 0.0, other_sum = 0.0;
  size_t responder_n = 0, other_n = 0;
  for (sum::UserId u = 0; u < 120; ++u) {
    const auto p = spa.Propensity(u);
    ASSERT_TRUE(p.ok());
    EXPECT_GE(p.value(), 0.0);
    EXPECT_LE(p.value(), 1.0);
    if (u % 3 == 0) {
      responder_sum += p.value();
      ++responder_n;
    } else {
      other_sum += p.value();
      ++other_n;
    }
  }
  EXPECT_GT(responder_sum / static_cast<double>(responder_n),
            other_sum / static_cast<double>(other_n));

  // Selection function returns the requested count, ordered.
  const auto top = spa.SelectTopProspects(
      [] {
        std::vector<sum::UserId> all;
        for (sum::UserId u = 0; u < 120; ++u) all.push_back(u);
        return all;
      }(),
      10);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top.value().size(), 10u);
  for (size_t i = 1; i < top.value().size(); ++i) {
    EXPECT_GE(top.value()[i - 1].second, top.value()[i].second);
  }
}

TEST_F(SpaTest, TrainRejectsDegenerateInputs) {
  Spa spa(SmallConfig());
  EXPECT_FALSE(spa.TrainPropensity({}).ok());
  std::vector<PropensityExample> all_positive;
  for (sum::UserId u = 0; u < 20; ++u) {
    ASSERT_TRUE(spa.sum_service()->Apply(sum::SumUpdate(u)).ok());
    all_positive.push_back({u, true});
  }
  EXPECT_FALSE(spa.TrainPropensity(all_positive).ok());
}

TEST_F(SpaTest, EmotionalToggleChangesFeatureVector) {
  SpaConfig with = SmallConfig();
  SpaConfig without = SmallConfig();
  without.include_emotional_features = false;

  Spa spa_with(with);
  Spa spa_without(without);
  for (Spa* spa : {&spa_with, &spa_without}) {
    const auto hopeful = spa->attribute_catalog().EmotionalId(
        eit::EmotionalAttribute::kHopeful);
    ASSERT_TRUE(spa->sum_service()
                    ->Apply(sum::SumUpdate(1)
                                .SetSensibility(hopeful, 0.8)
                                .SetValue(hopeful, 0.8))
                    .ok());
  }
  const auto f_with = spa_with.smart_component()->FeaturesFor(
      *spa_with.sum_snapshot()->Get(1).value(), {},
      spa_with.clock()->now());
  const auto f_without = spa_without.smart_component()->FeaturesFor(
      *spa_without.sum_snapshot()->Get(1).value(), {},
      spa_without.clock()->now());
  EXPECT_GT(f_with.nnz(), f_without.nnz());
}

TEST_F(SpaTest, TickAdvancesClockAndDecays) {
  Spa spa(SmallConfig());
  const auto attr = spa.attribute_catalog().EmotionalId(
      eit::EmotionalAttribute::kLively);
  ASSERT_TRUE(spa.sum_service()
                  ->Apply(sum::SumUpdate(2).SetSensibility(attr, 0.8))
                  .ok());
  const TimeMicros before = spa.clock()->now();
  spa.Tick(kMicrosPerDay);
  EXPECT_EQ(spa.clock()->now(), before + kMicrosPerDay);
  EXPECT_LT(spa.sum_snapshot()->Get(2).value()->sensibility(attr), 0.8);
}

TEST_F(SpaTest, TopFeaturesExposeAttributeRanking) {
  Spa spa(SmallConfig());
  // Train quickly (reuse end-to-end construction).
  const auto& clicks =
      spa.action_catalog().CodesFor(lifelog::ActionType::kClick);
  std::vector<PropensityExample> examples;
  for (sum::UserId u = 0; u < 60; ++u) {
    const bool responder = (u % 2 == 0);
    ASSERT_TRUE(spa.sum_service()->Apply(sum::SumUpdate(u)).ok());
    for (int j = 0; j < (responder ? 10 : 2); ++j) {
      lifelog::Event e;
      e.user = u;
      e.time = spa.clock()->now();
      e.action_code = clicks[0];
      spa.RecordEvent(e);
    }
    examples.push_back({u, responder});
  }
  ASSERT_TRUE(spa.TrainPropensity(examples).ok());
  const auto top = spa.smart_component()->TopFeatures(5);
  ASSERT_FALSE(top.empty());
  EXPECT_LE(top.size(), 5u);
  // Ordered by |weight| descending.
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(std::abs(top[i - 1].second), std::abs(top[i].second));
  }
}

}  // namespace
}  // namespace spa::core
