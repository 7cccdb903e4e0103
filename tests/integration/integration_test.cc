// Cross-module integration tests: the full platform + campaign loop,
// snapshot-training semantics, determinism, and serialization paths
// that only surface when everything is wired together.

#include <cmath>
#include <memory>

#include "campaign/redemption.h"
#include "campaign/runner.h"
#include "core/spa.h"
#include "gtest/gtest.h"
#include "ml/metrics.h"

namespace spa {
namespace {

struct World {
  std::unique_ptr<core::Spa> platform;
  std::unique_ptr<campaign::PopulationModel> population;
  std::unique_ptr<campaign::CourseCatalog> courses;
  std::unique_ptr<campaign::ResponseModel> responses;
  std::unique_ptr<campaign::CampaignRunner> runner;
  std::vector<sum::UserId> candidates;
};

World MakeWorld(uint64_t seed, size_t users,
                campaign::RunnerConfig runner_config = {}) {
  World world;
  core::SpaConfig config;
  config.seed = seed;
  config.eit_questions_per_section = 4;
  world.platform = std::make_unique<core::Spa>(config);
  campaign::PopulationConfig pop_config;
  pop_config.seed = seed;
  world.population =
      std::make_unique<campaign::PopulationModel>(pop_config);
  world.courses = std::make_unique<campaign::CourseCatalog>(
      campaign::CourseCatalog::Generate(
          50, world.platform->attribute_catalog(), seed));
  world.responses = std::make_unique<campaign::ResponseModel>();
  runner_config.seed = seed;
  runner_config.bootstrap_events_per_user = 6;
  runner_config.eit_warmup_contacts = 10;
  world.runner = std::make_unique<campaign::CampaignRunner>(
      world.platform.get(), world.population.get(), world.courses.get(),
      world.responses.get(), runner_config);
  world.runner->RegisterCourses();
  for (size_t u = 0; u < users; ++u) {
    world.candidates.push_back(static_cast<sum::UserId>(u));
  }
  world.runner->BootstrapUsers(world.candidates);
  return world;
}

campaign::CampaignSpec MakeSpec(int id, size_t targets) {
  campaign::CampaignSpec spec;
  spec.id = id;
  spec.target_count = targets;
  spec.featured_courses = {0, 1, 2, 3, 4};
  return spec;
}

TEST(IntegrationTest, FullLoopIsDeterministic) {
  World a = MakeWorld(123, 800);
  World b = MakeWorld(123, 800);
  const auto oa = a.runner->RunCampaign(MakeSpec(1, 400), a.candidates);
  const auto ob = b.runner->RunCampaign(MakeSpec(1, 400), b.candidates);
  EXPECT_EQ(oa.useful_impacts, ob.useful_impacts);
  EXPECT_EQ(oa.opened, ob.opened);
  EXPECT_EQ(oa.clicked, ob.clicked);
  EXPECT_EQ(oa.transactions, ob.transactions);
  EXPECT_EQ(oa.eit_questions_answered, ob.eit_questions_answered);
  EXPECT_EQ(oa.message_cases, ob.message_cases);
  ASSERT_EQ(oa.scores.size(), ob.scores.size());
  for (size_t i = 0; i < oa.scores.size(); ++i) {
    ASSERT_DOUBLE_EQ(oa.scores[i], ob.scores[i]);
  }
}

TEST(IntegrationTest, DifferentSeedsDiverge) {
  World a = MakeWorld(123, 500);
  World b = MakeWorld(124, 500);
  const auto oa = a.runner->RunCampaign(MakeSpec(1, 300), a.candidates);
  const auto ob = b.runner->RunCampaign(MakeSpec(1, 300), b.candidates);
  // Same sizes, different realizations (overwhelmingly likely).
  EXPECT_EQ(oa.targeted, ob.targeted);
  EXPECT_NE(oa.labels, ob.labels);
}

TEST(IntegrationTest, SnapshotIsLeakFree) {
  World world = MakeWorld(7, 300);
  const sum::UserId user = world.candidates.front();
  const ml::SparseVector before =
      world.platform->SnapshotFeatures(user);
  // Outcome events land after the snapshot...
  const auto& enroll = world.platform->action_catalog().CodesFor(
      lifelog::ActionType::kEnrollment);
  lifelog::Event event;
  event.user = user;
  event.time = world.platform->clock()->now();
  event.action_code = enroll.front();
  event.item = 3;
  world.platform->RecordEvent(event);
  // ...and the stored snapshot must not change (value semantics).
  const ml::SparseVector after = world.platform->SnapshotFeatures(user);
  // The *new* snapshot sees the enrolment; the old object is intact.
  EXPECT_GT(after.nnz(), before.nnz());
}

TEST(IntegrationTest, SnapshotTrainingAndScoringConsistent) {
  World world = MakeWorld(11, 600);
  // Manufacture linearly-separable labels on snapshots.
  std::vector<ml::SparseVector> features;
  std::vector<ml::Label> labels;
  for (sum::UserId user : world.candidates) {
    features.push_back(world.platform->SnapshotFeatures(user));
    const size_t events =
        world.platform->lifelog()->UserEvents(user).size();
    labels.push_back(events > 8 ? 1 : -1);
  }
  ASSERT_TRUE(world.platform
                  ->TrainPropensityOnSnapshots(features, labels)
                  .ok());
  // Scoring the training snapshots separates the classes.
  std::vector<double> scores;
  for (const auto& f : features) {
    const auto s = world.platform->ScoreSnapshot(f);
    ASSERT_TRUE(s.ok());
    scores.push_back(s.value());
  }
  EXPECT_GT(ml::RocAuc(scores, labels), 0.95);
}

TEST(IntegrationTest, TrainOnSnapshotsValidatesInput) {
  World world = MakeWorld(13, 50);
  std::vector<ml::SparseVector> features(5);
  std::vector<ml::Label> labels(4, 1);
  EXPECT_FALSE(world.platform
                   ->TrainPropensityOnSnapshots(features, labels)
                   .ok());  // size mismatch
  labels.assign(5, 1);
  EXPECT_FALSE(world.platform
                   ->TrainPropensityOnSnapshots(features, labels)
                   .ok());  // too few / single class
}

TEST(IntegrationTest, HistoryBookkeepingPerCampaign) {
  World world = MakeWorld(17, 400);
  EXPECT_EQ(world.runner->history_size(), 0u);
  world.runner->RunCampaign(MakeSpec(1, 200), world.candidates);
  EXPECT_EQ(world.runner->history_size(), 200u);
  EXPECT_EQ(world.runner->campaign_starts().size(), 1u);
  EXPECT_EQ(world.runner->campaign_starts()[0], 0u);
  world.runner->RunCampaign(MakeSpec(2, 150), world.candidates);
  EXPECT_EQ(world.runner->history_size(), 350u);
  ASSERT_EQ(world.runner->campaign_starts().size(), 2u);
  EXPECT_EQ(world.runner->campaign_starts()[1], 200u);
  EXPECT_EQ(world.runner->history_features().size(),
            world.runner->history_labels().size());
}

TEST(IntegrationTest, WindowedRetrainingStaysTrainable) {
  campaign::RunnerConfig config;
  config.training_window_campaigns = 1;  // most aggressive window
  World world = MakeWorld(19, 500, config);
  for (int c = 1; c <= 3; ++c) {
    world.runner->RunCampaign(MakeSpec(c, 300), world.candidates);
  }
  EXPECT_TRUE(world.platform->smart_component()->trained());
  // And the model still ranks: propensities are within [0,1].
  const auto top =
      world.platform->SelectTopProspects(world.candidates, 5);
  ASSERT_TRUE(top.ok());
  for (const auto& [user, score] : top.value()) {
    EXPECT_GE(score, 0.0);
    EXPECT_LE(score, 1.0);
  }
}

TEST(IntegrationTest, EitAdaptiveSelectionBalancesProbes) {
  core::SpaConfig config;
  config.eit_questions_per_section = 6;  // 48 items
  core::Spa platform(config);
  const sum::UserId user = 5;
  // Answer 20 questions; the adaptive selector should spread probes
  // over the ten attributes rather than replay the bank order.
  for (int i = 0; i < 20; ++i) {
    const auto qid = platform.NextEitQuestion(user);
    ASSERT_TRUE(qid.ok());
    ASSERT_TRUE(platform.RecordEitAnswer(user, qid.value(), 0).ok());
  }
  // Probe counts live in the EIT state; recover coverage via evidence
  // in the SUM (every probed attribute received reinforcement).
  const auto snapshot = platform.sum_snapshot();
  const auto model = snapshot->Get(user);
  ASSERT_TRUE(model.ok());
  size_t touched = 0;
  for (eit::EmotionalAttribute e : eit::AllEmotionalAttributes()) {
    if (model.value()->evidence(
            platform.attribute_catalog().EmotionalId(e)) > 0.0) {
      ++touched;
    }
  }
  EXPECT_GE(touched, 8u);  // near-complete coverage in 20 answers
}

TEST(IntegrationTest, SumCsvRoundTripThroughPlatform) {
  World world = MakeWorld(23, 100);
  // Mutate some models through the platform paths first.
  world.runner->RunCampaign(MakeSpec(1, 80), world.candidates);
  const std::string csv = world.platform->sum_service()->ToCsv();
  EXPECT_FALSE(csv.empty());
  sum::SumService restored(&world.platform->attribute_catalog());
  ASSERT_TRUE(restored.LoadCsv(csv).ok());
  EXPECT_EQ(restored.ToCsv(), csv);  // bitwise round trip
  // Every persisted model matches the live one attribute-by-attribute.
  size_t checked = 0;
  const auto live_snapshot = world.platform->sum_snapshot();
  EXPECT_EQ(restored.size(), live_snapshot->size());
  restored.snapshot()->ForEach([&](const sum::SmartUserModel& loaded) {
    const auto live = live_snapshot->Get(loaded.user());
    ASSERT_TRUE(live.ok());
    for (const auto& def :
         world.platform->attribute_catalog().defs()) {
      ASSERT_EQ(loaded.value(def.id), live.value()->value(def.id));
      ASSERT_EQ(loaded.sensibility(def.id),
                live.value()->sensibility(def.id));
      ASSERT_EQ(loaded.evidence(def.id), live.value()->evidence(def.id));
    }
    ++checked;
  });
  EXPECT_GT(checked, 0u);
}

TEST(IntegrationTest, RedemptionReportFromLiveCampaigns) {
  World world = MakeWorld(29, 1'000);
  std::vector<campaign::CampaignOutcome> outcomes;
  // Pilot to train, then two measured campaigns.
  world.runner->RunCampaign(MakeSpec(0, 400), world.candidates);
  outcomes.push_back(
      world.runner->RunCampaign(MakeSpec(1, 400), world.candidates));
  outcomes.push_back(
      world.runner->RunCampaign(MakeSpec(2, 400), world.candidates));
  const auto report = campaign::ComputeRedemption(outcomes);
  EXPECT_EQ(report.total_targeted, 800u);
  EXPECT_GT(report.base_rate, 0.0);
  // A trained model must beat random targeting.
  EXPECT_GT(report.auc, 0.55);
  EXPECT_GT(report.captured_at_40, 0.45);
  // Structural invariants of the curve.
  ASSERT_FALSE(report.curve.empty());
  EXPECT_DOUBLE_EQ(report.curve.back().fraction_captured, 1.0);
}

TEST(IntegrationTest, LearnerVariantsAllTrainThroughPlatform) {
  for (const auto learner :
       {core::SpaConfig::Learner::kLinearSvm,
        core::SpaConfig::Learner::kLogisticRegression,
        core::SpaConfig::Learner::kNaiveBayes}) {
    core::SpaConfig config;
    config.learner = learner;
    config.eit_questions_per_section = 2;
    core::Spa platform(config);
    const auto& clicks = platform.action_catalog().CodesFor(
        lifelog::ActionType::kClick);
    const auto& views = platform.action_catalog().CodesFor(
        lifelog::ActionType::kPageView);
    std::vector<core::PropensityExample> examples;
    for (sum::UserId u = 0; u < 80; ++u) {
      ASSERT_TRUE(
          platform.sum_service()->Apply(sum::SumUpdate(u)).ok());
      const bool responder = u % 2 == 0;
      // Responders click; non-responders only browse. The *presence*
      // of the click feature separates the classes, so even the
      // Bernoulli NB (which ignores magnitudes) can learn it.
      const auto& codes = responder ? clicks : views;
      for (int j = 0; j < (responder ? 9 : 2); ++j) {
        lifelog::Event e;
        e.user = u;
        e.time = platform.clock()->now();
        e.action_code = codes[static_cast<size_t>(j) % codes.size()];
        platform.RecordEvent(e);
      }
      examples.push_back({u, responder});
    }
    ASSERT_TRUE(platform.TrainPropensity(examples).ok());
    EXPECT_GT(platform.smart_component()->last_validation_auc(), 0.7)
        << "learner variant " << static_cast<int>(learner);
  }
}

}  // namespace
}  // namespace spa
