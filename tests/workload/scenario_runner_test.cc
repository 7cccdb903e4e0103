#include "workload/scenario_runner.h"

#include <cstdint>
#include <vector>

#include "gtest/gtest.h"
#include "workload/scenario.h"

/// The SLO-gated replay harness. These tests boot real deployments
/// (an async ServingPipeline and the sharded ServingRouter) and drive
/// tiny scenarios through them, so they exercise the full stack:
/// bootstrap, calibration, open-loop replay, quiesce, differential
/// parity replay and the SLO verdict. Sized for CI (hundreds of
/// events, hundreds of users) — the 100k-user matrix lives in
/// bench_scenarios.

namespace spa::workload {
namespace {

ScenarioConfig TinyScenario(uint64_t seed) {
  ScenarioConfig scenario = SteadyPowerLawScenario(600, seed);
  scenario.target_events = 150;
  return scenario;
}

RunnerConfig TinyRunner(BackendKind backend) {
  RunnerConfig config;
  config.backend = backend;
  config.calibration_requests = 50;
  config.slo.parity_samples = 16;
  return config;
}

TEST(ScenarioRunnerTest, PipelineBackendPassesParityOnTinyScenario) {
  const ScenarioRunner runner(TinyRunner(BackendKind::kPipeline));
  const ScenarioOutcome outcome = runner.Run(TinyScenario(11));
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(outcome.backend, "pipeline");
  EXPECT_EQ(outcome.users, 600u);
  EXPECT_GT(outcome.events, 0u);
  EXPECT_GT(outcome.responses, 0u);
  EXPECT_GT(outcome.parity_checked, 0u);
  EXPECT_TRUE(outcome.parity);
  EXPECT_NE(outcome.stream_fingerprint, 0u);
  EXPECT_GT(outcome.offered_rps, 0.0);
}

TEST(ScenarioRunnerTest, RouterBackendPassesParityOnTinyScenario) {
  const ScenarioRunner runner(TinyRunner(BackendKind::kRouter));
  const ScenarioOutcome outcome = runner.Run(TinyScenario(11));
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(outcome.backend, "router");
  EXPECT_GT(outcome.responses, 0u);
  EXPECT_GT(outcome.parity_checked, 0u);
  EXPECT_TRUE(outcome.parity);
}

TEST(ScenarioRunnerTest, StormScenarioKeepsParityThroughBothBackends) {
  // The adversarial archetype: correlated SumUpdate waves colliding
  // with serve traffic — the case that catches version-pinning races
  // in the writer lane.
  ScenarioConfig scenario = EmotionShiftStormScenario(600, 13);
  scenario.target_events = 150;
  for (const BackendKind backend :
       {BackendKind::kPipeline, BackendKind::kRouter}) {
    SCOPED_TRACE(BackendName(backend));
    const ScenarioRunner runner(TinyRunner(backend));
    const ScenarioOutcome outcome = runner.Run(scenario);
    ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    EXPECT_GT(outcome.parity_checked, 0u);
    EXPECT_TRUE(outcome.parity);
    EXPECT_GT(outcome.updates_applied, 0u);
  }
}

TEST(ScenarioRunnerTest, SloVerdictFailsUnderAnImpossibleP99Bound) {
  RunnerConfig config = TinyRunner(BackendKind::kPipeline);
  config.slo.p99_ms = 1e-9;  // nothing real can serve this fast
  const ScenarioRunner runner(config);
  const ScenarioOutcome outcome = runner.Run(TinyScenario(17));
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  // Parity (correctness) is independent of the latency verdict.
  EXPECT_TRUE(outcome.parity);
  EXPECT_FALSE(outcome.slo_pass);
}

TEST(ScenarioRunnerTest, OutcomeCountsAreInternallyConsistent) {
  const ScenarioRunner runner(TinyRunner(BackendKind::kPipeline));
  const ScenarioOutcome outcome = runner.Run(TinyScenario(19));
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_LE(outcome.responses + outcome.shed_reads, outcome.submitted);
  EXPECT_EQ(outcome.end_to_end.total(), outcome.responses);
  // Quantiles exported into the matrix mirror the raw histogram.
  EXPECT_GE(outcome.p99_ms, outcome.p95_ms);
  EXPECT_GE(outcome.p95_ms, outcome.p50_ms);
}

}  // namespace
}  // namespace spa::workload
