// Emotion-dynamic scenario matrix through the serving deployments:
//
//   * every workload archetype (steady power-law, flash crowd,
//     cold-start churn, emotion-shift storm) is expanded by the
//     deterministic ScenarioGenerator and replayed open-loop by the
//     ScenarioRunner against BOTH backends — a single async
//     ServingPipeline and the sharded ServingRouter — at a rate
//     calibrated to the deployment's measured capacity;
//   * each run reports throughput, p50/p95/p99 end-to-end latency,
//     per-lane shed counts, queue-depth high-water marks,
//     cache hit-rate, and its SLO verdict (p99 bound + shed budget);
//   * sampled responses are re-served synchronously at their pinned
//     (matrix_version, sum_version) on an offline reference and
//     compared bitwise — the parity gate that decides the exit code
//     (the SLO verdict is reported but host-perf dependent, so it
//     does not gate).
//
// Results land in BENCH_scenarios.json.
//
//   ./build/bench/bench_scenarios [--users=N] [--seed=S] [--smoke]

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "json_writer.h"
#include "workload/scenario.h"
#include "workload/scenario_runner.h"

namespace spa::bench {
namespace {

/// Replays `scenario` through the backend `config` names, prints its
/// line and appends its outcome. Returns false when the run failed or
/// a sampled response diverged from the reference.
bool RunCell(const workload::ScenarioConfig& scenario,
             workload::RunnerConfig config, bool smoke,
             std::vector<workload::ScenarioOutcome>* outcomes) {
  if (smoke) {
    config.calibration_requests = 100;
    config.slo.parity_samples = 32;
  }
  const workload::ScenarioRunner runner(config);
  const workload::ScenarioOutcome& o =
      outcomes->emplace_back(runner.Run(scenario));
  if (!o.status.ok()) {
    std::printf("%-22s %-8s FAILED: %s\n", o.scenario.c_str(),
                o.backend.c_str(), o.status.ToString().c_str());
    return false;
  }
  std::printf(
      "%-22s %-8s offered %8.0f req/s | served %8.0f req/s | "
      "p50 %8.3f ms | p99 %8.3f ms | shed %llu | fallback %llu | "
      "dropped %llu | hit %.3f | slo %s | parity %s (%zu checked)\n",
      o.scenario.c_str(), o.backend.c_str(), o.offered_rps,
      o.achieved_rps, o.p50_ms, o.p99_ms,
      static_cast<unsigned long long>(o.shed_reads),
      static_cast<unsigned long long>(o.fallback_served),
      static_cast<unsigned long long>(o.expired_drops), o.cache_hit_rate,
      o.slo_pass ? "PASS" : "FAIL", o.parity ? "OK" : "MISMATCH",
      o.parity_checked);
  return o.parity;
}

int Main(int argc, char** argv) {
  const CommonFlags flags = ParseFlags(argc, argv);
  // Smoke: CI-sized population, two scenarios (the baseline and one
  // emotion storm), both backends, parity gate fully enforced. Full:
  // the four-archetype matrix at 100k+ users through both backends.
  const size_t users =
      flags.users > 0 ? flags.users : (flags.smoke ? 4'000 : 100'000);
  const size_t target_events = flags.smoke ? 600 : 6'000;

  std::vector<workload::ScenarioConfig> scenarios;
  if (flags.smoke) {
    scenarios.push_back(
        workload::SteadyPowerLawScenario(users, flags.seed));
    scenarios.push_back(
        workload::EmotionShiftStormScenario(users, flags.seed + 3));
    for (workload::ScenarioConfig& scenario : scenarios) {
      scenario.target_events = target_events;
    }
  } else {
    scenarios = workload::StandardScenarioMatrix(users, target_events,
                                                 flags.seed);
  }

  PrintHeader(StrFormat(
      "Scenario matrix - %zu archetypes x {pipeline, router} "
      "(%zu users, %zu events each)",
      scenarios.size(), users, target_events));

  std::vector<workload::ScenarioOutcome> outcomes;
  bool parity = true;
  for (const workload::BackendKind backend :
       {workload::BackendKind::kPipeline,
        workload::BackendKind::kRouter}) {
    for (const workload::ScenarioConfig& scenario : scenarios) {
      workload::RunnerConfig config;
      config.backend = backend;
      parity = RunCell(scenario, config, flags.smoke, &outcomes) && parity;
    }
  }

  // ---- deadline-degraded flash crowd --------------------------------------
  // One extra cell replays the flash-crowd archetype overloaded (3x
  // the calibrated capacity, `offered_fraction` below) against the
  // pipeline backend under kDegrade with a tight per-read deadline:
  // pressed reads must come back from the popularity fallback tier
  // (flagged `degraded`) rather than queueing without bound, and every
  // sampled response — degraded or not — must still match its offline
  // reference. The cell gates the exit code on both: nonzero fallback
  // serves and parity.
  {
    workload::ScenarioConfig crowd =
        workload::FlashCrowdScenario(users, flags.seed + 7);
    crowd.name = "flash_crowd_degrade";
    crowd.target_events = target_events;
    workload::RunnerConfig config;
    config.backend = workload::BackendKind::kPipeline;
    config.policy = recsys::BackpressurePolicy::kDegrade;
    config.deadline_ms = 2.0;
    // A single drain worker and a short queue make the overload real
    // at smoke scale too: the backlog must outrun one worker before
    // any read feels deadline pressure.
    config.pipeline_workers = 1;
    config.queue_capacity = 64;
    config.offered_fraction = 3.0;
    parity = RunCell(crowd, config, flags.smoke, &outcomes) && parity;
    if (outcomes.back().status.ok() && outcomes.back().fallback_served == 0) {
      // The whole point of the cell: overload must be answered with
      // degraded service, not silence.
      std::printf("flash_crowd_degrade: no fallback serves under "
                  "%.1fx overload - degradation path not exercised\n",
                  config.offered_fraction);
      parity = false;
    }
  }

  // ---- JSON ---------------------------------------------------------------
  JsonWriter json = OpenArtifact(
      "scenarios", flags,
      {{"users", users}, {"target_events", target_events}});
  json.Field("parity", parity);
  json.BeginArray("matrix");
  for (const workload::ScenarioOutcome& o : outcomes) {
    const QuantileSnapshot e2e = Quantiles(o.end_to_end, 1e3);
    json.BeginObject();
    json.Field("scenario", o.scenario);
    json.Field("backend", o.backend);
    json.Field("ok", o.status.ok());
    json.Field("users", o.users);
    json.Field("events", o.events);
    json.Field("fingerprint",
               StrFormat("0x%016llx", static_cast<unsigned long long>(
                                          o.stream_fingerprint)));
    json.Field("offered_rps", o.offered_rps);
    json.Field("achieved_rps", o.achieved_rps);
    json.Field("p50_ms", e2e.p50);
    json.Field("p95_ms", e2e.p95);
    json.Field("p99_ms", e2e.p99);
    json.Field("responses", o.responses);
    json.Field("updates", o.updates_applied);
    json.Field("shed_reads", o.shed_reads);
    json.Field("shed_writes", o.shed_writes);
    json.Field("fallback_served", o.fallback_served);
    json.Field("expired_drops", o.expired_drops);
    json.Field("max_queue_depth", o.max_queue_depth);
    json.Field("max_writer_queue_depth", o.max_writer_queue_depth);
    json.Field("cache_hit_rate", o.cache_hit_rate);
    json.Field("parity_checked", o.parity_checked);
    json.Field("parity", o.parity);
    json.Field("slo_pass", o.slo_pass);
    json.EndObject();
  }
  json.EndArray();
  if (json.WriteFile("BENCH_scenarios.json")) {
    std::printf("\nwrote BENCH_scenarios.json\n");
  }

  // Streamed/routed serving must reproduce the synchronous reference
  // bitwise at every sampled pin; SLO verdicts are reported above but
  // depend on host performance, so they do not gate.
  return parity ? 0 : 1;
}

}  // namespace
}  // namespace spa::bench

int main(int argc, char** argv) { return spa::bench::Main(argc, argv); }
