#ifndef PERFBENCH_WORKLOAD_SPEC_H_
#define PERFBENCH_WORKLOAD_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "recsys/interaction_matrix.h"
#include "sum/catalog.h"
#include "sum/sum_update.h"
#include "workload/scenario.h"
#include "workload/scenario_generator.h"

/// \file
/// A workload's constants (from `perfbench/workloads.json`, passed on
/// the command line by `run.py`) and the inputs they expand into. The
/// inputs depend only on these constants and the seed: nothing is
/// calibrated at run time.

namespace perfbench {

/// Share of a run that is open loop; the closed loop takes the rest.
inline constexpr double kOpenShare = 0.5;

/// Ops the closed loop keeps outstanding: more than drain workers x
/// max batch, so the drain workers never wait for the producer.
inline constexpr size_t kClosedWindow = 64;

/// \brief The fixed description of one workload.
struct WorkloadSpec {
  std::string name;
  std::string backend = "pipeline";             ///< "pipeline" | "router"
  std::string scenario = "steady_power_law";    ///< generator archetype
  size_t users = 100'000;       ///< every workload; tests use fewer
  double rate = 0.0;            ///< open-loop ops/s (mean over the day)
  double read_limit_ms = 0.0;   ///< reads slower than this are late
  size_t closed_events = 0;     ///< closed-loop stream length (cycled)
  /// Event-mix overrides; negative keeps the archetype's value.
  double interaction_fraction = -1.0;
  double sum_update_fraction = -1.0;
};

/// The open-loop stream: the whole virtual day at `rate * window_s`
/// events, replayed over `window_s` seconds.
spa::workload::ScenarioConfig OpenLoopScenario(const WorkloadSpec& spec,
                                               uint64_t seed,
                                               double window_s);

/// The closed-loop stream: same mix, an independent seed stream.
spa::workload::ScenarioConfig ClosedLoopScenario(const WorkloadSpec& spec,
                                                 uint64_t seed);

/// Due times (ns after phase start) of a generated stream replayed
/// over `window_s` seconds.
std::vector<int64_t> StreamDueSchedule(
    const std::vector<spa::workload::ScenarioEvent>& events,
    spa::TimeMicros duration_us, double window_s);

/// Shifts -> SumUpdates, merging consecutive same-user shifts into one
/// update (the same materialization the scenario runner uses).
std::vector<spa::sum::SumUpdate> MaterializeShifts(
    const std::vector<spa::workload::EmotionShift>& shifts,
    const spa::sum::AttributeCatalog& catalog);

/// Order-sensitive digest of everything a generator hands the
/// program: the event stream plus the bootstrap interactions and
/// emotions.
uint64_t InputsDigest(const spa::workload::ScenarioGenerator& generator,
                      const std::vector<spa::workload::ScenarioEvent>& events);

/// Inputs digest of `spec`'s mix on a small fixed population (2,000
/// users, 500 events, seed 1). Pinned per workload in workloads.json:
/// a mismatch means the generator changed, so two commits would not
/// receive the same inputs.
uint64_t TripwireDigest(const WorkloadSpec& spec);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_SPEC_H_
