#include "workload_spec.h"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "bench_math.h"
#include "common/hash.h"

namespace perfbench {

namespace sw = spa::workload;

namespace {

/// Seed salt of the closed-loop stream, so it shares no events with
/// the open-loop stream of the same seed.
constexpr uint64_t kClosedLoopSalt = 0xC105'ED00'0000'0001ULL;

uint64_t Mix(uint64_t h, uint64_t v) { return spa::SplitMix64(h ^ v); }

uint64_t Bits(double v) {
  uint64_t out = 0;
  std::memcpy(&out, &v, sizeof(out));
  return out;
}

/// Archetype config for `spec` with its mix overrides applied.
sw::ScenarioConfig BaseScenario(const WorkloadSpec& spec, size_t users,
                                uint64_t seed) {
  sw::ScenarioConfig config;
  if (spec.scenario == "steady_power_law") {
    config = sw::SteadyPowerLawScenario(users, seed);
  } else if (spec.scenario == "emotion_shift_storm") {
    config = sw::EmotionShiftStormScenario(users, seed);
  } else {
    throw std::invalid_argument("unknown scenario: " + spec.scenario);
  }
  if (spec.interaction_fraction >= 0.0) {
    config.interaction_fraction = spec.interaction_fraction;
  }
  if (spec.sum_update_fraction >= 0.0) {
    config.sum_update_fraction = spec.sum_update_fraction;
  }
  return config;
}

}  // namespace

sw::ScenarioConfig OpenLoopScenario(const WorkloadSpec& spec, uint64_t seed,
                                    double window_s) {
  sw::ScenarioConfig config = BaseScenario(spec, spec.users, seed);
  config.target_events =
      static_cast<size_t>(std::llround(spec.rate * window_s));
  return config;
}

sw::ScenarioConfig ClosedLoopScenario(const WorkloadSpec& spec,
                                      uint64_t seed) {
  sw::ScenarioConfig config =
      BaseScenario(spec, spec.users, spa::SplitMix64(seed ^ kClosedLoopSalt));
  config.target_events = spec.closed_events;
  return config;
}

std::vector<int64_t> StreamDueSchedule(
    const std::vector<sw::ScenarioEvent>& events,
    spa::TimeMicros duration_us, double window_s) {
  std::vector<int64_t> virtual_us;
  virtual_us.reserve(events.size());
  for (const sw::ScenarioEvent& event : events) {
    virtual_us.push_back(static_cast<int64_t>(event.time));
  }
  return DueSchedule(virtual_us, static_cast<int64_t>(duration_us),
                     window_s);
}

std::vector<spa::sum::SumUpdate> MaterializeShifts(
    const std::vector<sw::EmotionShift>& shifts,
    const spa::sum::AttributeCatalog& catalog) {
  std::vector<spa::sum::SumUpdate> updates;
  for (const sw::EmotionShift& shift : shifts) {
    if (updates.empty() ||
        updates.back().user() != static_cast<spa::sum::UserId>(shift.user)) {
      updates.emplace_back(static_cast<spa::sum::UserId>(shift.user));
    }
    const spa::sum::AttributeId attr = catalog.EmotionalId(shift.attribute);
    if (shift.op == sw::EmotionShift::Op::kSetSensibility) {
      updates.back().SetSensibility(attr, shift.amount);
    } else {
      updates.back().Reward(attr, shift.amount);
    }
  }
  return updates;
}

uint64_t InputsDigest(const sw::ScenarioGenerator& generator,
                      const std::vector<sw::ScenarioEvent>& events) {
  uint64_t h = sw::StreamFingerprint(events);
  for (const spa::recsys::Interaction& it :
       generator.BootstrapInteractions()) {
    h = Mix(h, static_cast<uint64_t>(it.user));
    h = Mix(h, static_cast<uint64_t>(it.item));
    h = Mix(h, Bits(it.weight));
  }
  for (const sw::EmotionShift& shift : generator.BootstrapEmotions()) {
    h = Mix(h, static_cast<uint64_t>(shift.user));
    h = Mix(h, static_cast<uint64_t>(shift.attribute));
    h = Mix(h, static_cast<uint64_t>(shift.op));
    h = Mix(h, Bits(shift.amount));
  }
  return h;
}

uint64_t TripwireDigest(const WorkloadSpec& spec) {
  sw::ScenarioConfig config = BaseScenario(spec, 2'000, /*seed=*/1);
  config.target_events = 500;
  const sw::ScenarioGenerator generator(config);
  return InputsDigest(generator, generator.Generate(1));
}

}  // namespace perfbench
