// The sweep runs under kDegrade: every read carries a deadline, pressed
// reads are served from the popularity fallback tier (flagged
// `degraded`), expired reads are dropped. The stack is clustered, like
// live_update's, so writer-lane bursts touch a bounded neighbourhood.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "recsys/serving_pipeline.h"
#include "serving/sections.h"

namespace spa::bench::serving {
namespace {

constexpr double kDeadlineMs = 25.0;

struct StreamingStack {
  EmotionalContext emotions;
  recsys::InteractionMatrix matrix;
  std::unique_ptr<recsys::RecsysEngine> engine;
};

bool BuildStack(size_t users, Rng& rng, StreamingStack* stack) {
  stack->matrix = MatrixFrom(ClusteredLog(users, rng), /*shards=*/8);
  if (!stack->emotions.Bootstrap(users, rng).ok()) return false;
  recsys::EngineConfig config;
  config.response_cache_capacity = 2 * users;
  config.interaction_shards = 8;
  stack->engine = std::make_unique<recsys::RecsysEngine>(config);
  AddStack(*stack->engine, SecondComponent::kItemKnn);
  AddEmotionProfiles(*stack->engine, ClusterCount(users) * kClusterItems,
                     rng);
  stack->engine->set_sum_service(&stack->emotions.sums);
  return stack->engine->Fit(&stack->matrix).ok();
}

/// Closed-loop replay of `requests` through a blocking pipeline.
/// Returns the calibrated capacity (0 when a submission failed) and
/// clears `parity` unless every ticket pinned the head versions and
/// the streamed bytes equal RecommendBatch's.
double QuiescentParity(StreamingStack& stack,
                       const std::vector<recsys::RecommendRequest>& requests,
                       bool* parity) {
  recsys::PipelineConfig config;
  config.workers = 4;
  config.queue_capacity = 4096;
  config.policy = recsys::BackpressurePolicy::kBlock;
  recsys::ServingPipeline pipeline(stack.engine.get(), &stack.emotions.sums,
                                   config);
  std::vector<recsys::StreamTicketPtr> tickets;
  tickets.reserve(requests.size());
  const auto start = Clock::now();
  for (const auto& request : requests) {
    auto ticket = pipeline.Submit(request);
    if (!ticket.ok()) return 0.0;
    tickets.push_back(std::move(ticket).value());
  }
  pipeline.Flush();
  const double capacity_rps =
      static_cast<double>(requests.size()) / SecondsSince(start);

  std::vector<spa::Result<recsys::RecommendResponse>> streamed;
  streamed.reserve(tickets.size());
  for (const auto& ticket : tickets) {
    ticket->Wait();
    if (ticket->pinned().matrix_version != stack.matrix.version() ||
        ticket->pinned().sum_version != stack.emotions.sums.version()) {
      *parity = false;  // quiescent run must pin head versions
    }
    streamed.push_back(ticket->response());
  }
  if (!SameResults(streamed, stack.engine->RecommendBatch(requests))) {
    *parity = false;
  }
  std::printf("streaming parity:  %s  (closed-loop %8.0f req/s, "
              "%zu requests)\n",
              *parity ? "OK" : "MISMATCH", capacity_rps, requests.size());
  return capacity_rps;
}

/// One open-loop Poisson point at `rate`, written as the next object
/// of the `points` array. Clears `parity` when the per-response flags
/// disagree with the pipeline's fallback/drop counters. Returns the
/// end-to-end p99 in ms.
double SweepPoint(StreamingStack& stack, const Setup& setup, uint64_t seed,
                  double fraction, double rate, bool* parity,
                  JsonWriter& json) {
  const size_t users = setup.users;
  const size_t clusters = ClusterCount(users);
  recsys::PipelineConfig config;
  config.workers = 4;
  config.queue_capacity = 256;
  config.policy = recsys::BackpressurePolicy::kDegrade;
  recsys::ServingPipeline pipeline(stack.engine.get(), &stack.emotions.sums,
                                   config);
  const recsys::EngineCacheStats cache_before = stack.engine->cache_stats();

  const size_t total = setup.smoke ? 200 : 1200;
  std::vector<recsys::StreamTicketPtr> read_tickets;
  read_tickets.reserve(total);
  Rng arrivals(seed + static_cast<uint64_t>(fraction * 100));
  auto next = Clock::now();
  const auto sweep_start = next;
  for (size_t i = 0; i < total; ++i) {
    // Exponential inter-arrival times: an open-loop Poisson stream
    // that does NOT wait for completions.
    next += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(
            -std::log1p(-arrivals.Uniform()) / rate));
    std::this_thread::sleep_until(next);
    if (i % 40 == 39) {
      // Live updates ride the writer lane within the same stream.
      std::vector<recsys::Interaction> batch;
      const size_t base = (i / 40) % clusters * kClusterUsers;
      for (int b = 0; b < 4; ++b) {
        batch.push_back(
            {static_cast<recsys::UserId>(
                 base + arrivals.UniformInt(
                            0, static_cast<int64_t>(kClusterUsers) - 1)),
             static_cast<recsys::ItemId>(
                 (base / kClusterUsers) * kClusterItems +
                 arrivals.UniformInt(
                     0, static_cast<int64_t>(kClusterItems) - 1)),
             arrivals.Uniform(0.2, 3.0)});
      }
      (void)pipeline.SubmitInteractions(std::move(batch));
    } else {
      recsys::RecommendRequest request;
      request.user = static_cast<recsys::UserId>(
          arrivals.UniformInt(0, static_cast<int64_t>(users) - 1));
      request.k = setup.k;
      auto ticket =
          pipeline.SubmitWithDeadline(std::move(request), kDeadlineMs * 1e-3);
      if (ticket.ok()) read_tickets.push_back(ticket.value());
    }
  }
  const double offered_seconds = SecondsSince(sweep_start);
  pipeline.Flush();
  const double wall_seconds = SecondsSince(sweep_start);

  const recsys::PipelineStats stats = pipeline.stats();
  // Every fallback serve must be flagged `degraded`, every expired read
  // must have been shed.
  uint64_t flagged_fallback = 0;
  uint64_t flagged_dropped = 0;
  for (const auto& ticket : read_tickets) {
    switch (ticket->state()) {
      case recsys::TicketState::kDone:
        if (ticket->response().ok() && ticket->response().value().degraded) {
          ++flagged_fallback;
        }
        break;
      case recsys::TicketState::kShed:
        ++flagged_dropped;
        break;
      default:
        break;
    }
  }
  if (flagged_fallback != stats.fallback_served ||
      flagged_dropped != stats.expired_drops) {
    *parity = false;
  }
  const recsys::EngineCacheStats cache_after = stack.engine->cache_stats();
  const double hits = static_cast<double>(cache_after.hits - cache_before.hits);
  const double lookups =
      hits + static_cast<double>(cache_after.misses - cache_before.misses);
  const double hit_rate = lookups > 0.0 ? hits / lookups : 0.0;
  const double offered_rps = static_cast<double>(total) / offered_seconds;
  const double achieved_rps =
      static_cast<double>(stats.responses + stats.updates_applied) /
      wall_seconds;
  const QuantileSnapshot e2e = Quantiles(stats.end_to_end, 1e3);
  std::printf(
      "streaming %.1fx:    offered %8.0f req/s | served %8.0f "
      "req/s | p50 %7.3f ms | p95 %7.3f ms | p99 %7.3f ms | "
      "fallback %llu | dropped %llu | hit %5.1f%% | depth %llu\n",
      fraction, offered_rps, achieved_rps, e2e.p50, e2e.p95, e2e.p99,
      static_cast<unsigned long long>(stats.fallback_served),
      static_cast<unsigned long long>(stats.expired_drops),
      100.0 * hit_rate,
      static_cast<unsigned long long>(stats.max_queue_depth));

  json.BeginObject();
  json.Field("target_rps", rate);
  json.Field("offered_rps", offered_rps);
  json.Field("achieved_rps", achieved_rps);
  json.Field("p50_ms", e2e.p50);
  json.Field("p95_ms", e2e.p95);
  json.Field("p99_ms", e2e.p99);
  json.Field("queue_p95_ms", Quantiles(stats.queue_wait, 1e3).p95);
  json.Field("serve_p95_ms", Quantiles(stats.batch_serve, 1e3).p95);
  json.Field("submitted", stats.submitted);
  json.Field("responses", stats.responses);
  json.Field("shed", stats.shed_reads + stats.shed_writes);
  json.Field("fallback_served", stats.fallback_served);
  json.Field("dropped", stats.expired_drops);
  json.Field("hit_rate", hit_rate);
  json.Field("updates", stats.updates_applied);
  json.Field("max_queue_depth", stats.max_queue_depth);
  json.EndObject();
  return e2e.p99;
}

}  // namespace

bool RunStreamingSection(const Setup& setup, uint64_t seed,
                         JsonWriter& json) {
  PrintHeader("Streaming - async pipeline, open-loop arrival sweep");
  const size_t sample =
      std::min<size_t>(setup.users, setup.smoke ? 200 : 1000);
  std::vector<recsys::RecommendRequest> requests(sample);
  for (size_t s = 0; s < sample; ++s) {
    requests[s].user = static_cast<recsys::UserId>((s * 7) % setup.users);
    requests[s].k = setup.k;
  }
  bool parity = true;
  bool p99_bounded = true;
  double capacity_rps = 0.0;
  Rng rng(seed);
  StreamingStack stack;
  if (BuildStack(setup.users, rng, &stack)) {
    capacity_rps = QuiescentParity(stack, requests, &parity);
  }
  if (capacity_rps == 0.0) parity = false;

  json.BeginObject("streaming");
  json.Field("capacity_rps", capacity_rps);
  json.Field("overload_policy", "deadline_degrade");
  json.Field("deadline_ms", kDeadlineMs);
  json.BeginArray("points");
  for (const double fraction : {0.5, 1.0, 2.0}) {
    if (capacity_rps == 0.0) break;
    const double rate = std::max(1.0, capacity_rps * fraction);
    const double p99_ms =
        SweepPoint(stack, setup, seed, fraction, rate, &parity, json);
    if (fraction == 2.0) {
      // With deadline degradation every queued read either completes
      // within its slack or exits as a fallback/drop, so p99 stays near
      // the deadline instead of growing with the backlog. The bound is
      // generous (a core-starved CI host still passes) yet far below
      // the unbounded-queue tail the plain policies show at 2x.
      p99_bounded = p99_ms <= std::max(150.0, 6.0 * kDeadlineMs);
    }
  }
  json.EndArray();
  json.Field("parity", parity);
  json.Field("p99_bounded", p99_bounded);
  json.EndObject();
  return parity && p99_bounded;
}

}  // namespace spa::bench::serving
