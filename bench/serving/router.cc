// Caches are off so the aggregate KNN compute is what scales.

#include <algorithm>
#include <cstdio>
#include <functional>

#include "recsys/router/serving_router.h"
#include "serving/sections.h"

namespace spa::bench::serving {
namespace {

using StackBuilder = std::function<void(recsys::RecsysEngine&)>;

/// One router-tier measurement point at a fixed worker count.
struct RouterPoint {
  size_t workers = 0;
  double create_seconds = 0.0;  ///< replica bootstrap (replay + fit)
  double fanout_ms = 0.0;       ///< one batch fanned to every replica
  double serve_rps = 0.0;       ///< closed-loop wall-clock (bench host)
  /// Responses / the busiest replica's serve busy time: what the
  /// deployment delivers with a core per worker node, which a
  /// core-starved bench host's `serve_rps` cannot show.
  double capacity_rps = 0.0;
  double busiest_share = 0.0;  ///< busiest replica busy / total busy
  double speedup = 0.0;        ///< capacity vs the 1-worker deployment
  bool parity = true;
};

/// Builds a `workers`-node deployment from `log`, fans `fanned`, serves
/// `requests` and compares against `expected`. Errors: the router's
/// Create error.
spa::Result<RouterPoint> MeasureDeployment(
    size_t workers, const std::vector<recsys::Interaction>& log,
    const std::vector<recsys::Interaction>& fanned,
    const StackBuilder& stack, sum::SumService* sums,
    const std::vector<recsys::RecommendRequest>& requests,
    const std::vector<spa::Result<recsys::RecommendResponse>>& expected) {
  RouterPoint point;
  point.workers = workers;
  const uint64_t head_version = log.size() + fanned.size();

  recsys::RouterConfig config;
  config.workers = workers;
  config.engine.response_cache_capacity = 0;  // measure compute
  config.engine.interaction_shards = 8;
  config.queue.workers = 1;  // one serving thread per node
  config.queue.queue_capacity = requests.size() + 64;
  config.queue.writer_queue_capacity = 64;
  config.queue.max_batch = 8;
  config.stack_builder = stack;

  auto start = Clock::now();
  auto created = recsys::ServingRouter::Create(config, log, sums);
  point.create_seconds = SecondsSince(start);
  if (!created.ok()) return created.status();
  std::unique_ptr<recsys::ServingRouter> router = std::move(created).value();

  start = Clock::now();
  auto fanout = router->SubmitInteractions(fanned);
  if (!fanout.ok()) {
    point.parity = false;
  } else {
    fanout->Wait();
    if (!fanout->ok() || fanout->matrix_version() != head_version) {
      point.parity = false;
    }
  }
  point.fanout_ms = SecondsSince(start) * 1e3;

  // Closed loop: every user served once by its owning replica.
  std::vector<recsys::StreamTicketPtr> tickets;
  tickets.reserve(requests.size());
  start = Clock::now();
  for (const auto& request : requests) {
    auto ticket = router->Submit(request);
    if (!ticket.ok()) {
      point.parity = false;
      break;
    }
    tickets.push_back(std::move(ticket).value());
  }
  router->Flush();
  point.serve_rps = static_cast<double>(tickets.size()) / SecondsSince(start);

  std::vector<spa::Result<recsys::RecommendResponse>> routed;
  routed.reserve(tickets.size());
  for (const auto& ticket : tickets) {
    ticket->Wait();
    if (ticket->pinned().matrix_version != head_version ||
        ticket->pinned().sum_version != sums->version()) {
      point.parity = false;  // quiescent reads must pin the head
    }
    routed.push_back(ticket->response());
  }
  if (!SameResults(routed, expected)) point.parity = false;

  // Capacity from exact per-replica busy time: the deployment is
  // bound by its busiest replica, not by how many cores the bench
  // host happens to have.
  double busiest = 0.0;
  double total_busy = 0.0;
  for (const recsys::RouterWorkerStats& ws : router->stats().workers) {
    busiest = std::max(busiest, ws.pipeline.serve_busy_seconds);
    total_busy += ws.pipeline.serve_busy_seconds;
  }
  if (busiest > 0.0) {
    point.capacity_rps = static_cast<double>(tickets.size()) / busiest;
    point.busiest_share = busiest / total_busy;
  }
  return point;
}

}  // namespace

bool RunRouterSection(const Setup& setup, uint64_t seed, JsonWriter& json) {
  PrintHeader("Router tier - worker-group scaling, bitwise parity");
  const size_t users = setup.users;
  const size_t items = setup.items;
  bool parity = true;
  double scaling_4x = 0.0;

  // Every replica and the reference replay exactly this log; the SUM
  // service is shared, not replicated.
  Rng log_rng(seed, /*stream=*/1);
  const std::vector<recsys::Interaction> log =
      TwoCommunityLog(users, items, log_rng);
  EmotionalContext emotions;
  Rng sum_rng(seed, /*stream=*/2);
  const bool bootstrapped = emotions.Bootstrap(users, sum_rng).ok();
  const StackBuilder stack = [seed, items](recsys::RecsysEngine& engine) {
    AddStack(engine, SecondComponent::kItemKnn);
    Rng profile_rng(seed, /*stream=*/3);
    AddEmotionProfiles(engine, items, profile_rng);
  };

  // The live batch fanned to every replica before serving.
  std::vector<recsys::Interaction> fanned;
  Rng batch_rng(seed, /*stream=*/4);
  for (int b = 0; b < 8; ++b) {
    fanned.push_back(
        {static_cast<recsys::UserId>(
             batch_rng.UniformInt(0, static_cast<int64_t>(users) - 1)),
         static_cast<recsys::ItemId>(
             batch_rng.UniformInt(0, static_cast<int64_t>(items) - 1)),
         batch_rng.Uniform(0.2, 3.0)});
  }
  const std::vector<recsys::RecommendRequest> requests =
      EveryUserOnce(users, setup.k);

  // Single-process reference: same log, same batch, caches off.
  recsys::InteractionMatrix ref_matrix = MatrixFrom(log, /*shards=*/8);
  recsys::EngineConfig ref_config;
  ref_config.response_cache_capacity = 0;
  ref_config.interaction_shards = 8;
  recsys::RecsysEngine reference(ref_config);
  stack(reference);
  reference.set_sum_service(&emotions.sums);
  json.BeginObject("router");
  json.BeginArray("points");
  if (!bootstrapped || !reference.Fit(&ref_matrix).ok() ||
      !reference.ApplyInteractions(fanned).ok()) {
    parity = false;
  } else {
    std::vector<spa::Result<recsys::RecommendResponse>> expected;
    expected.reserve(requests.size());
    for (const auto& request : requests) {
      expected.push_back(reference.Recommend(request));
    }
    double base_capacity = 0.0;
    for (const size_t workers : {size_t{1}, size_t{2}, size_t{4}}) {
      auto measured = MeasureDeployment(workers, log, fanned, stack,
                                        &emotions.sums, requests, expected);
      if (!measured.ok()) {
        std::printf("router x%zu: %s\n", workers,
                    measured.status().ToString().c_str());
        parity = false;
        break;
      }
      RouterPoint point = std::move(measured).value();
      if (workers == 1) base_capacity = point.capacity_rps;
      point.speedup = point.capacity_rps / base_capacity;
      scaling_4x = point.speedup;
      parity = parity && point.parity;
      std::printf("router x%zu:         %8.0f req/s wall | capacity "
                  "%8.0f req/s | speedup %5.2fx | busiest %4.2f | "
                  "bootstrap %.3fs | fanout %7.3f ms | parity %s\n",
                  point.workers, point.serve_rps, point.capacity_rps,
                  point.speedup, point.busiest_share, point.create_seconds,
                  point.fanout_ms, point.parity ? "OK" : "MISMATCH");
      json.BeginObject();
      json.Field("workers", point.workers);
      json.Field("serve_rps", point.serve_rps);
      json.Field("capacity_rps", point.capacity_rps);
      json.Field("speedup", point.speedup);
      json.Field("busiest_share", point.busiest_share);
      json.Field("create_seconds", point.create_seconds);
      json.Field("fanout_ms", point.fanout_ms);
      json.Field("parity", point.parity);
      json.EndObject();
    }
  }
  json.EndArray();
  json.Field("parity", parity);
  json.Field("scaling_4x", scaling_4x);
  json.EndObject();
  return parity;
}

}  // namespace spa::bench::serving
