#include "harness.h"

#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <utility>

#include "common/hash.h"
#include "common/rng.h"
#include "recsys/knn_cf.h"
#include "recsys/popularity.h"
#include "workload/scenario_generator.h"

namespace perfbench {

namespace sw = spa::workload;
namespace rs = spa::recsys;

namespace {

using Clock = std::chrono::steady_clock;

/// Rng stream of the item emotion profiles; the scenario runner's
/// value, so both deploy the same stack.
constexpr uint64_t kProfileStream = 0xCAFE'0000'0000'0001ULL;
/// Closed-loop ops the parity samples are drawn from.
constexpr size_t kClosedParityOps = 2'000;

/// Rng stream of the closed-loop stream's shuffle.
constexpr uint64_t kClosedShuffleStream = 0xC105'ED00'0000'0002ULL;

uint64_t Mix(uint64_t h, uint64_t v) { return spa::SplitMix64(h ^ v); }

uint64_t Bits(double v) {
  uint64_t out = 0;
  std::memcpy(&out, &v, sizeof(out));
  return out;
}

bool SameResponse(const rs::RecommendResponse& a,
                  const rs::RecommendResponse& b) {
  if (a.user != b.user || a.degraded != b.degraded ||
      a.items.size() != b.items.size()) {
    return false;
  }
  for (size_t i = 0; i < a.items.size(); ++i) {
    if (a.items[i].item != b.items[i].item ||
        a.items[i].score != b.items[i].score) {
      return false;
    }
  }
  return true;
}

bool TicketOk(const rs::StreamTicket& ticket) {
  if (ticket.state() != rs::TicketState::kDone) return false;
  switch (ticket.kind()) {
    case rs::StreamOpKind::kRecommend:
      return ticket.response().ok();
    case rs::StreamOpKind::kInteractions:
      return ticket.update_report().ok();
    case rs::StreamOpKind::kSumUpdates:
      return ticket.sum_status().ok();
  }
  return false;
}

void OnComplete(Phase* phase, size_t index,
                const rs::StreamTicket& ticket) {
  OpRecord& record = phase->record(index);
  record.done_ns = phase->Now();
  record.ok = TicketOk(ticket);
  if (phase->traced()) {
    record.queue_s = ticket.queue_seconds();
    record.serve_s = ticket.serve_seconds();
  }
  phase->Done();
}

std::vector<std::vector<spa::sum::SumUpdate>> MaterializeAll(
    const std::vector<sw::ScenarioEvent>& events,
    const spa::sum::AttributeCatalog& catalog) {
  std::vector<std::vector<spa::sum::SumUpdate>> out(events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].kind == sw::EventKind::kSumUpdate) {
      out[i] = MaterializeShifts(events[i].shifts, catalog);
    }
  }
  return out;
}

size_t CountReads(const std::vector<sw::ScenarioEvent>& events,
                  size_t prefix) {
  const auto end = events.begin() +
                   static_cast<std::ptrdiff_t>(std::min(prefix, events.size()));
  return static_cast<size_t>(
      std::count_if(events.begin(), end, [](const sw::ScenarioEvent& e) {
        return e.kind == sw::EventKind::kServe;
      }));
}

/// Sends one op to the deployment and registers its completion.
class Sender {
 public:
  Sender(Deployment& deployment, Phase* phase, WriteWatcher* watcher,
         ParityLog* parity, size_t reads, size_t samples)
      : deployment_(deployment),
        phase_(phase),
        watcher_(watcher),
        parity_(parity),
        stride_(samples > 0 ? std::max<size_t>(reads / samples, 1) : 0),
        samples_left_(samples) {}

  size_t failures() const { return failures_; }

  void Send(size_t index, const sw::ScenarioEvent& event,
            const std::vector<spa::sum::SumUpdate>& updates) {
    OpRecord& record = phase_->record(index);
    record.kind = event.kind;
    Phase* phase = phase_;
    const auto callback = [phase, index](const rs::StreamTicket& ticket) {
      OnComplete(phase, index, ticket);
    };
    rs::ServingPipeline* pipeline = deployment_.pipeline.get();
    rs::ServingRouter* router = deployment_.router.get();
    spa::Status status;
    switch (event.kind) {
      case sw::EventKind::kServe: {
        rs::RecommendRequest request;
        request.user = event.user;
        request.k = kTopK;
        const bool sampled = stride_ > 0 && reads_ % stride_ == 0 &&
                             samples_left_ > 0;
        ++reads_;
        auto ticket = pipeline != nullptr
                          ? pipeline->Submit(request, callback)
                          : router->Submit(request, callback);
        Stamp(record);
        if (!ticket.ok()) {
          status = ticket.status();
        } else if (sampled) {
          parity_->samples.push_back({request, std::move(ticket).value()});
          --samples_left_;
        }
        break;
      }
      case sw::EventKind::kInteraction: {
        WriteRecord write;
        write.interactions = &event.interactions;
        if (pipeline != nullptr) {
          auto ticket = pipeline->SubmitInteractions(event.interactions,
                                                     callback);
          Stamp(record);
          if (!ticket.ok()) {
            status = ticket.status();
            break;
          }
          write.ticket = std::move(ticket).value();
        } else {
          auto fanout = router->SubmitInteractions(event.interactions);
          Stamp(record);
          if (!fanout.ok()) {
            status = fanout.status();
            break;
          }
          write.fanout = std::move(fanout).value();
          watcher_->Watch(index, write.fanout, nullptr);
        }
        parity_->writes.push_back(std::move(write));
        break;
      }
      case sw::EventKind::kSumUpdate: {
        WriteRecord write;
        write.is_sum = true;
        write.updates = &updates;
        auto ticket = pipeline != nullptr
                          ? pipeline->SubmitSumUpdates(updates, callback)
                          : router->SubmitSumUpdates(updates);
        Stamp(record);
        if (!ticket.ok()) {
          status = ticket.status();
          break;
        }
        write.ticket = std::move(ticket).value();
        if (pipeline == nullptr) {
          watcher_->Watch(index, std::nullopt, write.ticket);
        }
        parity_->writes.push_back(std::move(write));
        break;
      }
    }
    if (!status.ok()) {
      std::fprintf(stderr, "submit failed: %s\n",
                   status.ToString().c_str());
      record.done_ns = phase_->Now();
      record.ok = false;
      record.refused = true;
      ++failures_;
      phase_->Done();
    }
  }

 private:
  void Stamp(OpRecord& record) {
    if (phase_->traced()) record.submitted_ns = phase_->Now();
  }

  Deployment& deployment_;
  Phase* phase_;
  WriteWatcher* watcher_;
  ParityLog* parity_;
  size_t stride_;
  size_t samples_left_;
  size_t reads_ = 0;
  size_t failures_ = 0;
};

double LastCompletionSeconds(const std::vector<OpRecord>& records) {
  int64_t last = 0;
  for (const OpRecord& r : records) last = std::max(last, r.done_ns);
  return static_cast<double>(last) * 1e-9;
}

}  // namespace

// ---- inputs and deployment ---------------------------------------------

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed, double window_s) {
  Inputs in;
  in.spec = spec;
  in.seed = seed;

  const sw::ScenarioConfig open_config =
      OpenLoopScenario(spec, seed, window_s);
  const sw::ScenarioGenerator generator(open_config);
  in.items = generator.item_count();
  in.open_events = generator.Generate(/*threads=*/4);
  in.open_fingerprint = sw::StreamFingerprint(in.open_events);
  in.inputs_digest = InputsDigest(generator, in.open_events);
  in.open_due_ns =
      StreamDueSchedule(in.open_events, open_config.duration, window_s);
  in.bootstrap_log = generator.BootstrapInteractions();
  in.bootstrap_updates =
      MaterializeShifts(generator.BootstrapEmotions(), in.catalog);
  in.open_updates = MaterializeAll(in.open_events, in.catalog);

  // The closed loop may stop anywhere in its stream, so the stream is
  // shuffled: any prefix then carries the whole day's mix (storm
  // windows included), not just the early hours.
  const sw::ScenarioGenerator closed(ClosedLoopScenario(spec, seed));
  in.closed_events = closed.Generate(/*threads=*/4);
  spa::Rng(seed, kClosedShuffleStream).Shuffle(&in.closed_events);
  in.closed_fingerprint = sw::StreamFingerprint(in.closed_events);
  in.closed_updates = MaterializeAll(in.closed_events, in.catalog);
  return in;
}

rs::EngineConfig DeployedEngineConfig() {
  rs::EngineConfig config;
  config.interaction_shards = kInteractionShards;
  config.response_cache_capacity = kCacheCapacity;
  return config;
}

void BuildStack(rs::RecsysEngine& engine, uint64_t seed, size_t items) {
  engine.AddComponent(std::make_unique<rs::ItemKnnRecommender>(), 0.6);
  engine.AddComponent(std::make_unique<rs::PopularityRecommender>(), 0.4);
  spa::Rng profile_rng(seed, kProfileStream);
  for (size_t i = 0; i < items; ++i) {
    rs::EmotionProfile profile{};
    for (double& p : profile) p = profile_rng.Uniform();
    engine.SetItemEmotionProfile(static_cast<rs::ItemId>(i), profile);
  }
}

void Deployment::Flush() {
  if (pipeline != nullptr) pipeline->Flush();
  if (router != nullptr) router->Flush();
}

spa::Status Deploy(const Inputs& in, std::unique_ptr<Deployment>* out) {
  auto d = std::make_unique<Deployment>();
  d->sums = std::make_unique<spa::sum::SumService>(&in.catalog);
  spa::Status status = d->sums->ApplyAll(in.bootstrap_updates);
  if (!status.ok()) return status;
  if (in.spec.backend == "router") {
    rs::RouterConfig config;
    config.workers = kRouterReplicas;
    config.engine = DeployedEngineConfig();
    config.queue.workers = 1;
    config.queue.queue_capacity = kQueueCapacity;
    config.queue.writer_queue_capacity = kWriterQueueCapacity;
    config.queue.max_batch = kMaxBatch;
    const uint64_t seed = in.seed;
    const size_t items = in.items;
    config.stack_builder = [seed, items](rs::RecsysEngine& engine) {
      BuildStack(engine, seed, items);
    };
    auto router =
        rs::ServingRouter::Create(config, in.bootstrap_log, d->sums.get());
    if (!router.ok()) return router.status();
    d->router = std::move(router).value();
  } else {
    d->matrix = std::make_unique<rs::InteractionMatrix>(kInteractionShards);
    for (const rs::Interaction& it : in.bootstrap_log) {
      d->matrix->Add(it.user, it.item, it.weight);
    }
    d->engine = std::make_unique<rs::RecsysEngine>(DeployedEngineConfig());
    BuildStack(*d->engine, in.seed, in.items);
    d->engine->set_sum_service(d->sums.get());
    status = d->engine->Fit(d->matrix.get());
    if (!status.ok()) return status;
    rs::PipelineConfig config;
    config.workers = kPipelineWorkers;
    config.queue_capacity = kQueueCapacity;
    config.writer_queue_capacity = kWriterQueueCapacity;
    config.policy = rs::BackpressurePolicy::kBlock;
    config.max_batch = kMaxBatch;
    d->pipeline = std::make_unique<rs::ServingPipeline>(
        d->engine.get(), d->sums.get(), config);
  }
  *out = std::move(d);
  return spa::Status::OK();
}

FrontStats Snapshot(const Deployment& d) {
  FrontStats out;
  const auto add = [&out](const rs::PipelineStats& s) {
    out.responses += s.responses;
    out.batches += s.batches;
    out.updates_applied += s.updates_applied;
    out.max_queue_depth = std::max(out.max_queue_depth, s.max_queue_depth);
    out.serve_busy_s += s.serve_busy_seconds;
    out.update_busy_s += s.update_busy_seconds;
  };
  if (d.pipeline != nullptr) {
    add(d.pipeline->stats());
  } else {
    for (const rs::RouterWorkerStats& ws : d.router->stats().workers) {
      add(ws.pipeline);
      out.replica_serve_busy_s.push_back(ws.pipeline.serve_busy_seconds);
    }
  }
  return out;
}

FrontStats Delta(const FrontStats& after, const FrontStats& before) {
  FrontStats out = after;
  out.responses -= before.responses;
  out.batches -= before.batches;
  out.updates_applied -= before.updates_applied;
  out.serve_busy_s -= before.serve_busy_s;
  out.update_busy_s -= before.update_busy_s;
  for (size_t i = 0; i < out.replica_serve_busy_s.size() &&
                     i < before.replica_serve_busy_s.size();
       ++i) {
    out.replica_serve_busy_s[i] -= before.replica_serve_busy_s[i];
  }
  return out;
}

// ---- routed-write watcher ----------------------------------------------

WriteWatcher::WriteWatcher(Phase* phase)
    : phase_(phase), thread_([this] { Loop(); }) {}

WriteWatcher::~WriteWatcher() { Stop(); }

void WriteWatcher::Watch(size_t index,
                         std::optional<rs::FanoutTicket> fanout,
                         rs::StreamTicketPtr ticket) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    Item item{index, std::move(fanout), std::move(ticket), {}};
    if (item.fanout.has_value()) {
      item.done_ns.assign(item.fanout->tickets().size(), -1);
    }
    items_.push_back(std::move(item));
  }
  cv_.notify_one();
}

void WriteWatcher::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_one();
  if (thread_.joinable()) thread_.join();
}

void WriteWatcher::Loop() {
  // Tickets are polled rather than waited on in order, so a write that
  // completes while an earlier one is still pending is seen at once.
  constexpr auto kPollInterval = std::chrono::microseconds(20);
  std::vector<Item> pending;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (pending.empty()) {
        cv_.wait(lock, [this] { return stopping_ || !items_.empty(); });
        if (items_.empty()) return;
      }
      for (Item& item : items_) pending.push_back(std::move(item));
      items_.clear();
    }
    for (size_t i = 0; i < pending.size();) {
      Item& item = pending[i];
      if (Settle(item)) {
        phase_->Done();
        item = std::move(pending.back());
        pending.pop_back();
      } else {
        ++i;
      }
    }
    if (!pending.empty()) std::this_thread::sleep_for(kPollInterval);
  }
}

bool WriteWatcher::Settle(Item& item) {
  OpRecord& record = phase_->record(item.index);
  if (item.fanout.has_value()) {
    const auto& tickets = item.fanout->tickets();
    bool all_done = true;
    for (size_t k = 0; k < tickets.size(); ++k) {
      if (item.done_ns[k] >= 0) continue;
      if (!tickets[k].second->Poll()) {
        all_done = false;
        continue;
      }
      item.done_ns[k] = phase_->Now();
      ReplicaTimes* replica = phase_->replicas(item.index);
      if (replica != nullptr && k < kRouterReplicas) {
        replica->done_ns[k] = item.done_ns[k];
        replica->queue_s[k] = tickets[k].second->queue_seconds();
        replica->serve_s[k] = tickets[k].second->serve_seconds();
      }
    }
    if (!all_done) return false;
    record.done_ns =
        *std::max_element(item.done_ns.begin(), item.done_ns.end());
    record.ok = item.fanout->ok();
    return true;
  }
  if (!item.ticket->Poll()) return false;
  record.done_ns = phase_->Now();
  record.ok = TicketOk(*item.ticket);
  if (phase_->traced()) {
    record.queue_s = item.ticket->queue_seconds();
    record.serve_s = item.ticket->serve_seconds();
  }
  return true;
}

// ---- phases ------------------------------------------------------------

PhaseResult RunOpenLoop(Deployment& deployment, const Inputs& in,
                        bool traced, size_t parity_samples,
                        ParityLog* parity,
                        std::vector<OpRecord> records) {
  PhaseResult out;
  out.records = std::move(records);
  const bool per_replica = traced && deployment.router != nullptr;
  if (per_replica) out.replicas.resize(out.records.size());
  const FrontStats before = Snapshot(deployment);
  const std::vector<sw::ScenarioEvent>& events = in.open_events;
  const size_t reads = CountReads(events, events.size());
  {
    Phase phase(&out.records, per_replica ? &out.replicas : nullptr, traced);
    std::optional<WriteWatcher> watcher;
    if (deployment.router != nullptr) watcher.emplace(&phase);
    Sender sender(deployment, &phase, watcher ? &*watcher : nullptr, parity,
                  reads, parity_samples);
    for (size_t i = 0; i < events.size(); ++i) {
      const int64_t due = in.open_due_ns[i];
      int64_t now = phase.Now();
      // Sleep while far ahead, spin the last stretch: sleeps overshoot
      // by tens of microseconds.
      while (now < due) {
        if (due - now > 250'000) {
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(due - now - 150'000));
        } else {
          std::this_thread::yield();
        }
        now = phase.Now();
      }
      OpRecord& record = out.records[i];
      record.due_ns = due;
      record.send_ns = now;
      sender.Send(i, events[i], in.open_updates[i]);
    }
    deployment.Flush();
    if (watcher) watcher->Stop();
    out.submit_failures = sender.failures();
  }
  out.wall_s = LastCompletionSeconds(out.records);
  out.stats = Delta(Snapshot(deployment), before);
  return out;
}

PhaseResult RunClosedLoop(Deployment& deployment, const Inputs& in,
                          double seconds, size_t parity_samples,
                          ParityLog* parity,
                          std::vector<OpRecord> records) {
  PhaseResult out;
  out.records = std::move(records);
  const FrontStats before = Snapshot(deployment);
  const std::vector<sw::ScenarioEvent>& events = in.closed_events;
  const uint64_t window = kClosedWindow;
  const int64_t end_ns = static_cast<int64_t>(seconds * 1e9);
  // Samples come from the phase's first kClosedParityOps ops: the
  // reference replays every write up to the last sampled pin, so
  // sampling the whole phase would cost a replay as long as the run.
  const size_t reads = CountReads(events, kClosedParityOps);
  size_t sent = 0;
  {
    Phase phase(&out.records, nullptr, /*traced=*/false);
    std::optional<WriteWatcher> watcher;
    if (deployment.router != nullptr) watcher.emplace(&phase);
    Sender sender(deployment, &phase, watcher ? &*watcher : nullptr, parity,
                  reads, parity_samples);
    for (; sent < out.records.size(); ++sent) {
      phase.WaitOutstanding(sent, window - 1);
      const int64_t now = phase.Now();
      if (now >= end_ns) break;
      OpRecord& record = out.records[sent];
      record.due_ns = now;
      record.send_ns = now;
      const size_t e = sent % events.size();
      sender.Send(sent, events[e], in.closed_updates[e]);
    }
    deployment.Flush();
    if (watcher) watcher->Stop();
    out.submit_failures = sender.failures();
  }
  out.exhausted = sent == out.records.size();
  out.records.resize(sent);
  out.wall_s = LastCompletionSeconds(out.records);
  out.stats = Delta(Snapshot(deployment), before);
  return out;
}

// ---- parity ------------------------------------------------------------

ParityOutcome CheckParity(const Inputs& in, const ParityLog& log) {
  ParityOutcome out;
  spa::sum::SumService ref_sums(&in.catalog);
  rs::InteractionMatrix ref_matrix(kInteractionShards);
  for (const rs::Interaction& it : in.bootstrap_log) {
    ref_matrix.Add(it.user, it.item, it.weight);
  }
  rs::EngineConfig config = DeployedEngineConfig();
  config.response_cache_capacity = 0;
  rs::RecsysEngine reference(config);
  BuildStack(reference, in.seed, in.items);

  // Samples that completed; the rest failed and count as failed ops.
  std::vector<const SampleRecord*> ordered;
  for (const SampleRecord& sample : log.samples) {
    if (sample.ticket->Wait() == rs::TicketState::kDone &&
        sample.ticket->response().ok()) {
      ordered.push_back(&sample);
    }
  }
  const auto fail = [&](std::string error) {
    out.error = std::move(error);
    out.mismatches += ordered.size() - out.checked;
    return out;
  };
  if (!ref_sums.ApplyAll(in.bootstrap_updates).ok()) {
    return fail("reference SUM bootstrap failed");
  }
  if (!reference.Fit(&ref_matrix).ok()) return fail("reference fit failed");
  std::vector<std::pair<uint64_t, const std::vector<rs::Interaction>*>>
      applies;
  std::vector<std::pair<uint64_t, const std::vector<spa::sum::SumUpdate>*>>
      publishes;
  for (const WriteRecord& w : log.writes) {
    if (w.is_sum) {
      if (w.ticket->Wait() != rs::TicketState::kDone ||
          !w.ticket->sum_status().ok()) {
        continue;  // a failed publish never landed
      }
      publishes.emplace_back(w.ticket->pinned().sum_version, w.updates);
    } else if (w.fanout.has_value()) {
      w.fanout->Wait();
      if (!w.fanout->ok()) continue;
      applies.emplace_back(w.fanout->matrix_version(), w.interactions);
    } else {
      if (w.ticket->Wait() != rs::TicketState::kDone ||
          !w.ticket->update_report().ok()) {
        continue;
      }
      applies.emplace_back(w.ticket->pinned().matrix_version,
                           w.interactions);
    }
  }
  const auto by_version = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  std::sort(applies.begin(), applies.end(), by_version);
  std::sort(publishes.begin(), publishes.end(), by_version);
  std::sort(ordered.begin(), ordered.end(),
            [](const SampleRecord* a, const SampleRecord* b) {
              return a->ticket->pinned().matrix_version <
                     b->ticket->pinned().matrix_version;
            });
  // Both staircases replay in step with the samples. The SUM service
  // serializes publishes, so their post-apply versions are the apply
  // order; replaying in that order must reproduce each. A snapshot is
  // kept only while some sample still to be served pins its version.
  std::map<uint64_t, size_t> pending;
  for (const SampleRecord* sample : ordered) {
    ++pending[sample->ticket->pinned().sum_version];
  }
  std::map<uint64_t, spa::sum::SumSnapshotPtr> snapshots;
  const auto keep_if_pinned = [&] {
    if (pending.count(ref_sums.version()) > 0) {
      snapshots[ref_sums.version()] = ref_sums.snapshot();
    }
  };
  keep_if_pinned();
  size_t next_apply = 0;
  size_t next_publish = 0;
  for (const SampleRecord* sample : ordered) {
    const rs::BatchPin& pin = sample->ticket->pinned();
    while (next_apply < applies.size() &&
           applies[next_apply].first <= pin.matrix_version) {
      if (!reference.ApplyInteractions(*applies[next_apply].second).ok()) {
        return fail("reference ApplyInteractions failed");
      }
      ++next_apply;
    }
    if (ref_matrix.version() != pin.matrix_version) {
      return fail("sample pin is off the interaction staircase");
    }
    while (next_publish < publishes.size() &&
           publishes[next_publish].first <= pin.sum_version) {
      const auto& [version, updates] = publishes[next_publish];
      if (!ref_sums.ApplyAll(*updates).ok() || ref_sums.version() != version) {
        return fail("SUM publish staircase does not replay");
      }
      keep_if_pinned();
      ++next_publish;
    }
    const auto snapshot = snapshots.find(pin.sum_version);
    if (snapshot == snapshots.end()) {
      return fail("sample pin names an unknown SUM version");
    }
    rs::RecommendRequest request = sample->request;
    request.emotion_override = snapshot->second;
    const auto expected = reference.Recommend(request);
    if (!expected.ok() ||
        !SameResponse(sample->ticket->response().value(), expected.value())) {
      ++out.mismatches;
    }
    ++out.checked;
    if (--pending[pin.sum_version] == 0) {
      pending.erase(pin.sum_version);
      snapshots.erase(pin.sum_version);
    }
  }
  return out;
}

// ---- direct replay -----------------------------------------------------

DirectReplay RunDirectReplay(
    const Inputs& in, const std::vector<sw::ScenarioEvent>& events,
    const std::vector<std::vector<spa::sum::SumUpdate>>& updates,
    std::vector<Span>* spans, uint64_t request_base) {
  DirectReplay out;
  spa::sum::SumService sums(&in.catalog);
  out.status = sums.ApplyAll(in.bootstrap_updates);
  if (!out.status.ok()) return out;
  rs::InteractionMatrix matrix(kInteractionShards);
  for (const rs::Interaction& it : in.bootstrap_log) {
    matrix.Add(it.user, it.item, it.weight);
  }
  rs::RecsysEngine engine(DeployedEngineConfig());
  BuildStack(engine, in.seed, in.items);
  engine.set_sum_service(&sums);
  out.status = engine.Fit(&matrix);
  if (!out.status.ok()) return out;
  size_t index_bytes = 0;
  for (const rs::ComponentIndexStats& s : engine.index_stats()) {
    index_bytes += s.stats.memory_bytes;
  }
  out.index_mib = static_cast<double>(index_bytes) / (1024.0 * 1024.0);

  const auto t0 = Clock::now();
  const auto now = [t0] {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - t0)
        .count();
  };
  const auto span = [spans](uint64_t id, int64_t parent, const char* name,
                            int64_t start, int64_t end) {
    if (spans == nullptr) return int64_t{-1};
    spans->push_back({id, parent, name, start, end});
    return static_cast<int64_t>(spans->size() - 1);
  };
  uint64_t h = 0;
  rs::RecommendRequest request;
  request.k = kTopK;
  rs::RecommendResponse response;
  for (size_t i = 0; i < events.size(); ++i) {
    const sw::ScenarioEvent& event = events[i];
    const uint64_t id = request_base + i;
    switch (event.kind) {
      case sw::EventKind::kServe: {
        request.user = event.user;
        const uint64_t hits = engine.cache_stats().hits;
        const int64_t start = now();
        const spa::Status status = engine.RecommendInto(request, &response);
        const int64_t end = now();
        const bool hit = engine.cache_stats().hits > hits;
        (hit ? out.hit_us : out.miss_us)
            .push_back(static_cast<double>(end - start) * 1e-3);
        span(id, -1, hit ? "engine.recommend.hit" : "engine.recommend.miss",
             start, end);
        h = Mix(h, status.ok() ? 1 : 0);
        h = Mix(h, static_cast<uint64_t>(response.user));
        for (const rs::RecommendedItem& item : response.items) {
          h = Mix(h, static_cast<uint64_t>(item.item));
          h = Mix(h, Bits(item.score));
        }
        break;
      }
      case sw::EventKind::kInteraction: {
        const int64_t start = now();
        auto report = engine.ApplyInteractions(event.interactions);
        const int64_t end = now();
        if (!report.ok()) {
          out.status = report.status();
          return out;
        }
        const rs::LiveUpdateReport& r = report.value();
        out.apply_ms.push_back(static_cast<double>(end - start) * 1e-6);
        out.reports.push_back(r);
        h = Mix(h, r.matrix_version);
        // The report's split, laid out in the order the engine runs
        // it: shard writes, index refresh, ..., hot-set re-warm.
        const int64_t root = span(id, -1, "engine.apply", start, end);
        const int64_t shard_end =
            start + static_cast<int64_t>(r.apply_seconds * 1e9);
        span(id, root, "engine.apply.shard", start, shard_end);
        span(id, root, "engine.apply.refresh", shard_end,
             shard_end + static_cast<int64_t>(r.refresh_seconds * 1e9));
        span(id, root, "engine.apply.rewarm",
             end - static_cast<int64_t>(r.rewarm_seconds * 1e9), end);
        break;
      }
      case sw::EventKind::kSumUpdate: {
        uint64_t published = 0;
        const int64_t start = now();
        const spa::Status status = sums.ApplyAll(updates[i], &published);
        const int64_t end = now();
        if (!status.ok()) {
          out.status = status;
          return out;
        }
        out.publish_us.push_back(static_cast<double>(end - start) * 1e-3);
        span(id, -1, "sum.publish", start, end);
        h = Mix(h, published);
        break;
      }
    }
  }
  out.cache = engine.cache_stats();
  out.digest = h;
  return out;
}

double ResidentMib() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long size = 0;
  unsigned long resident = 0;
  const int got = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

CpuTimes ReadCpuTimes() {
  CpuTimes out;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return out;
  uint64_t v[8] = {};
  const int got = std::fscanf(
      f, "cpu %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64
         " %" SCNu64 " %" SCNu64 " %" SCNu64,
      &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  if (got != 8) return out;
  for (const uint64_t x : v) out.total += x;
  out.steal = v[7];
  return out;
}

double StealFraction(const CpuTimes& before, const CpuTimes& after) {
  if (after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

}  // namespace perfbench
