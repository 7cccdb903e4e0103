#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_math.h"
#include "recsys/engine.h"
#include "recsys/interaction_matrix.h"
#include "recsys/router/serving_router.h"
#include "recsys/serving_pipeline.h"
#include "sum/catalog.h"
#include "sum/sum_service.h"
#include "workload/scenario.h"
#include "workload_spec.h"

/// \file
/// Drives the serving stack through its public API only: deploys the
/// stack the scenario runner deploys, replays a stream open loop on a
/// fixed schedule or closed loop with a fixed window, checks sampled
/// responses bitwise against an offline reference, and replays the
/// same events directly against a fresh engine for the engine and SUM
/// layer timings.

namespace perfbench {

// The deployment every workload runs: 8 interaction shards, a 2^15
// entry response cache, ItemKNN 0.6 + Popularity 0.4, kBlock so no op
// is shed. Busy threads stay within 4 cores: 1 producer + 3 drain
// workers for the pipeline, 1 producer + 2 replicas x 1 drain worker
// for the router.
inline constexpr size_t kInteractionShards = 8;
inline constexpr size_t kCacheCapacity = size_t{1} << 15;
inline constexpr size_t kPipelineWorkers = 3;
inline constexpr size_t kRouterReplicas = 2;
inline constexpr size_t kQueueCapacity = 512;
inline constexpr size_t kWriterQueueCapacity = 256;
inline constexpr size_t kMaxBatch = 16;
inline constexpr size_t kTopK = 10;

/// \brief Everything generated from (spec, seed) before set-up starts.
struct Inputs {
  WorkloadSpec spec;
  uint64_t seed = 0;
  spa::sum::AttributeCatalog catalog =
      spa::sum::AttributeCatalog::EmagisterDefault();
  size_t items = 0;
  std::vector<spa::recsys::Interaction> bootstrap_log;
  std::vector<spa::sum::SumUpdate> bootstrap_updates;
  std::vector<spa::workload::ScenarioEvent> open_events;
  std::vector<spa::workload::ScenarioEvent> closed_events;
  std::vector<int64_t> open_due_ns;
  /// Materialized SUM publishes per event index (empty for others).
  std::vector<std::vector<spa::sum::SumUpdate>> open_updates;
  std::vector<std::vector<spa::sum::SumUpdate>> closed_updates;
  uint64_t open_fingerprint = 0;
  uint64_t closed_fingerprint = 0;
  uint64_t inputs_digest = 0;  ///< open stream + bootstrap
};

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed, double window_s);

spa::recsys::EngineConfig DeployedEngineConfig();

/// Adds the deployed recommender stack and item emotion profiles.
void BuildStack(spa::recsys::RecsysEngine& engine, uint64_t seed,
                size_t items);

/// \brief A running deployment: a pipeline over one engine, or a
/// router over replicas. Members are declared so destruction stops the
/// front end before what it borrows.
struct Deployment {
  std::unique_ptr<spa::sum::SumService> sums;
  std::unique_ptr<spa::recsys::InteractionMatrix> matrix;
  std::unique_ptr<spa::recsys::RecsysEngine> engine;
  std::unique_ptr<spa::recsys::ServingPipeline> pipeline;
  std::unique_ptr<spa::recsys::ServingRouter> router;

  void Flush();
};

/// Bootstrap to ready-to-serve: matrix load, SUM bootstrap, Fit and
/// pipeline or router start.
spa::Status Deploy(const Inputs& inputs, std::unique_ptr<Deployment>* out);

/// \brief Counters of the serving front end, summed over replicas.
struct FrontStats {
  uint64_t responses = 0;
  uint64_t batches = 0;
  uint64_t updates_applied = 0;
  uint64_t max_queue_depth = 0;
  double serve_busy_s = 0.0;
  double update_busy_s = 0.0;
  std::vector<double> replica_serve_busy_s;  ///< router only
};

FrontStats Snapshot(const Deployment& deployment);
/// Counter growth from `before` to `after` (high-water marks and the
/// replica vector are taken from `after`, busy times differenced).
FrontStats Delta(const FrontStats& after, const FrontStats& before);

/// \brief One op as the producer and its completion saw it. Times are
/// nanoseconds after the phase start.
struct OpRecord {
  spa::workload::EventKind kind = spa::workload::EventKind::kServe;
  bool ok = false;
  int64_t due_ns = 0;
  int64_t send_ns = 0;
  int64_t submitted_ns = 0;  ///< traced: when Submit* returned
  int64_t done_ns = -1;      ///< completion; -1 = never completed
  bool refused = false;      ///< Submit* returned an error
  // Traced: the ticket's queue and serve seconds (pipeline lane, or
  // the owner replica of a routed read or SUM publish).
  double queue_s = 0.0;
  double serve_s = 0.0;
};

/// \brief Traced, routed interaction writes: per-replica completion.
struct ReplicaTimes {
  int64_t done_ns[kRouterReplicas] = {-1, -1};
  double queue_s[kRouterReplicas] = {0.0, 0.0};
  double serve_s[kRouterReplicas] = {0.0, 0.0};
};

/// \brief A retained writer op for the parity replay.
struct WriteRecord {
  bool is_sum = false;
  const std::vector<spa::recsys::Interaction>* interactions = nullptr;
  const std::vector<spa::sum::SumUpdate>* updates = nullptr;
  spa::recsys::StreamTicketPtr ticket;
  std::optional<spa::recsys::FanoutTicket> fanout;
};

/// \brief A sampled read for the parity replay.
struct SampleRecord {
  spa::recsys::RecommendRequest request;
  spa::recsys::StreamTicketPtr ticket;
};

/// \brief Result of one open- or closed-loop phase.
struct PhaseResult {
  std::vector<OpRecord> records;  ///< one per op sent, in send order
  std::vector<ReplicaTimes> replicas;  ///< traced router runs: per op
  double wall_s = 0.0;            ///< phase start to last completion
  FrontStats stats;               ///< counter growth over the phase
  size_t submit_failures = 0;
  bool exhausted = false;         ///< closed loop filled its records
};

/// \brief Shared state of a running phase; completion callbacks write
/// into `records` and bump `completed`.
class Phase {
 public:
  Phase(std::vector<OpRecord>* records,
        std::vector<ReplicaTimes>* replicas, bool traced)
      : records_(records),
        replicas_(replicas),
        traced_(traced),
        t0_(Clock::now()) {}
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - t0_)
        .count();
  }
  OpRecord& record(size_t i) { return (*records_)[i]; }
  /// Null unless the phase is a traced router phase.
  ReplicaTimes* replicas(size_t i) {
    return replicas_ != nullptr ? &(*replicas_)[i] : nullptr;
  }
  bool traced() const { return traced_; }
  void Done() {
    completed_.fetch_add(1, std::memory_order_release);
    completed_.notify_one();
  }
  /// Blocks until at most `limit` of the `sent` ops are outstanding.
  void WaitOutstanding(uint64_t sent, uint64_t limit) {
    uint64_t done = completed_.load(std::memory_order_acquire);
    while (sent - done > limit) {
      completed_.wait(done, std::memory_order_acquire);
      done = completed_.load(std::memory_order_acquire);
    }
  }

 private:
  using Clock = std::chrono::steady_clock;
  std::vector<OpRecord>* records_;
  std::vector<ReplicaTimes>* replicas_;
  bool traced_;
  Clock::time_point t0_;
  std::atomic<uint64_t> completed_{0};
};

/// \brief Watches routed writes, which take no completion callback,
/// on a thread of its own that polls their tickets every 20 us and
/// records their completion: a fan-out completes when its last
/// per-replica ticket does.
class WriteWatcher {
 public:
  explicit WriteWatcher(Phase* phase);
  ~WriteWatcher();
  WriteWatcher(const WriteWatcher&) = delete;
  WriteWatcher& operator=(const WriteWatcher&) = delete;

  void Watch(size_t index, std::optional<spa::recsys::FanoutTicket> fanout,
             spa::recsys::StreamTicketPtr ticket);
  /// Records everything watched so far, then joins.
  void Stop();

 private:
  struct Item {
    size_t index = 0;
    std::optional<spa::recsys::FanoutTicket> fanout;
    spa::recsys::StreamTicketPtr ticket;
    std::vector<int64_t> done_ns;  ///< per replica ticket; -1 = pending
  };
  void Loop();
  /// Records what of `item` has completed; true once all of it has.
  bool Settle(Item& item);

  Phase* phase_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Item> items_;
  bool stopping_ = false;
  std::thread thread_;
};

/// \brief What a phase retains for the parity replay.
struct ParityLog {
  std::vector<WriteRecord> writes;
  std::vector<SampleRecord> samples;
};

/// Open loop: op i is sent at `open_due_ns[i]` regardless of
/// completions. `records` must hold one entry per open-loop event;
/// the caller allocates it so its pages predate the memory baseline.
PhaseResult RunOpenLoop(Deployment& deployment, const Inputs& inputs,
                        bool traced, size_t parity_samples,
                        ParityLog* parity, std::vector<OpRecord> records);

/// Closed loop: keeps `kClosedWindow` ops outstanding for
/// `seconds`, cycling through the closed-loop stream, or until
/// `records` (one entry per op; its size caps the phase) is full.
PhaseResult RunClosedLoop(Deployment& deployment, const Inputs& inputs,
                          double seconds, size_t parity_samples,
                          ParityLog* parity, std::vector<OpRecord> records);

/// \brief Outcome of the bitwise parity replay.
struct ParityOutcome {
  size_t checked = 0;
  size_t mismatches = 0;
  std::string error;  ///< staircase or reference failure, if any
};

/// Re-applies every landed write to an offline reference in version
/// order and re-serves each sample at its BatchPin; responses must be
/// bitwise equal.
ParityOutcome CheckParity(const Inputs& inputs, const ParityLog& log);

/// \brief Engine and SUM layer timings from the direct replay.
struct DirectReplay {
  uint64_t digest = 0;  ///< responses, apply and publish versions
  std::vector<double> hit_us;
  std::vector<double> miss_us;
  std::vector<double> apply_ms;
  std::vector<double> publish_us;
  std::vector<spa::recsys::LiveUpdateReport> reports;
  spa::recsys::EngineCacheStats cache;
  double index_mib = 0.0;
  spa::Status status;
};

/// Replays `events` in order against a fresh engine and SumService
/// with no pipeline, timing each RecommendInto, ApplyInteractions and
/// SumService::ApplyAll call. Appends one root span per call (apply
/// spans get shard/refresh/rewarm children) with request ids from
/// `request_base` when `spans` is non-null.
DirectReplay RunDirectReplay(
    const Inputs& inputs,
    const std::vector<spa::workload::ScenarioEvent>& events,
    const std::vector<std::vector<spa::sum::SumUpdate>>& updates,
    std::vector<Span>* spans, uint64_t request_base);

/// Resident set size of this process, MiB (/proc/self/statm).
double ResidentMib();

/// \brief Host CPU time counters (/proc/stat), for the share of time
/// the hypervisor gave the machine's CPUs to others during a run.
struct CpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuTimes ReadCpuTimes();
double StealFraction(const CpuTimes& before, const CpuTimes& after);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
