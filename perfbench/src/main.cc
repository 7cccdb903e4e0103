// perfbench: the repository benchmark. Drives the serving stack
// through its public API on one workload and prints every metric by
// name with its unit; the last stdout line is one JSON object with
// "correct", "attempted", "failed" and "metrics". Exits nonzero when
// a correctness check fails. Normally launched by perfbench/run.py,
// which builds it and passes the workload constants from
// perfbench/workloads.json:
//
//   perfbench --workload=read_zipf --seed=1 --seconds=24 --trace=0
//             --backend=pipeline --rate=40000 ...   (one line; see run.py)

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_math.h"
#include "harness.h"
#include "workload_spec.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace sw = spa::workload;
using Clock = std::chrono::steady_clock;

/// Largest error_frac the traced waterfall may show: neither time that
/// two parts claim nor time that no part explains may exceed this share
/// of the end-to-end mean.
constexpr double kWaterfallTolerance = 0.05;

/// The closed loop cycles through its stream at most this many times.
constexpr size_t kClosedCycles = 4;

/// Windows of the closed loop whose median rate is capacity_rps.
constexpr size_t kCapacityWindows = 12;

/// Deployments per timed run; setup_s is the median of their times.
constexpr size_t kSetupReps = 5;

/// Responses sampled for the parity check per phase.
constexpr size_t kParitySamples = 128;

/// Only every Nth request's spans are written to the span file (all
/// spans feed the metrics).
constexpr uint64_t kSpanFileStride = 16;

struct Options {
  WorkloadSpec spec;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  uint64_t tripwire = 0;
  std::string out_dir = ".";
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

bool ParseOptions(int argc, char** argv, Options* o) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      std::fprintf(stderr, "bad argument: %s (want --name=value)\n",
                   arg.c_str());
      return false;
    }
    flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
  }
  std::map<std::string, std::string> taken;
  const auto take = [&flags, &taken](const char* name) -> std::string* {
    const auto it = flags.find(name);
    if (it == flags.end()) return nullptr;
    std::string* value = &taken[name];
    *value = it->second;
    flags.erase(it);
    return value;
  };
  try {
    if (auto* v = take("workload")) o->spec.name = *v;
    if (auto* v = take("backend")) o->spec.backend = *v;
    if (auto* v = take("scenario")) o->spec.scenario = *v;
    if (auto* v = take("rate")) o->spec.rate = std::stod(*v);
    if (auto* v = take("read-limit-ms")) o->spec.read_limit_ms = std::stod(*v);
    if (auto* v = take("closed-events")) {
      o->spec.closed_events = std::stoul(*v);
    }
    if (auto* v = take("interaction-fraction")) {
      o->spec.interaction_fraction = std::stod(*v);
    }
    if (auto* v = take("sum-update-fraction")) {
      o->spec.sum_update_fraction = std::stod(*v);
    }
    if (auto* v = take("seed")) o->seed = std::stoull(*v);
    if (auto* v = take("seconds")) o->seconds = std::stod(*v);
    if (auto* v = take("trace")) o->trace = *v == "1";
    if (auto* v = take("tripwire")) o->tripwire = std::stoull(*v, nullptr, 16);
    if (auto* v = take("out-dir")) o->out_dir = *v;
    if (auto* v = take("commit")) o->commit = *v;
    if (auto* v = take("source-digest")) o->source_digest = *v;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad flag value: %s\n", e.what());
    return false;
  }
  for (const auto& [name, value] : flags) {
    std::fprintf(stderr, "unknown flag: --%s\n", name.c_str());
  }
  if (!flags.empty()) return false;
  const bool valid = !o->spec.name.empty() && o->spec.rate > 0.0 &&
                     o->spec.read_limit_ms > 0.0 && o->seconds > 0.0 &&
                     o->spec.closed_events > 0 &&
                     (o->spec.backend == "pipeline" ||
                      o->spec.backend == "router") &&
                     (o->spec.scenario == "steady_power_law" ||
                      o->spec.scenario == "emotion_shift_storm");
  if (!valid) std::fprintf(stderr, "missing or invalid workload constants\n");
  return valid;
}

// ---- metric output -------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void PrintMetric(const Metric& m) {
  std::printf("metric %-34s %.6g %s\n", m.name.c_str(), m.value,
              m.unit.c_str());
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ---- per-op reductions ---------------------------------------------------

bool IsRead(const OpRecord& r) { return r.kind == sw::EventKind::kServe; }

std::vector<double> LatenciesMs(const std::vector<OpRecord>& records,
                                bool reads) {
  std::vector<double> out;
  for (const OpRecord& r : records) {
    if (IsRead(r) == reads && r.ok) {
      out.push_back(static_cast<double>(r.done_ns - r.due_ns) * 1e-6);
    }
  }
  return out;
}

/// Share of the open loop's reads that were late: failed, or completed
/// more than `limit_ms` after their due time.
double LateFraction(const std::vector<OpRecord>& records, double limit_ms) {
  uint64_t reads = 0;
  uint64_t late = 0;
  for (const OpRecord& r : records) {
    if (!IsRead(r)) continue;
    ++reads;
    if (!r.ok || static_cast<double>(r.done_ns - r.due_ns) * 1e-6 > limit_ms) {
      ++late;
    }
  }
  return reads > 0 ? static_cast<double>(late) / static_cast<double>(reads)
                   : 0.0;
}

void PrintSample(const char* what, const std::vector<double>& values) {
  const Percentile p99 = NearestRank(values, 0.99);
  std::printf("sample %-22s n=%zu beyond_p99=%zu", what, p99.count,
              p99.beyond);
  for (const double q : {0.5, 0.9, 0.95, 0.99, 0.999}) {
    std::printf(" p%g=%.4f", q * 100, NearestRank(values, q).value);
  }
  std::printf("\n");
}

/// \brief Bookkeeping that must agree after Flush(): every op sent is
/// done or failed, and the front end's counters match ticket states.
struct Consistency {
  uint64_t sent = 0;
  uint64_t done_ok = 0;
  uint64_t failed = 0;
  uint64_t lost = 0;  ///< never completed
  bool counters_agree = true;
};

Consistency CheckConsistency(const PhaseResult& phase, bool router) {
  Consistency c;
  uint64_t reads_completed = 0;
  uint64_t interaction_writes = 0;
  uint64_t sum_writes = 0;
  for (const OpRecord& r : phase.records) {
    ++c.sent;
    if (r.done_ns < 0) {
      ++c.lost;
      continue;
    }
    r.ok ? ++c.done_ok : ++c.failed;
    if (r.refused) continue;
    switch (r.kind) {
      case sw::EventKind::kServe:
        ++reads_completed;
        break;
      case sw::EventKind::kInteraction:
        ++interaction_writes;
        break;
      case sw::EventKind::kSumUpdate:
        ++sum_writes;
        break;
    }
  }
  const uint64_t lanes = router ? kRouterReplicas : 1;
  const uint64_t expected_updates = interaction_writes * lanes + sum_writes;
  c.counters_agree = phase.stats.responses == reads_completed &&
                     phase.stats.updates_applied == expected_updates;
  if (!c.counters_agree) {
    std::printf("check counters DISAGREE: responses=%" PRIu64
                " read tickets=%" PRIu64 " updates_applied=%" PRIu64
                " write tickets=%" PRIu64 "\n",
                phase.stats.responses, reads_completed,
                phase.stats.updates_applied, expected_updates);
  }
  return c;
}

void PrintPhase(const char* name, const PhaseResult& phase) {
  std::vector<double> lag_ms;
  for (const OpRecord& r : phase.records) {
    lag_ms.push_back(static_cast<double>(r.send_ns - r.due_ns) * 1e-6);
  }
  std::printf("phase %-11s sent=%zu wall_s=%.3f lag_p99_ms=%.4f "
              "submit_failures=%zu exhausted=%d\n",
              name, phase.records.size(), phase.wall_s,
              NearestRank(lag_ms, 0.99).value, phase.submit_failures,
              phase.exhausted ? 1 : 0);
}

void PrintParity(const char* name, const ParityOutcome& p) {
  std::printf("parity %-10s checked=%zu mismatches=%zu%s%s\n", name,
              p.checked, p.mismatches, p.error.empty() ? "" : " error=",
              p.error.c_str());
}

/// Preallocated so the pages predate the memory baseline.
std::vector<OpRecord> RecordsFor(size_t n) { return std::vector<OpRecord>(n); }

ParityLog ReservedParityLog(const Inputs& in, size_t samples) {
  ParityLog log;
  const auto writes_in = [](const std::vector<sw::ScenarioEvent>& events) {
    return static_cast<size_t>(std::count_if(
        events.begin(), events.end(), [](const sw::ScenarioEvent& e) {
          return e.kind != sw::EventKind::kServe;
        }));
  };
  const size_t writes = writes_in(in.open_events) +
                        kClosedCycles * writes_in(in.closed_events);
  log.writes.reserve(writes);
  log.samples.reserve(2 * samples);
  return log;
}

// ---- timed run -----------------------------------------------------------

/// Deploys kSetupReps times, runs the open and closed loops on the last
/// deployment, and checks the outputs.
int RunTimed(const Options& o, const Inputs& in, bool inputs_ok) {
  // Records are allocated before the memory baseline, so mem_mib is
  // the stack's growth, not the benchmark's bookkeeping.
  std::vector<OpRecord> open_records = RecordsFor(in.open_events.size());
  std::vector<OpRecord> closed_records =
      RecordsFor(kClosedCycles * in.closed_events.size());
  ParityLog parity = ReservedParityLog(in, kParitySamples);
  const double rss_before = ResidentMib();

  std::vector<double> setup_s;
  std::unique_ptr<Deployment> deployment;
  for (size_t r = 0; r < kSetupReps; ++r) {
    deployment.reset();
    const auto start = Clock::now();
    const spa::Status status = Deploy(in, &deployment);
    setup_s.push_back(
        std::chrono::duration<double>(Clock::now() - start).count());
    if (!status.ok()) {
      std::fprintf(stderr, "deploy failed: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  std::printf("setup reps=%zu", setup_s.size());
  for (const double s : setup_s) std::printf(" %.4f", s);
  std::printf("\n");

  const CpuTimes cpu_before = ReadCpuTimes();
  const PhaseResult open = RunOpenLoop(*deployment, in, /*traced=*/false,
                                       kParitySamples, &parity,
                                       std::move(open_records));
  const double closed_s = o.seconds * (1.0 - kOpenShare);
  const PhaseResult closed =
      RunClosedLoop(*deployment, in, closed_s, kParitySamples, &parity,
                    std::move(closed_records));
  const double steal = StealFraction(cpu_before, ReadCpuTimes());
  const double mem_mib = ResidentMib() - rss_before;
  PrintPhase("open_loop", open);
  PrintPhase("closed_loop", closed);
  // Capacity is the median completion rate over windows of the closed
  // loop (up to its last completion if it filled its records early),
  // so a transient stall of the host moves it little.
  std::vector<int64_t> closed_done;
  for (const OpRecord& r : closed.records) {
    if (r.ok) closed_done.push_back(r.done_ns);
  }
  const int64_t closed_end_ns =
      closed.exhausted ? static_cast<int64_t>(closed.wall_s * 1e9)
                       : static_cast<int64_t>(closed_s * 1e9);
  const std::vector<double> closed_rates =
      WindowRates(closed_done, closed_end_ns, kCapacityWindows);
  std::printf("closed_loop window_rates");
  for (const double r : closed_rates) std::printf(" %.0f", r);
  std::printf("\n");

  const bool router = deployment->router != nullptr;
  const Consistency c_open = CheckConsistency(open, router);
  const Consistency c_closed = CheckConsistency(closed, router);
  // The retained tickets outlive the deployment; free it before the
  // reference engine is built.
  deployment.reset();
  const ParityOutcome parity_out = CheckParity(in, parity);
  PrintParity("run", parity_out);

  const std::vector<double> read_ms = LatenciesMs(open.records, true);
  const std::vector<double> write_ms = LatenciesMs(open.records, false);
  PrintSample("read_latency_ms", read_ms);
  PrintSample("write_latency_ms", write_ms);
  const uint64_t attempted = c_open.sent + c_closed.sent;
  const uint64_t failed = c_open.failed + c_open.lost + c_closed.failed +
                          c_closed.lost + parity_out.mismatches;
  const bool correct = inputs_ok && c_open.lost == 0 && c_closed.lost == 0 &&
                       c_open.counters_agree && c_closed.counters_agree &&
                       parity_out.mismatches == 0 &&
                       parity_out.error.empty() && parity_out.checked > 0;
  std::printf("check sent=%" PRIu64 " done=%" PRIu64 " failed=%" PRIu64
              " lost=%" PRIu64 " counters_agree=%d\n",
              attempted, c_open.done_ok + c_closed.done_ok,
              c_open.failed + c_closed.failed, c_open.lost + c_closed.lost,
              c_open.counters_agree && c_closed.counters_agree ? 1 : 0);
  // Read and write latency are printed but not gated: on a shared
  // 4-vCPU host their spread over runs exceeds any useful bound (see
  // perfbench/README.md).
  PrintMetric({"read_late_frac",
               LateFraction(open.records, o.spec.read_limit_ms), "frac"});
  PrintMetric({"read_p50_ms", NearestRank(read_ms, 0.50).value, "ms"});
  PrintMetric({"read_p99_ms", NearestRank(read_ms, 0.99).value, "ms"});
  PrintMetric({"write_p50_ms", NearestRank(write_ms, 0.50).value, "ms"});
  PrintMetric({"write_p99_ms", NearestRank(write_ms, 0.99).value, "ms"});
  PrintMetric({"fail_frac",
               static_cast<double>(failed) / static_cast<double>(attempted),
               "frac"});
  PrintMetric({"host_cpu_steal_frac", steal, "frac"});
  const std::vector<Metric> metrics = {
      {"setup_s", Median(setup_s), "s"},
      {"mem_mib", mem_mib, "MiB"},
      {"capacity_rps", Median(closed_rates), "1/s"},
  };
  for (const Metric& m : metrics) PrintMetric(m);
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

// ---- traced run ----------------------------------------------------------

/// Spans of one traced open-loop phase: a root per op ("read", "write",
/// or "write.fanout" for a routed interaction batch) whose children
/// tile it from due time to completion.
std::vector<Span> OpenLoopSpans(const PhaseResult& phase, bool router) {
  std::vector<Span> spans;
  spans.reserve(phase.records.size() * 5);
  const auto push = [&spans](uint64_t id, int64_t parent, const char* name,
                             int64_t start, int64_t end) {
    spans.push_back({id, parent, name, start, end});
    return static_cast<int64_t>(spans.size() - 1);
  };
  const auto ns = [](double seconds) {
    return static_cast<int64_t>(seconds * 1e9);
  };
  for (size_t i = 0; i < phase.records.size(); ++i) {
    const OpRecord& r = phase.records[i];
    if (r.done_ns < 0 || r.refused) continue;
    const bool fanout = router && r.kind == sw::EventKind::kInteraction;
    const char* root_name =
        IsRead(r) ? "read" : (fanout ? "write.fanout" : "write");
    const int64_t root = push(i, -1, root_name, r.due_ns, r.done_ns);
    push(i, root, "workload.lag", r.due_ns, r.send_ns);
    if (fanout) {
      const int64_t fan = push(i, root, "router.fanout", r.send_ns, r.done_ns);
      push(i, fan, "workload.submit", r.send_ns, r.submitted_ns);
      const ReplicaTimes& rt = phase.replicas[i];
      for (size_t k = 0; k < kRouterReplicas; ++k) {
        const int64_t done = rt.done_ns[k];
        const int64_t serve_start = done - ns(rt.serve_s[k]);
        const int64_t queue_start = serve_start - ns(rt.queue_s[k]);
        const int64_t rep = push(i, fan, "router.replica", queue_start, done);
        push(i, rep, "pipeline.queue", queue_start, serve_start);
        push(i, rep, "pipeline.serve", serve_start, done);
      }
    } else {
      // Admission happens inside the Submit call, so the submit span
      // ends there and the queue span takes over; the ticket's queue
      // and serve seconds are anchored at the completion callback.
      const int64_t serve_start = r.done_ns - ns(r.serve_s);
      const int64_t admitted = serve_start - ns(r.queue_s);
      push(i, root, "workload.submit", r.send_ns,
           std::max(r.send_ns, std::min(r.submitted_ns, admitted)));
      push(i, root, "pipeline.queue", admitted, serve_start);
      push(i, root, "pipeline.serve", serve_start, r.done_ns);
    }
  }
  return spans;
}

/// Writes a deterministic 1-in-kSpanFileStride sample of requests'
/// spans plus every write's spans, and a per-name summary.
void WriteSpans(const std::string& path, const std::vector<Span>& spans,
                const std::vector<int64_t>& self) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "index,request,parent,name,start_ns,end_ns,self_ns\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.request % kSpanFileStride != 0) continue;
    std::fprintf(f, "%zu,%" PRIu64 ",%" PRId64 ",%s,%" PRId64 ",%" PRId64
                    ",%" PRId64 "\n",
                 i, s.request, s.parent, s.name, s.start_ns, s.end_ns,
                 self[i]);
  }
  std::fclose(f);
}

void PrintSpanSummary(const std::vector<Span>& spans,
                      const std::vector<int64_t>& self) {
  struct Sum {
    uint64_t count = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;
  };
  std::map<std::string, Sum> by_name;
  for (size_t i = 0; i < spans.size(); ++i) {
    Sum& s = by_name[spans[i].name];
    ++s.count;
    s.total_ns += static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    s.self_ns += static_cast<double>(self[i]);
  }
  for (const auto& [name, s] : by_name) {
    const double n = static_cast<double>(s.count);
    std::printf("span %-24s count=%" PRIu64 " mean_ms=%.5f self_mean_ms=%.5f\n",
                name.c_str(), s.count, s.total_ns / n * 1e-6,
                s.self_ns / n * 1e-6);
  }
}

Waterfall PrintWaterfall(const std::vector<Span>& spans,
                         const std::vector<int64_t>& self, const char* root,
                         const std::vector<std::string>& parts) {
  const Waterfall w = BuildWaterfall(spans, self, root, parts);
  std::printf("waterfall %-12s end_to_end_mean_ms=%.5f", root,
              w.end_to_end_mean_ms);
  for (const auto& [name, ms] : w.parts_mean_ms) {
    std::printf(" %s=%.5f", name.c_str(), ms);
  }
  std::printf(" residual=%.5f overlap_frac=%.5f residual_frac=%.5f "
              "error_frac=%.5f tolerance=%.2f\n",
              w.residual_mean_ms, w.overlap_frac, w.residual_frac,
              w.error_frac, kWaterfallTolerance);
  return w;
}

double P(const std::vector<double>& values, double q) {
  return NearestRank(values, q).value;
}

int RunTraced(const Options& o, const Inputs& in, bool inputs_ok) {
  // Untraced reference pass, then the traced pass on a fresh
  // deployment; their read latency difference is the tracing overhead.
  // Only the untraced pass's reductions are kept.
  const bool router = in.spec.backend == "router";
  PhaseResult traced;
  Consistency c_plain;
  Consistency c_traced;
  ParityOutcome parity_plain;
  ParityOutcome parity_traced;
  std::vector<double> read_plain;
  std::vector<double> write_plain;
  double late_plain = 0.0;
  std::vector<std::vector<double>> replica_queue_ms(kRouterReplicas);
  for (const bool trace : {false, true}) {
    ParityLog parity = ReservedParityLog(in, kParitySamples);
    std::unique_ptr<Deployment> deployment;
    const spa::Status status = Deploy(in, &deployment);
    if (!status.ok()) {
      std::fprintf(stderr, "deploy failed: %s\n", status.ToString().c_str());
      return 1;
    }
    PhaseResult phase =
        RunOpenLoop(*deployment, in, trace, kParitySamples, &parity,
                    RecordsFor(in.open_events.size()));
    if (trace && router) {
      for (size_t i = 0; i < phase.records.size(); ++i) {
        const OpRecord& r = phase.records[i];
        if (!IsRead(r) || !r.ok) continue;
        const auto owner = deployment->router->OwnerOf(in.open_events[i].user);
        if (owner < kRouterReplicas) {
          replica_queue_ms[owner].push_back(r.queue_s * 1e3);
        }
      }
    }
    deployment.reset();
    PrintPhase(trace ? "traced" : "untraced", phase);
    (trace ? c_traced : c_plain) = CheckConsistency(phase, router);
    (trace ? parity_traced : parity_plain) = CheckParity(in, parity);
    PrintParity(trace ? "traced" : "untraced",
                trace ? parity_traced : parity_plain);
    if (trace) {
      traced = std::move(phase);
    } else {
      read_plain = LatenciesMs(phase.records, true);
      write_plain = LatenciesMs(phase.records, false);
      late_plain = LateFraction(phase.records, in.spec.read_limit_ms);
    }
  }

  const std::vector<double> read_traced = LatenciesMs(traced.records, true);
  PrintSample("untraced_read_ms", read_plain);
  PrintSample("traced_read_ms", read_traced);

  // Open-loop spans, then the direct replay's, with request ids past
  // the open loop's.
  std::vector<Span> spans = OpenLoopSpans(traced, router);
  const DirectReplay direct =
      RunDirectReplay(in, in.open_events, in.open_updates, &spans,
                      /*request_base=*/in.open_events.size());
  if (!direct.status.ok()) {
    std::fprintf(stderr, "direct replay failed: %s\n",
                 direct.status.ToString().c_str());
    return 1;
  }
  std::printf("direct_replay digest=0x%016" PRIx64 " events=%zu\n",
              direct.digest, in.open_events.size());
  const std::vector<int64_t> self = SelfTimes(spans);
  PrintSpanSummary(spans, self);
  const std::vector<std::string> lane_parts = {
      "workload.lag", "workload.submit", "pipeline.queue", "pipeline.serve"};
  const Waterfall w_read = PrintWaterfall(spans, self, "read", lane_parts);
  const Waterfall w_write = PrintWaterfall(spans, self, "write", lane_parts);
  double write_error = w_write.error_frac;
  if (router) {
    const Waterfall w_fan = PrintWaterfall(spans, self, "write.fanout",
                                           {"workload.lag", "router.fanout"});
    write_error = std::max(write_error, w_fan.error_frac);
  }
  const bool waterfall_ok = w_read.error_frac <= kWaterfallTolerance &&
                            write_error <= kWaterfallTolerance;
  const std::string span_path = o.out_dir + "/spans_" + in.spec.name +
                                "_seed" + std::to_string(o.seed) + ".csv";
  WriteSpans(span_path, spans, self);
  std::printf("spans written=%s (every %" PRIu64
              "th request) total=%zu\n",
              span_path.c_str(), kSpanFileStride, spans.size());

  // ---- per-layer reductions over the traced phase ----
  std::vector<double> lag_ms, submit_us, queue_ms, serve_ms, writer_queue_ms,
      fanout_ms, router_submit_us;
  for (size_t i = 0; i < traced.records.size(); ++i) {
    const OpRecord& r = traced.records[i];
    if (r.done_ns < 0 || r.refused) continue;
    lag_ms.push_back(static_cast<double>(r.send_ns - r.due_ns) * 1e-6);
    const double submit = static_cast<double>(r.submitted_ns - r.send_ns) * 1e-3;
    submit_us.push_back(submit);
    if (IsRead(r)) {
      if (!r.ok) continue;
      queue_ms.push_back(r.queue_s * 1e3);
      serve_ms.push_back(r.serve_s * 1e3);
      if (router) router_submit_us.push_back(submit);
    } else if (router && r.kind == sw::EventKind::kInteraction) {
      fanout_ms.push_back(static_cast<double>(r.done_ns - r.send_ns) * 1e-6);
      for (size_t k = 0; k < kRouterReplicas; ++k) {
        writer_queue_ms.push_back(traced.replicas[i].queue_s[k] * 1e3);
      }
    } else {
      writer_queue_ms.push_back(r.queue_s * 1e3);
    }
  }
  const FrontStats& st = traced.stats;
  const double wall = std::max(traced.wall_s, 1e-9);
  const double drain_threads =
      router ? static_cast<double>(kRouterReplicas)
             : static_cast<double>(kPipelineWorkers);
  const double writer_lanes = router ? static_cast<double>(kRouterReplicas) : 1.0;
  double router_queue_p99 = 0.0;
  for (const auto& q : replica_queue_ms) {
    router_queue_p99 = std::max(router_queue_p99, P(q, 0.99));
  }
  double skew = 0.0;
  if (router && !st.replica_serve_busy_s.empty()) {
    const auto [lo, hi] = std::minmax_element(st.replica_serve_busy_s.begin(),
                                              st.replica_serve_busy_s.end());
    skew = *lo > 0.0 ? *hi / *lo : 0.0;
  }
  const auto cache_total = direct.cache.hits + direct.cache.misses;
  const auto mean_of = [&direct](auto field) {
    if (direct.reports.empty()) return 0.0;
    double sum = 0.0;
    for (const auto& r : direct.reports) sum += field(r);
    return sum / static_cast<double>(direct.reports.size());
  };
  double full_rebuilds = 0.0;
  for (const auto& r : direct.reports) full_rebuilds += r.full_rebuild ? 1 : 0;

  const double overhead_p50 = P(read_traced, 0.50) - P(read_plain, 0.50);
  const double overhead_p99 = P(read_traced, 0.99) - P(read_plain, 0.99);
  const std::vector<Metric> metrics = {
      {"workload.read_p50_ms", P(read_plain, 0.50), "ms"},
      {"workload.read_p99_ms", P(read_plain, 0.99), "ms"},
      {"workload.write_p50_ms", P(write_plain, 0.50), "ms"},
      {"workload.write_p99_ms", P(write_plain, 0.99), "ms"},
      {"workload.read_late_frac", late_plain, "frac"},
      {"workload.lag_p99_ms", P(lag_ms, 0.99), "ms"},
      {"workload.submit_us_p99", P(submit_us, 0.99), "us"},
      {"pipeline.queue_wait_p50_ms", P(queue_ms, 0.50), "ms"},
      {"pipeline.queue_wait_p99_ms", P(queue_ms, 0.99), "ms"},
      {"pipeline.serve_p99_ms", P(serve_ms, 0.99), "ms"},
      {"pipeline.batch_mean",
       st.batches > 0 ? static_cast<double>(st.responses) /
                            static_cast<double>(st.batches)
                      : 0.0,
       "count"},
      {"pipeline.engine_busy_frac", st.serve_busy_s / (drain_threads * wall),
       "frac"},
      {"pipeline.writer_busy_frac", st.update_busy_s / (writer_lanes * wall),
       "frac"},
      {"pipeline.writer_queue_wait_p99_ms", P(writer_queue_ms, 0.99), "ms"},
      {"pipeline.max_queue_depth", static_cast<double>(st.max_queue_depth),
       "count"},
      {"engine.hit_ratio",
       cache_total > 0 ? static_cast<double>(direct.cache.hits) /
                             static_cast<double>(cache_total)
                       : 0.0,
       "frac"},
      {"engine.admission_rejections",
       static_cast<double>(direct.cache.admission_rejections), "count"},
      {"engine.capacity_evictions",
       static_cast<double>(direct.cache.capacity_evictions), "count"},
      {"engine.hit_us_p50", P(direct.hit_us, 0.50), "us"},
      {"engine.miss_us_p50", P(direct.miss_us, 0.50), "us"},
      {"engine.miss_us_p99", P(direct.miss_us, 0.99), "us"},
      {"engine.index_mib", direct.index_mib, "MiB"},
      {"engine.apply_ms_p50", P(direct.apply_ms, 0.50), "ms"},
      {"engine.apply_ms_p99", P(direct.apply_ms, 0.99), "ms"},
      {"engine.apply.shard_ms_mean",
       mean_of([](const auto& r) { return r.apply_seconds * 1e3; }), "ms"},
      {"engine.apply.refresh_ms_mean",
       mean_of([](const auto& r) { return r.refresh_seconds * 1e3; }), "ms"},
      {"engine.apply.rewarm_ms_mean",
       mean_of([](const auto& r) { return r.rewarm_seconds * 1e3; }), "ms"},
      {"engine.apply.rows_mean",
       mean_of([](const auto& r) {
         return static_cast<double>(r.rows_refreshed);
       }),
       "count"},
      {"engine.apply.full_rebuilds", full_rebuilds, "count"},
      {"engine.apply.invalidated_mean",
       mean_of([](const auto& r) {
         return static_cast<double>(r.cache_entries_invalidated);
       }),
       "count"},
      {"engine.apply.rewarmed_mean",
       mean_of([](const auto& r) {
         return static_cast<double>(r.entries_rewarmed);
       }),
       "count"},
      {"sum.publish_us_p50", P(direct.publish_us, 0.50), "us"},
      {"sum.publish_us_p99", P(direct.publish_us, 0.99), "us"},
      {"router.fanout_ms_p99", P(fanout_ms, 0.99), "ms"},
      {"router.submit_us_p99", P(router_submit_us, 0.99), "us"},
      {"router.queue_wait_p99_ms", router_queue_p99, "ms"},
      {"router.worker_busy_skew", skew, "ratio"},
      {"trace.overhead_read_p50_ms", overhead_p50, "ms"},
      {"trace.overhead_read_p99_ms", overhead_p99, "ms"},
      {"trace.waterfall_read_err_frac", w_read.error_frac, "frac"},
      {"trace.waterfall_write_err_frac", write_error, "frac"},
  };
  for (const Metric& m : metrics) PrintMetric(m);

  const uint64_t parity_failed = parity_plain.mismatches + parity_traced.mismatches;
  const uint64_t attempted = c_plain.sent + c_traced.sent;
  const uint64_t failed = c_plain.failed + c_plain.lost + c_traced.failed +
                          c_traced.lost + parity_failed;
  const bool correct =
      inputs_ok && waterfall_ok && c_plain.lost == 0 && c_traced.lost == 0 &&
      c_plain.counters_agree && c_traced.counters_agree && parity_failed == 0 &&
      parity_plain.error.empty() && parity_traced.error.empty() &&
      parity_plain.checked > 0 && parity_traced.checked > 0;
  std::printf("check waterfall_ok=%d counters_agree=%d lost=%" PRIu64 "\n",
              waterfall_ok ? 1 : 0,
              c_plain.counters_agree && c_traced.counters_agree ? 1 : 0,
              c_plain.lost + c_traced.lost);
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

/// Checks this run's stream fingerprints against earlier runs recorded
/// in `path` with the same workload, seed, run length and constants
/// (one line per run: workload seed seconds rate tripwire open closed),
/// then records them. Equal seeds must give equal inputs.
bool FingerprintsRepeat(const std::string& path, const Options& o,
                        const Inputs& in) {
  bool same = true;
  if (std::FILE* f = std::fopen(path.c_str(), "r")) {
    char name[128];
    uint64_t seed = 0;
    double seconds = 0.0;
    double rate = 0.0;
    uint64_t tripwire = 0;
    uint64_t open_fp = 0;
    uint64_t closed_fp = 0;
    while (std::fscanf(f,
                       "%127s %" SCNu64 " %lf %lf %" SCNx64 " %" SCNx64
                       " %" SCNx64,
                       name, &seed, &seconds, &rate, &tripwire, &open_fp,
                       &closed_fp) == 7) {
      if (o.spec.name == name && seed == o.seed && seconds == o.seconds &&
          rate == o.spec.rate && tripwire == o.tripwire &&
          (open_fp != in.open_fingerprint ||
           closed_fp != in.closed_fingerprint)) {
        same = false;
      }
    }
    std::fclose(f);
  }
  if (std::FILE* f = std::fopen(path.c_str(), "a")) {
    std::fprintf(f,
                 "%s %" PRIu64 " %.17g %.17g %016" PRIx64 " %016" PRIx64
                 " %016" PRIx64 "\n",
                 o.spec.name.c_str(), o.seed, o.seconds, o.spec.rate,
                 o.tripwire, in.open_fingerprint, in.closed_fingerprint);
    std::fclose(f);
  }
  return same;
}

int Main(int argc, char** argv) {
  Options o;
  if (!ParseOptions(argc, argv, &o)) return 2;

  const uint64_t tripwire = TripwireDigest(o.spec);
  const double window_s = o.seconds * kOpenShare;
  const auto generate_start = Clock::now();
  const Inputs in = MakeInputs(o.spec, o.seed, window_s);
  const double generate_s =
      std::chrono::duration<double>(Clock::now() - generate_start).count();

  std::printf(
      "provenance {\"workload\": \"%s\", \"commit\": \"%s\", "
      "\"source_digest\": \"%s\", \"build_type\": \"%s\", "
      "\"compiler\": \"%s\", \"nproc\": %u, \"seed\": %" PRIu64
      ", \"users\": %zu, \"backend\": \"%s\", \"scenario\": \"%s\", "
      "\"rate_ops_s\": %g, \"read_limit_ms\": %g, \"open_loop_s\": %g, "
      "\"closed_loop_s\": %g, \"closed_window\": %zu, \"trace\": %d}\n",
      o.spec.name.c_str(), o.commit.c_str(), o.source_digest.c_str(),
      PERFBENCH_BUILD_TYPE, __VERSION__, std::thread::hardware_concurrency(),
      o.seed, o.spec.users, o.spec.backend.c_str(), o.spec.scenario.c_str(),
      o.spec.rate, o.spec.read_limit_ms, window_s, o.seconds - window_s,
      kClosedWindow, o.trace ? 1 : 0);
  std::printf("inputs open_events=%zu closed_events=%zu "
              "open_fingerprint=0x%016" PRIx64 " closed_fingerprint=0x%016"
              PRIx64 " inputs_digest=0x%016" PRIx64 " generate_s=%.3f\n",
              in.open_events.size(), in.closed_events.size(),
              in.open_fingerprint, in.closed_fingerprint, in.inputs_digest,
              generate_s);
  const bool repeat = FingerprintsRepeat(
      o.out_dir + "/fingerprints.txt", o, in);
  std::printf("inputs tripwire=0x%016" PRIx64 " pinned=0x%016" PRIx64
              " %s; same-seed fingerprints %s\n",
              tripwire, o.tripwire,
              tripwire == o.tripwire ? "ok" : "MISMATCH (the generator changed)",
              repeat ? "repeat" : "DIFFER (the generator is not deterministic)");
  const bool inputs_ok = tripwire == o.tripwire && repeat;
  return o.trace ? RunTraced(o, in, inputs_ok) : RunTimed(o, in, inputs_ok);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
