// Serving throughput through the RecsysEngine request/response API:
// response cache, SUM updates, KNN index, live updates, streaming and
// router tier, one section per file under bench/serving/ (declared in
// serving/sections.h). The run exits 1 when any section's gate fails.
// Everything lands in BENCH_serving.json, with the cached engine's
// profiler export under "stages".
//
//   ./build/bench/bench_serving [--users=N] [--seed=S] [--smoke]

#include <cstdio>

#include "bench_util.h"
#include "json_writer.h"
#include "serving/sections.h"

namespace spa::bench {
namespace {

int Main(int argc, char** argv) {
  const CommonFlags flags = ParseFlags(argc, argv);
  const serving::Setup setup{
      .users = flags.users > 0 ? flags.users : (flags.smoke ? 400 : 2'000),
      .items = 400,
      .k = 10,
      .smoke = flags.smoke};

  PrintHeader(StrFormat("Serving throughput - sequential (%zu users)",
                        setup.users));
  serving::SharedStack stack(flags.seed);
  stack.matrix = serving::MatrixFrom(
      serving::TwoCommunityLog(setup.users, setup.items, stack.rng));
  if (!stack.emotions.Bootstrap(setup.users, stack.rng).ok()) {
    std::printf("SUM bootstrap failed\n");
    return 1;
  }
  stack.requests = serving::EveryUserOnce(setup.users, setup.k);

  JsonWriter json = OpenArtifact(
      "serving", flags,
      {{"users", setup.users}, {"items", setup.items}, {"k", setup.k}});
  bool ok = serving::RunCacheSection(setup, &stack, json);
  if (stack.cached_engine == nullptr) return 1;
  serving::RunSumUpdateSection(setup, &stack, json);
  ok = serving::RunKnnIndexSection(setup, stack.matrix, json) && ok;
  ok = serving::RunLiveUpdateSection(setup, flags.seed + 1, json) && ok;
  ok = serving::RunStreamingSection(setup, flags.seed + 2, json) && ok;
  ok = serving::RunRouterSection(setup, flags.seed + 3, json) && ok;
  json.RawField("stages", stack.cached_engine->profiler().ExportJson(
                             ProfilerLevel::kL3, /*indent=*/2));

  if (json.WriteFile("BENCH_serving.json")) {
    std::printf("\nwrote BENCH_serving.json\n");
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace spa::bench

int main(int argc, char** argv) { return spa::bench::Main(argc, argv); }
