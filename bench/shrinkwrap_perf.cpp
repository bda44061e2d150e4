// §V intro: the cost of RUNNING Shrinkwrap itself. Paper: wrapping a binary
// with 900 needed entries, a 900-entry RPATH and a 213 MiB main executable
// took ~4 s with a warm filesystem cache and over a minute on cold NFS.
// The asymmetry (metadata ops dominate cold NFS) reproduces here.

#include "bench_util.hpp"
#include "depchaos/core/world.hpp"

namespace {

using namespace depchaos;

double wrap_cost_seconds(vfs::LatencyModel latency) {
  auto session =
      core::WorldBuilder().latency(std::move(latency)).pynamic({}).build();
  session.fs().clear_caches();
  return session.shrinkwrap().wrap_cost.sim_time_s;
}

void print_report() {
  using depchaos::bench::fmt;
  using depchaos::bench::heading;
  using depchaos::bench::row;

  heading("Shrinkwrap tool cost (paper: ~4 s warm, >1 min cold NFS)");
  const double warm = wrap_cost_seconds(vfs::LatencyModel::local_disk());
  const double cold = wrap_cost_seconds(vfs::LatencyModel::nfs());
  row("wrap 900-dep / 213 MiB binary, warm local cache",
      fmt(warm, 3) + " s (simulated)");
  row("wrap same binary, cold NFS", fmt(cold, 3) + " s (simulated)");
  row("cold/warm ratio", fmt(cold / warm, 1) + "x");
}

void BM_ShrinkwrapTool(benchmark::State& state) {
  // Wall-clock cost of the wrap operation itself on a fresh world.
  for (auto _ : state) {
    state.PauseTiming();
    workload::PynamicConfig config;
    config.num_modules = static_cast<std::size_t>(state.range(0));
    config.exe_extra_bytes = 0;
    auto session = core::WorldBuilder().pynamic(config).build();
    state.ResumeTiming();
    benchmark::DoNotOptimize(session.shrinkwrap().ok());
  }
}
BENCHMARK(BM_ShrinkwrapTool)
    ->Arg(100)
    ->Arg(300)
    ->Arg(900)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

void BM_VerifyWrapped(benchmark::State& state) {
  workload::PynamicConfig config;
  config.num_modules = 300;
  config.exe_extra_bytes = 0;
  auto session = core::WorldBuilder().pynamic(config).build();
  if (!session.shrinkwrap().ok()) {
    state.SkipWithError("wrap failed");
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.verify().ok);
  }
}
BENCHMARK(BM_VerifyWrapped)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_report();
  return depchaos::bench::run_benchmarks(argc, argv);
}
