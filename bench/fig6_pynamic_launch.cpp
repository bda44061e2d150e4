// Fig 6: "Time-to-launch instances of Pynamic as built (Normal) and
// shrinkwrapped" — the headline result. Paper measurements on two-socket
// Xeon E5-2695 nodes loading from NFS, cold cache, negative caching off:
//     512 ranks: 169.0 s normal vs  30.5 s wrapped  (5.5x)
//    2048 ranks: 344.6 s normal vs ~47.9 s wrapped  (7.2x)
// We reproduce the pipeline end to end: generate the ~900-library bigexe,
// replay the loader's actual syscall stream against the simulated NFS, and
// extrapolate rank contention with the calibrated launch model.

#include "bench_util.hpp"
#include "depchaos/core/world.hpp"

namespace {

using namespace depchaos;

core::Session make_session() {
  // 900 modules, 213 MiB exe, cold NFS.
  return core::WorldBuilder().pynamic({}).nfs().build();
}

void print_figure() {
  using depchaos::bench::fmt;
  using depchaos::bench::heading;
  using depchaos::bench::row;

  core::WorldBuilder builder;
  auto session = builder.pynamic({}).nfs().build();
  const auto& app = *builder.pynamic_info();
  const std::vector<int> ranks = {512, 1024, 2048};

  const auto normal = session.launch_sweep("", ranks);
  const auto wrap = session.shrinkwrap();
  const auto wrapped = session.launch_sweep("", ranks);

  heading("Fig 6 — Pynamic time-to-launch, Normal vs Shrinkwrapped");
  row("modules / needed entries", std::to_string(app.module_paths.size()));
  row("metadata ops per rank (normal)",
      std::to_string(normal[0].meta_ops_per_rank));
  row("metadata ops per rank (wrapped)",
      std::to_string(wrapped[0].meta_ops_per_rank));
  row("bytes staged per rank (MiB)",
      fmt(static_cast<double>(normal[0].bytes_per_rank) / (1 << 20), 1));
  std::printf(
      "\n  %6s %14s %14s %9s   (paper: 169/30.5s @512 -> 5.5x;"
      " 344.6s @2048 -> 7.2x)\n",
      "ranks", "normal (s)", "wrapped (s)", "speedup");
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    std::printf("  %6d %14.1f %14.1f %8.1fx\n", ranks[i],
                normal[i].total_time_s, wrapped[i].total_time_s,
                normal[i].total_time_s / wrapped[i].total_time_s);
    depchaos::bench::capture(
        "ranks=" + std::to_string(ranks[i]),
        fmt(normal[i].total_time_s, 1) + "s normal / " +
            fmt(wrapped[i].total_time_s, 1) + "s wrapped (" +
            fmt(normal[i].total_time_s / wrapped[i].total_time_s, 1) + "x)");
  }
  (void)wrap;

  // Engine column: the same sweep through the discrete-event MDS
  // simulator (src/mds). The wrapped stream is small enough to simulate
  // at every rank count; the normal 900-module stream is ~405k ops/rank,
  // so its queueing series is bounded to the smallest counts (event count
  // = ops/rank * ranks). Both series land in BENCH_*.json so the
  // trajectory records analytic/queueing agreement over time.
  {
    auto sim_session = make_session();
    launch::FleetConfig queueing;
    queueing.cluster = sim_session.config().cluster;
    queueing.engine = launch::Engine::Queueing;
    const std::vector<int> normal_sim_ranks = {64, 128};
    const auto normal_sim =
        launch::sweep(sim_session, {}, "", normal_sim_ranks, queueing);
    if (!sim_session.shrinkwrap().ok()) {
      std::fprintf(stderr, "shrinkwrap failed in sim sweep\n");
    }
    const auto wrapped_sim = launch::sweep(sim_session, {}, "", ranks, queueing);
    std::printf("\n  queueing engine (discrete-event MDS) vs formula:\n");
    for (std::size_t i = 0; i < normal_sim.size(); ++i) {
      std::printf("  %6d %14.1f (normal, simulated)\n",
                  normal_sim[i].launch.nprocs,
                  normal_sim[i].launch.total_time_s);
      depchaos::bench::capture(
          "ranks=" + std::to_string(normal_sim[i].launch.nprocs) +
              " engine=queueing",
          fmt(normal_sim[i].launch.total_time_s, 1) + "s normal");
    }
    for (std::size_t i = 0; i < wrapped_sim.size(); ++i) {
      std::printf("  %6d %14.1f (wrapped, simulated; formula %.1f)\n",
                  wrapped_sim[i].launch.nprocs,
                  wrapped_sim[i].launch.total_time_s,
                  wrapped[i].total_time_s);
      depchaos::bench::capture(
          "ranks=" + std::to_string(wrapped_sim[i].launch.nprocs) +
              " engine=queueing",
          fmt(wrapped_sim[i].launch.total_time_s, 1) + "s wrapped vs " +
              fmt(wrapped[i].total_time_s, 1) + "s formula");
    }
  }

  // §V-A closing remark: "it could be worthwhile to explore combining
  // Shrinkwrap with an approach like Spindle" — the broadcast mitigation
  // applied to the UNWRAPPED binary, for comparison.
  {
    auto spindle_session = make_session();
    launch::ClusterConfig spindle_config;
    spindle_config.spindle_broadcast = true;
    std::printf("\n  Spindle-style broadcast on the unwrapped binary:\n");
    for (const int r : ranks) {
      const auto result = spindle_session.launch("", r, spindle_config);
      std::printf("  %6d %14.1f (one resolver rank + log-tree relay)\n", r,
                  result.total_time_s);
    }
  }
}

void BM_PynamicColdLoadNormal(benchmark::State& state) {
  auto session = make_session();
  for (auto _ : state) {
    session.fs().clear_caches();
    benchmark::DoNotOptimize(session.load().success);
  }
}
BENCHMARK(BM_PynamicColdLoadNormal)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

void BM_PynamicColdLoadWrapped(benchmark::State& state) {
  auto session = make_session();
  if (!session.shrinkwrap().ok()) state.SkipWithError("wrap failed");
  for (auto _ : state) {
    session.fs().clear_caches();
    benchmark::DoNotOptimize(session.load().success);
  }
}
BENCHMARK(BM_PynamicColdLoadWrapped)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

void BM_LaunchSweep(benchmark::State& state) {
  auto session = make_session();
  for (auto _ : state) {
    const auto result =
        session.launch("", static_cast<int>(state.range(0)));
    benchmark::DoNotOptimize(result.total_time_s);
  }
}
BENCHMARK(BM_LaunchSweep)
    ->Arg(512)
    ->Arg(2048)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

}  // namespace

int main(int argc, char** argv) {
  print_figure();
  return depchaos::bench::run_benchmarks(argc, argv);
}
