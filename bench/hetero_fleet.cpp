// Heterogeneous fleets at scale: class-clustered rank measurement.
//
// A 1024-rank mixed-Pynamic MPMD fleet in 4 program classes, launched as
// containerized per-rank sandboxes (rootfs image + CoW overlay). The
// per-rank reference model (tests/reference/per_rank_fleet.hpp) replays
// the loader once per RANK — O(nprocs) full metadata walks for a launch
// model whose inputs only vary per CLASS. launch::simulate_fleet_launch
// keys each rank's sandbox by its exact (overlay key, environment) pair,
// measures ONE representative per equivalence class, and replicates the
// per-class streams — O(#classes).
//
// Acceptance gates (exit non-zero on regression):
//  * the clustered launch measures exactly 4 classes and replays the
//    loader at most 8 times for the 1024-rank fleet;
//  * clustering is invisible in the results: every counter, shared/
//    overlay split, fleet total, and modelled time is byte-identical to
//    the per-rank reference;
//  * the clustered path is >= 10x faster in wall-clock than the
//    per-rank reference at 1024 ranks.
//
// DEPCHAOS_SMOKE=1 shrinks the app; the fleet stays at 1024 ranks in 4
// classes (the whole point is rank-count-independent measurement).

#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "../tests/reference/per_rank_fleet.hpp"
#include "bench_util.hpp"
#include "depchaos/core/world.hpp"
#include "depchaos/launch/launch.hpp"
#include "depchaos/workload/scenarios.hpp"

namespace {

using namespace depchaos;

constexpr int kRanks = 1024;
constexpr int kClasses = 4;

bool smoke_mode() { return std::getenv("DEPCHAOS_SMOKE") != nullptr; }

workload::PynamicConfig app_config() {
  workload::PynamicConfig config;
  if (smoke_mode()) {
    config.num_modules = 64;
    config.exe_extra_bytes = 4ull << 20;
  }
  return config;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

int print_report() {
  using depchaos::bench::fmt;
  using depchaos::bench::heading;
  using depchaos::bench::row;

  const auto scenario = workload::make_container_launch_scenario(app_config());
  auto host = core::WorldBuilder().nfs().build();
  core::SandboxSpec spec;
  spec.image = scenario.image;
  spec.image_mount = scenario.image_mount;
  spec.writable_image_overlay = true;  // class divergence lives here
  spec.exe = scenario.exe;

  const workload::PynamicApp& app = scenario.app;
  launch::FleetConfig clustered;
  clustered.cluster = host.config().cluster;
  clustered.rank_setup = [&app](core::Session& sandbox, int rank) {
    workload::apply_mpmd_rank(sandbox.fs(), sandbox.env(), app, rank,
                              kClasses);
  };

  const auto t_fast = std::chrono::steady_clock::now();
  const auto fast = host.launch_fleet(spec, "", kRanks, clustered);
  const double fast_s = seconds_since(t_fast);

  const auto t_slow = std::chrono::steady_clock::now();
  const auto slow =
      reference::per_rank_fleet_launch(host, spec, "", kRanks, clustered);
  const double slow_s = seconds_since(t_slow);

  heading("heterogeneous fleet — 1024 ranks, 4 program classes");
  row("modules / needed entries", std::to_string(app.module_paths.size()));
  row("rank classes measured", std::to_string(fast.classes_measured));
  row("loader replays (clustered)", std::to_string(fast.ranks_measured));
  row("loader replays (per-rank)", std::to_string(slow.ranks_measured));
  std::string sizes;
  for (const int size : fast.class_sizes) {
    sizes += (sizes.empty() ? "" : " + ") + std::to_string(size);
  }
  row("class sizes", sizes);
  row("meta ops per rank", std::to_string(fast.meta_ops_per_rank));
  row("per-rank overlay ops", std::to_string(fast.overlay_meta_ops_per_rank));
  row("measurement wall-clock (clustered)", fmt(fast_s * 1e3, 1) + " ms");
  row("measurement wall-clock (per-rank)", fmt(slow_s * 1e3, 1) + " ms");
  const double speedup = slow_s / fast_s;
  row("measurement speedup", fmt(speedup, 1) + "x");

  heading("acceptance gates");
  const bool gate_classes = fast.load_succeeded &&
                            fast.classes_measured == kClasses &&
                            fast.ranks_measured <= 8;
  row("1024 ranks measured in <= 8 loader replays",
      gate_classes ? "PASS (" + std::to_string(fast.ranks_measured) + ")"
                   : "FAIL");

  int covered = 0;
  for (const int size : fast.class_sizes) covered += size;
  const bool gate_sizes = covered == kRanks &&
                          static_cast<int>(fast.class_sizes.size()) ==
                              fast.classes_measured;
  row("class sizes tile the fleet", gate_sizes ? "PASS" : "FAIL");

  const bool gate_identity =
      fast.load_succeeded == slow.load_succeeded &&
      fast.meta_ops_per_rank == slow.meta_ops_per_rank &&
      fast.bytes_per_rank == slow.bytes_per_rank &&
      fast.shared_meta_ops_per_rank == slow.shared_meta_ops_per_rank &&
      fast.overlay_meta_ops_per_rank == slow.overlay_meta_ops_per_rank &&
      fast.shared_bytes_per_rank == slow.shared_bytes_per_rank &&
      fast.overlay_bytes_per_rank == slow.overlay_bytes_per_rank &&
      fast.fleet_meta_ops == slow.fleet_meta_ops &&
      fast.fleet_bytes == slow.fleet_bytes &&
      fast.fleet_shared_meta_ops == slow.fleet_shared_meta_ops &&
      fast.fleet_overlay_meta_ops == slow.fleet_overlay_meta_ops &&
      fast.data_time_s == slow.data_time_s &&
      fast.meta_time_s == slow.meta_time_s &&
      fast.total_time_s == slow.total_time_s;
  row("clustered byte-identical to per-rank", gate_identity ? "PASS" : "FAIL");

  const bool gate_speed = speedup >= 10.0;
  row("clustered >= 10x faster wall-clock",
      gate_speed ? "PASS (" + fmt(speedup, 1) + "x)" : "FAIL");

  return (gate_classes && gate_sizes && gate_identity && gate_speed) ? 0 : 1;
}

void BM_ClusteredMixedFleet(benchmark::State& state) {
  const auto scenario = workload::make_container_launch_scenario(app_config());
  auto host = core::WorldBuilder().nfs().build();
  core::SandboxSpec spec;
  spec.image = scenario.image;
  spec.image_mount = scenario.image_mount;
  spec.writable_image_overlay = true;
  spec.exe = scenario.exe;
  const workload::PynamicApp& app = scenario.app;
  launch::FleetConfig fleet;
  fleet.cluster = host.config().cluster;
  fleet.rank_setup = [&app](core::Session& sandbox, int rank) {
    workload::apply_mpmd_rank(sandbox.fs(), sandbox.env(), app, rank,
                              kClasses);
  };
  // Arg 0: 1 = the class loop, 0 = the per-rank reference model.
  const bool clustered = state.range(0) != 0;
  const int ranks = static_cast<int>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        (clustered ? host.launch_fleet(spec, "", ranks, fleet)
                   : reference::per_rank_fleet_launch(host, spec, "", ranks,
                                                      fleet))
            .fleet_meta_ops);
  }
}
BENCHMARK(BM_ClusteredMixedFleet)
    ->Args({1, 256})
    ->Args({1, 1024})
    ->Args({0, 256})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

}  // namespace

int main(int argc, char** argv) {
  const int failures = print_report();
  const int bench_rc = depchaos::bench::run_benchmarks(argc, argv);
  return failures ? failures : bench_rc;
}
