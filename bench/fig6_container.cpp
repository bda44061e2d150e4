// Fig 6 in three substrates: bare host, containerized (rootfs image +
// per-rank CoW overlay), and containerized with the app SHRINKWRAPPED
// INSIDE the image.
//
// The paper's headline sweep measures the per-rank metadata storm; this
// bench re-runs it with every rank inside its own container sandbox —
// the regime where image mounts, overlays, and masks change *which*
// metadata ops a rank issues. Because resolution crosses mounts
// transparently and the image is the container's own rootfs, the
// containerized op stream must match the bare one op for op, and the
// shrinkwrap reduction must survive the move into the container.
//
// Acceptance gates (exit non-zero on regression):
//  * the containerized shrinkwrap sweep preserves the bare-host op-count
//    reduction ratio within 5% (it is exact today);
//  * per-rank sandbox setup is O(1) via CoW fork — a fresh sandbox owns
//    <1% of the image's bytes (no image copies);
//  * every series is internally byte-identical: the sweep's measure-once
//    projection equals re-measurement at each rank count bit for bit, on
//    the bare host and in both containers (the cross-branch identity is
//    diffed via BENCH_*.json);
//  * the shared/overlay split tiles the measured total, with zero
//    overlay ops for homogeneous ranks;
//  * measurement is O(#classes), not O(#ranks): homogeneous containerized
//    fleets replay the loader exactly once, and a mixed MPMD fleet is
//    measured once per program class.
//
// DEPCHAOS_SMOKE=1 shrinks the app (the sweep stays at 512..2048 ranks).

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "depchaos/core/world.hpp"
#include "depchaos/workload/scenarios.hpp"

namespace {

using namespace depchaos;

bool smoke_mode() { return std::getenv("DEPCHAOS_SMOKE") != nullptr; }

workload::PynamicConfig app_config() {
  workload::PynamicConfig config;
  if (smoke_mode()) {
    config.num_modules = 120;
    config.exe_extra_bytes = 8ull << 20;
  }
  return config;
}

core::SandboxSpec container_spec(
    const workload::ContainerLaunchScenario& scenario, bool wrapped) {
  core::SandboxSpec spec;
  spec.image = wrapped ? scenario.wrapped_image : scenario.image;
  spec.image_mount = scenario.image_mount;  // "/": the container's rootfs
  spec.writable_image_overlay = true;       // per-rank CoW overlay
  spec.exe = scenario.exe;
  return spec;
}

int print_report() {
  using depchaos::bench::fmt;
  using depchaos::bench::heading;
  using depchaos::bench::row;

  const std::vector<int> ranks = {512, 1024, 2048};
  const auto config = app_config();

  // Byte-identity gate: a sweep measures once and projects every rank
  // count; that must equal launching at each count on its own, bit for
  // bit, on every substrate.
  bool sweep_identical = true;
  const auto same = [&](const launch::LaunchResult& swept,
                        const launch::LaunchResult& single) {
    sweep_identical = sweep_identical &&
                      single.meta_ops_per_rank == swept.meta_ops_per_rank &&
                      single.bytes_per_rank == swept.bytes_per_rank &&
                      single.total_time_s == swept.total_time_s;
  };

  // ---- substrate 1: bare host (the paper's Fig 6, measure-once sweep) ----
  core::WorldBuilder builder;
  auto bare = builder.pynamic(config).nfs().build();
  const auto bare_normal = bare.launch_sweep("", ranks);
  {
    auto probe = core::WorldBuilder().pynamic(config).nfs().build();
    for (std::size_t i = 0; i < ranks.size(); ++i) {
      same(bare_normal[i], probe.launch("", ranks[i]));
    }
  }
  if (!bare.shrinkwrap().ok()) {
    std::fprintf(stderr, "bare shrinkwrap failed\n");
    return 1;
  }
  const auto bare_wrapped = bare.launch_sweep("", ranks);

  // ---- substrates 2+3: containerized, bare image vs wrapped image --------
  const auto scenario = workload::make_container_launch_scenario(config);
  auto host = core::WorldBuilder().nfs().build();
  const auto spec_normal = container_spec(scenario, /*wrapped=*/false);
  const auto spec_wrapped = container_spec(scenario, /*wrapped=*/true);
  launch::FleetConfig fleet;
  fleet.cluster = host.config().cluster;
  std::vector<launch::LaunchResult> cont_normal, cont_wrapped;
  for (auto& outcome : launch::sweep(host, spec_normal, "", ranks, fleet)) {
    cont_normal.push_back(std::move(outcome.launch));
  }
  for (auto& outcome : launch::sweep(host, spec_wrapped, "", ranks, fleet)) {
    cont_wrapped.push_back(std::move(outcome.launch));
  }
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    same(cont_normal[i], host.launch_fleet(spec_normal, ranks[i]));
    same(cont_wrapped[i], host.launch_fleet(spec_wrapped, ranks[i]));
  }

  // Queueing-engine series (src/mds): the same streams replayed through
  // the discrete-event metadata-server simulator instead of the closed
  // form. Event count is ops/rank * ranks, so the full 900-module app is
  // simulated only at the smallest rank count; smoke mode covers the
  // whole sweep (the two engines agree to rounding here — the drift is
  // gated by bench_mds_storm).
  const std::size_t sim_points = smoke_mode() ? ranks.size() : 1;
  launch::FleetConfig fleet_queueing = fleet;
  fleet_queueing.engine = launch::Engine::Queueing;
  std::vector<double> bare_sim, cont_sim;
  {
    auto probe = core::WorldBuilder().pynamic(config).nfs().build();
    const std::vector<int> sim_ranks(ranks.begin(),
                                     ranks.begin() + sim_points);
    for (const auto& outcome :
         launch::sweep(probe, {}, "", sim_ranks, fleet_queueing)) {
      bare_sim.push_back(outcome.launch.total_time_s);
    }
    for (const auto& outcome :
         launch::sweep(host, spec_normal, "", sim_ranks, fleet_queueing)) {
      cont_sim.push_back(outcome.launch.total_time_s);
    }
  }

  heading("Fig 6 containerized — Pynamic in three substrates");
  row("modules / needed entries",
      std::to_string(scenario.app.module_paths.size()));
  row("meta ops per rank (bare normal)",
      std::to_string(bare_normal[0].meta_ops_per_rank));
  row("meta ops per rank (bare wrapped)",
      std::to_string(bare_wrapped[0].meta_ops_per_rank));
  row("meta ops per rank (container normal)",
      std::to_string(cont_normal[0].meta_ops_per_rank));
  row("meta ops per rank (container wrapped)",
      std::to_string(cont_wrapped[0].meta_ops_per_rank));
  row("shared-image ops per rank (container normal)",
      std::to_string(cont_normal[0].shared_meta_ops_per_rank));
  row("per-rank overlay ops (container normal)",
      std::to_string(cont_normal[0].overlay_meta_ops_per_rank));

  std::printf(
      "\n  %6s %12s %12s %14s %14s %12s %12s\n", "ranks", "bare (s)",
      "wrapped (s)", "container (s)", "cont+wrap (s)", "bare sim(s)",
      "cont sim(s)");
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    const bool simmed = i < sim_points;
    std::printf("  %6d %12.1f %12.1f %14.1f %14.1f", ranks[i],
                bare_normal[i].total_time_s, bare_wrapped[i].total_time_s,
                cont_normal[i].total_time_s, cont_wrapped[i].total_time_s);
    if (simmed) {
      std::printf(" %12.1f %12.1f\n", bare_sim[i], cont_sim[i]);
    } else {
      std::printf(" %12s %12s\n", "--", "--");
    }
    depchaos::bench::capture(
        "ranks=" + std::to_string(ranks[i]) + " engine=analytic",
        fmt(bare_normal[i].total_time_s, 1) + "s bare / " +
            fmt(bare_wrapped[i].total_time_s, 1) + "s wrapped / " +
            fmt(cont_normal[i].total_time_s, 1) + "s container / " +
            fmt(cont_wrapped[i].total_time_s, 1) + "s container+wrap");
    if (simmed) {
      depchaos::bench::capture(
          "ranks=" + std::to_string(ranks[i]) + " engine=queueing",
          fmt(bare_sim[i], 1) + "s bare / " + fmt(cont_sim[i], 1) +
              "s container");
    }
  }

  // Spindle and pre-staging applied to the containerized UNWRAPPED app:
  // both absorb only the shared-image part of the storm.
  {
    launch::FleetConfig spindle;
    spindle.cluster = host.config().cluster;
    spindle.cluster.spindle_broadcast = true;
    launch::FleetConfig staged;
    staged.cluster = host.config().cluster;
    staged.prestaged_image = true;
    const auto s = host.launch_fleet(spec_normal, "", 2048, spindle);
    const auto p = host.launch_fleet(spec_normal, "", 2048, staged);
    row("container normal @2048 + spindle broadcast",
        fmt(s.total_time_s, 1) + " s");
    row("container normal @2048 + pre-staged image",
        fmt(p.total_time_s, 1) + " s");
  }

  heading("acceptance gates");
  const double bare_ratio =
      static_cast<double>(bare_normal[0].meta_ops_per_rank) /
      static_cast<double>(bare_wrapped[0].meta_ops_per_rank);
  const double cont_ratio =
      static_cast<double>(cont_normal[0].meta_ops_per_rank) /
      static_cast<double>(cont_wrapped[0].meta_ops_per_rank);
  const double drift = cont_ratio / bare_ratio - 1.0;
  const bool gate_ratio = drift < 0.05 && drift > -0.05;
  row("bare op reduction", fmt(bare_ratio, 1) + "x");
  row("containerized op reduction", fmt(cont_ratio, 1) + "x");
  row("containerized shrinkwrap preserves reduction (<5% drift)",
      gate_ratio ? "PASS (" + fmt(drift * 100, 2) + "%)" : "FAIL");

  // O(1) sandbox setup: a fresh per-rank sandbox owns no image bytes.
  auto job = host.sandbox(spec_normal);
  const std::uint64_t owned = job.fs().owned_bytes();
  const std::uint64_t image_bytes = scenario.image->disk_usage("/");
  const bool gate_fork = owned * 100 < image_bytes;
  row("sandbox owned bytes vs image",
      fmt(static_cast<double>(owned) / 1024.0, 1) + " KiB vs " +
          fmt(static_cast<double>(image_bytes) / (1 << 20), 1) + " MiB");
  row("per-rank setup is O(1) CoW fork (no image copy)",
      gate_fork ? "PASS" : "FAIL");

  row("bare sweep byte-identical to per-rank re-measurement",
      sweep_identical ? "PASS" : "FAIL");

  const bool gate_split =
      cont_normal[0].shared_meta_ops_per_rank +
              cont_normal[0].overlay_meta_ops_per_rank ==
          cont_normal[0].meta_ops_per_rank &&
      cont_normal[0].overlay_meta_ops_per_rank == 0 &&
      cont_wrapped[0].shared_meta_ops_per_rank +
              cont_wrapped[0].overlay_meta_ops_per_rank ==
          cont_wrapped[0].meta_ops_per_rank;
  row("shared/overlay split tiles the measured total",
      gate_split ? "PASS" : "FAIL");

  // Measurement economy: homogeneous containerized ranks collapse into
  // ONE equivalence class (one loader replay per sweep point), and a
  // mixed MPMD fleet is measured once per program class — never per rank.
  bool gate_classes = true;
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    gate_classes = gate_classes && cont_normal[i].ranks_measured == 1 &&
                   cont_normal[i].classes_measured == 1 &&
                   cont_wrapped[i].ranks_measured == 1 &&
                   cont_wrapped[i].classes_measured == 1;
  }
  {
    const int classes = 4;
    launch::FleetConfig mixed;
    mixed.cluster = host.config().cluster;
    mixed.rank_setup = [&scenario, classes](core::Session& s, int r) {
      workload::apply_mpmd_rank(s.fs(), s.env(), scenario.app, r, classes);
    };
    const auto m = host.launch_fleet(spec_normal, "", 64, mixed);
    gate_classes = gate_classes && m.load_succeeded &&
                   m.classes_measured == classes &&
                   m.ranks_measured == classes;
    row("mixed 4-class fleet @64 loader replays",
        std::to_string(m.ranks_measured));
  }
  row("measured loader replays == rank classes",
      gate_classes ? "PASS" : "FAIL");

  bool loads_ok = true;
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    loads_ok = loads_ok && bare_normal[i].load_succeeded &&
               bare_wrapped[i].load_succeeded &&
               cont_normal[i].load_succeeded &&
               cont_wrapped[i].load_succeeded &&
               cont_wrapped[i].total_time_s < cont_normal[i].total_time_s;
  }
  row("all substrates load; wrapped container beats normal",
      loads_ok ? "PASS" : "FAIL");

  return (gate_ratio && gate_fork && sweep_identical && gate_split &&
          gate_classes && loads_ok)
             ? 0
             : 1;
}

void BM_SandboxCreatePerRank(benchmark::State& state) {
  const auto scenario = workload::make_container_launch_scenario(app_config());
  auto host = core::WorldBuilder().nfs().build();
  const auto spec = container_spec(scenario, /*wrapped=*/false);
  for (auto _ : state) {
    auto job = host.sandbox(spec);
    benchmark::DoNotOptimize(job.fs().inode_count());
  }
}
BENCHMARK(BM_SandboxCreatePerRank)->Unit(benchmark::kMicrosecond);

void BM_ContainerColdLaunch(benchmark::State& state) {
  const auto scenario = workload::make_container_launch_scenario(app_config());
  auto host = core::WorldBuilder().nfs().build();
  const auto spec = container_spec(scenario, state.range(0) != 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        host.launch_fleet(spec, 512).meta_ops_per_rank);
  }
}
BENCHMARK(BM_ContainerColdLaunch)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

}  // namespace

int main(int argc, char** argv) {
  const int failures = print_report();
  const int bench_rc = depchaos::bench::run_benchmarks(argc, argv);
  return failures ? failures : bench_rc;
}
