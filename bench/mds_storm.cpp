// Launch-storm metadata contention as a DISCRETE-EVENT QUEUEING MODEL
// (src/mds), cross-checked against the closed-form storm arithmetic the
// paper's Fig 6 uses.
//
// The analytic engine prices a P-rank storm as ops * cost * P^gamma; the
// queueing engine replays the measured per-rank op stream through a
// simulated metadata server (request queue, batch coalescing, service
// distribution, client caches, Spindle/pre-staging topologies). On the
// regime the formula covers — homogeneous fleet, fixed service time, no
// client caching — the two must agree; everywhere else the simulator
// answers questions the formula cannot express.
//
// Acceptance gates (exit non-zero on regression):
//  * the queueing engine reproduces the Fig 6 sweep on all three
//    substrates (bare host, containerized, container+shrinkwrap) within
//    5% of the analytic metadata times (it is exact today);
//  * formula-inexpressible #1 — cache-warm second wave: with negative
//    caching on, relaunching the same fleet costs <20% of the cold wave
//    while the formula prices every wave identically;
//  * formula-inexpressible #2 — straggler tail: a rank starting after
//    the storm drains stretches the makespan past its delay but finishes
//    its stream contention-free, strictly under delay + cold storm —
//    neither effect exists on a P^gamma surface;
//  * fixed seed => bitwise-identical results across fresh simulators
//    (pareto service), different seed => different makespan.
//
// DEPCHAOS_SMOKE=1 shrinks the app and the rank sweep.

#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "depchaos/core/world.hpp"
#include "depchaos/launch/launch.hpp"
#include "depchaos/mds/sim.hpp"
#include "depchaos/workload/scenarios.hpp"

namespace {

using namespace depchaos;

bool smoke_mode() { return std::getenv("DEPCHAOS_SMOKE") != nullptr; }

workload::PynamicConfig app_config() {
  workload::PynamicConfig config;
  if (smoke_mode()) {
    config.num_modules = 100;
    config.exe_extra_bytes = 4ull << 20;
  } else {
    // Bounded full mode: the event count is ops/rank * ranks, and a
    // 900-module stream at 2048 ranks would be ~1e9 heap events.
    config.num_modules = 180;
    config.exe_extra_bytes = 8ull << 20;
  }
  return config;
}

std::vector<int> rank_sweep() {
  return smoke_mode() ? std::vector<int>{64, 256, 512}
                      : std::vector<int>{128, 512, 1024};
}

core::SandboxSpec container_spec(
    const workload::ContainerLaunchScenario& scenario, bool wrapped) {
  core::SandboxSpec spec;
  spec.image = wrapped ? scenario.wrapped_image : scenario.image;
  spec.image_mount = scenario.image_mount;
  spec.writable_image_overlay = true;
  spec.exe = scenario.exe;
  return spec;
}

bool within(double sim, double analytic, double tolerance) {
  if (analytic == 0.0) return sim == 0.0;
  return std::fabs(sim / analytic - 1.0) <= tolerance;
}

int print_report() {
  using depchaos::bench::fmt;
  using depchaos::bench::heading;
  using depchaos::bench::row;

  const auto ranks = rank_sweep();
  const auto config = app_config();

  // ---- substrate 1: bare host, both engines over the same stream -------
  core::WorldBuilder builder;
  auto bare = builder.pynamic(config).nfs().build();
  const auto bare_analytic = bare.launch_sweep("", ranks);
  launch::FleetConfig bare_queueing;
  bare_queueing.cluster = bare.config().cluster;
  bare_queueing.engine = launch::Engine::Queueing;
  const auto bare_sim = launch::sweep(bare, {}, "", ranks, bare_queueing);

  // ---- substrates 2+3: containerized, bare image vs wrapped image ------
  const auto scenario = workload::make_container_launch_scenario(config);
  auto host = core::WorldBuilder().nfs().build();
  const auto spec_normal = container_spec(scenario, /*wrapped=*/false);
  const auto spec_wrapped = container_spec(scenario, /*wrapped=*/true);
  launch::FleetConfig fleet;
  fleet.cluster = host.config().cluster;
  launch::FleetConfig queueing = fleet;
  queueing.engine = launch::Engine::Queueing;
  const auto cont_analytic = launch::sweep(host, spec_normal, "", ranks, fleet);
  const auto wrap_analytic =
      launch::sweep(host, spec_wrapped, "", ranks, fleet);
  const auto cont_sim = launch::sweep(host, spec_normal, "", ranks, queueing);
  const auto wrap_sim = launch::sweep(host, spec_wrapped, "", ranks, queueing);

  heading("Fig 6, queueing engine vs closed form — three substrates");
  row("modules / needed entries",
      std::to_string(scenario.app.module_paths.size()));
  row("meta ops per rank (bare)",
      std::to_string(bare_analytic[0].meta_ops_per_rank));
  row("meta ops per rank (container wrapped)",
      std::to_string(wrap_analytic[0].launch.meta_ops_per_rank));

  std::printf("\n  %6s  %-16s %14s %14s %9s\n", "ranks", "substrate",
              "formula (s)", "simulated (s)", "drift");
  bool gate_bridge = true;
  const auto bridge_row = [&](int r, const char* substrate, double analytic,
                              double sim) {
    const double drift = analytic == 0.0 ? 0.0 : sim / analytic - 1.0;
    gate_bridge = gate_bridge && within(sim, analytic, 0.05);
    std::printf("  %6d  %-16s %14.2f %14.2f %8.3f%%\n", r, substrate,
                analytic, sim, drift * 100.0);
    depchaos::bench::capture(
        "ranks=" + std::to_string(r) + " " + substrate,
        fmt(analytic, 3) + "s formula / " + fmt(sim, 3) + "s simulated");
  };
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    bridge_row(ranks[i], "bare", bare_analytic[i].meta_time_s,
               bare_sim[i].launch.meta_time_s);
    bridge_row(ranks[i], "container", cont_analytic[i].launch.meta_time_s,
               cont_sim[i].launch.meta_time_s);
    bridge_row(ranks[i], "container+wrap",
               wrap_analytic[i].launch.meta_time_s,
               wrap_sim[i].launch.meta_time_s);
  }

  heading("queueing internals (container, largest sweep point)");
  const auto& peak = cont_sim.back().sim;
  row("server requests", std::to_string(peak.server_requests));
  row("batches / mean batch",
      std::to_string(peak.batches) + " / " + fmt(peak.mean_batch, 1));
  row("peak queue depth", std::to_string(peak.max_queue_depth));
  row("request latency p50 / p99 / max",
      fmt(peak.latency_p50_s * 1e3, 2) + " / " +
          fmt(peak.latency_p99_s * 1e3, 2) + " / " +
          fmt(peak.latency_max_s * 1e3, 2) + " ms");

  // ---- what the formula cannot say -------------------------------------
  heading("formula-inexpressible scenarios");
  const int mid = ranks[ranks.size() / 2];

  // #1: cache-warm second wave. The closed form has no state, so wave 2
  // costs exactly wave 1; the simulator's warm negative caches answer the
  // (stat-miss dominated) probe storm client-side.
  launch::FleetConfig warm = fleet;
  warm.cache.enabled = true;
  warm.cache.negative_caching = true;
  warm.sim_waves = 2;
  const auto waves =
      launch::simulate_fleet_launch_sim(host, spec_normal, "", mid, warm);
  const double wave1 = waves.wave_makespans.at(0);
  const double wave2 = waves.wave_makespans.at(1);
  const bool gate_warm = wave2 < wave1 * 0.2;
  row("ranks", std::to_string(mid));
  row("wave 1 metadata (cold caches)", fmt(wave1, 3) + " s");
  row("wave 2 metadata (warm caches)", fmt(wave2, 4) + " s");
  row("formula's wave 2 prediction", fmt(wave1, 3) + " s (identical)");
  row("warm-cache hits in wave 2", std::to_string(waves.sim.cache_hits));

  // #2: straggler tail. One rank starts after the storm has drained; the
  // simulated makespan tracks the straggler, and its stream now runs
  // CONTENTION-FREE — it finishes in delay + solo time, far below the
  // delay + full-storm answer a shifted formula would give. The formula
  // only sees rank COUNT; it can express neither effect.
  const auto& tight = cont_sim[ranks.size() / 2];
  const double delay_s = std::ceil(tight.sim.makespan_s) + 1.0;
  launch::FleetConfig late = fleet;
  late.start_delays.assign(static_cast<std::size_t>(mid), 0.0);
  late.start_delays[static_cast<std::size_t>(mid / 2)] = delay_s;
  const auto straggler =
      launch::simulate_fleet_launch_sim(host, spec_normal, "", mid, late);
  const bool gate_straggler =
      straggler.sim.makespan_s > delay_s &&
      straggler.sim.makespan_s > tight.sim.makespan_s &&
      straggler.sim.makespan_s < delay_s + tight.sim.makespan_s;
  row("straggler delay on one rank", fmt(delay_s, 1) + " s");
  row("makespan without straggler", fmt(tight.sim.makespan_s, 3) + " s");
  row("makespan with straggler", fmt(straggler.sim.makespan_s, 3) + " s");
  row("straggler's contention-free solo stream",
      fmt(straggler.sim.makespan_s - delay_s, 3) + " s");

  // ---- determinism ------------------------------------------------------
  launch::FleetConfig pareto = fleet;
  pareto.service.dist = mds::Dist::Pareto;
  pareto.service.seed = 7;
  const auto run_a =
      launch::simulate_fleet_launch_sim(host, spec_wrapped, "", mid, pareto);
  const auto run_b =
      launch::simulate_fleet_launch_sim(host, spec_wrapped, "", mid, pareto);
  pareto.service.seed = 8;
  const auto run_c =
      launch::simulate_fleet_launch_sim(host, spec_wrapped, "", mid, pareto);
  const bool gate_deterministic =
      run_a.sim.makespan_s == run_b.sim.makespan_s &&
      run_a.sim.server_requests == run_b.sim.server_requests &&
      run_a.sim.latency_max_s == run_b.sim.latency_max_s &&
      run_a.sim.makespan_s != run_c.sim.makespan_s;

  heading("acceptance gates");
  row("queueing engine within 5% of formula (3 substrates)",
      gate_bridge ? "PASS" : "FAIL");
  row("cache-warm wave 2 under 20% of cold wave", gate_warm ? "PASS" : "FAIL");
  row("straggler stretches makespan by ~its delay",
      gate_straggler ? "PASS" : "FAIL");
  row("fixed seed bitwise-deterministic, seed-sensitive",
      gate_deterministic ? "PASS" : "FAIL");

  return (gate_bridge && gate_warm && gate_straggler && gate_deterministic)
             ? 0
             : 1;
}

// Event-loop throughput: replay a synthetic K-op stream through P clients.
void BM_SimulateStorm(benchmark::State& state) {
  const int nprocs = static_cast<int>(state.range(0));
  std::vector<vfs::OpRecord> stream;
  for (std::uint32_t i = 0; i < 512; ++i) {
    stream.push_back({i % 2 ? vfs::OpKind::Open : vfs::OpKind::Stat,
                      /*hit=*/i % 4 == 1, /*shared=*/true,
                      /*node_local=*/false, /*path=*/i});
  }
  mds::MdsConfig config;
  for (auto _ : state) {
    mds::MdsSimulator sim(config);
    benchmark::DoNotOptimize(sim.run_homogeneous(stream, nprocs).makespan_s);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 512);
}
BENCHMARK(BM_SimulateStorm)
    ->Arg(64)
    ->Arg(512)
    ->Arg(2048)
    ->Unit(benchmark::kMillisecond);

void BM_AnalyticExtrapolate(benchmark::State& state) {
  const launch::ClusterConfig cluster;
  const int nprocs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        launch::storm_meta_seconds(512, nprocs, cluster) +
        launch::storm_data_seconds(4u << 20, nprocs, cluster));
  }
}
BENCHMARK(BM_AnalyticExtrapolate)->Arg(2048)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  const int failures = print_report();
  const int bench_rc = depchaos::bench::run_benchmarks(argc, argv);
  return failures ? failures : bench_rc;
}
