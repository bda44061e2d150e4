#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "depchaos/core/world.hpp"
#include "depchaos/elf/patcher.hpp"
#include "depchaos/launch/launch.hpp"
#include "depchaos/support/rng.hpp"
#include "depchaos/workload/pynamic.hpp"
#include "depchaos/workload/scenarios.hpp"

namespace depchaos::launch {
namespace {

/// A bare launch of a scaled-down Pynamic app on NFS, through the one
/// pipeline: Session::launch is launch::sweep over an empty SandboxSpec.
class LaunchTest : public ::testing::Test {
 protected:
  static core::Session build_world() {
    workload::PynamicConfig config;
    config.num_modules = 120;  // scaled-down Pynamic
    config.exe_extra_bytes = 8ull << 20;
    return core::WorldBuilder().pynamic(config).nfs().build();
  }

  /// A bare launch at one rank count: the one-entry sweep.
  LaunchResult launch_at(int ranks, const ClusterConfig& cluster = {}) {
    return session_.launch("", ranks, cluster);
  }
  static std::vector<SimOutcome> sim_sweep(core::Session& session,
                                           const std::vector<int>& ranks) {
    FleetConfig queueing;
    queueing.engine = Engine::Queueing;
    return sweep(session, {}, "", ranks, queueing);
  }

  core::Session session_ = build_world();
};

TEST_F(LaunchTest, TimeGrowsWithRankCount) {
  const auto r512 = launch_at(512);
  const auto r2048 = launch_at(2048);
  ASSERT_TRUE(r512.load_succeeded);
  EXPECT_GT(r2048.total_time_s, r512.total_time_s);
  // Sublinear: quadrupling ranks should not quadruple the time.
  EXPECT_LT(r2048.total_time_s, 4 * r512.total_time_s);
}

TEST_F(LaunchTest, WrappedBeatsNormalAtEveryScale) {
  const std::vector<int> ranks = {512, 1024, 2048};
  const auto normal = session_.launch_sweep("", ranks);

  ASSERT_TRUE(session_.shrinkwrap().ok());
  const auto wrapped = session_.launch_sweep("", ranks);

  for (std::size_t i = 0; i < ranks.size(); ++i) {
    EXPECT_LT(wrapped[i].total_time_s, normal[i].total_time_s);
  }
}

TEST_F(LaunchTest, SpeedupGrowsWithScale) {
  // Fig 6's headline: the gap WIDENS as the job grows (5.5x -> 7.2x).
  const auto n512 = launch_at(512);
  const auto n2048 = launch_at(2048);
  ASSERT_TRUE(session_.shrinkwrap().ok());
  const auto w512 = launch_at(512);
  const auto w2048 = launch_at(2048);

  const double speedup_512 = n512.total_time_s / w512.total_time_s;
  const double speedup_2048 = n2048.total_time_s / w2048.total_time_s;
  EXPECT_GT(speedup_512, 1.5);
  EXPECT_GT(speedup_2048, speedup_512);
}

TEST_F(LaunchTest, MetaOpsMeasuredNotModelled) {
  const auto result = launch_at(64);
  // 120 modules, one per directory: ~n^2/2 probes.
  EXPECT_GT(result.meta_ops_per_rank, 120ull * 121 / 2);
  EXPECT_GT(result.bytes_per_rank, 8ull << 20);
}

TEST_F(LaunchTest, BytesIdenticalBeforeAndAfterWrap) {
  // Shrinkwrap only removes metadata work; the bytes staged are the same.
  const auto before = launch_at(64);
  ASSERT_TRUE(session_.shrinkwrap().ok());
  const auto after = launch_at(64);
  // Wrapped metadata is tiny compared to the original.
  EXPECT_LT(after.meta_ops_per_rank * 20, before.meta_ops_per_rank);
  // Bytes differ only by the rewritten (slightly longer) dynamic section.
  const double byte_ratio = static_cast<double>(after.bytes_per_rank) /
                            static_cast<double>(before.bytes_per_rank);
  EXPECT_NEAR(byte_ratio, 1.0, 0.01);
}

TEST_F(LaunchTest, SpindleBroadcastFlattensMetadataScaling) {
  ClusterConfig spindle;
  spindle.spindle_broadcast = true;
  const auto s512 = launch_at(512, spindle);
  const auto s2048 = launch_at(2048, spindle);
  const auto n2048 = launch_at(2048);
  // Broadcast beats per-rank resolution at scale...
  EXPECT_LT(s2048.meta_time_s, n2048.meta_time_s);
  // ...and its metadata phase grows only logarithmically.
  EXPECT_LT(s2048.meta_time_s, s512.meta_time_s * 1.5);
}

TEST_F(LaunchTest, SingleRankHasNoContentionPenalty) {
  const auto result = launch_at(1);
  ClusterConfig config;
  const double raw_meta =
      static_cast<double>(result.meta_ops_per_rank) * config.meta_op_cost_s;
  EXPECT_NEAR(result.meta_time_s, raw_meta, 1e-9);
}

TEST_F(LaunchTest, BareLaunchIsAForkedColdLoadPricedByTheStormFormulas) {
  // A bare launch measures its cold load in a fork: the host's counters
  // (and the latency charges they accumulate) do not move, and the result
  // is the storm formulas applied to a fork's load counts, bit for bit —
  // one class of all-shared ops, not sandboxed.
  const vfs::SyscallStats before = session_.fs().stats();
  const int ranks = 512;
  const auto result = launch_at(ranks);
  const vfs::SyscallStats after = session_.fs().stats();
  EXPECT_EQ(after.stat_calls, before.stat_calls);
  EXPECT_EQ(after.open_calls, before.open_calls);
  EXPECT_EQ(after.read_calls, before.read_calls);
  EXPECT_EQ(after.failed_probes, before.failed_probes);
  EXPECT_EQ(after.sim_time_s, before.sim_time_s);

  core::Session fork = session_.fork();
  fork.fs().clear_caches();
  const loader::LoadReport report = fork.load();
  ASSERT_TRUE(report.success);
  std::uint64_t bytes = 0;
  for (const auto& obj : report.load_order) {
    bytes += fork.fs().peek(obj.path)->size();
  }
  const std::uint64_t ops = report.stats.metadata_calls();
  const ClusterConfig cluster;
  const double data =
      storm_data_seconds(static_cast<double>(bytes), ranks, cluster);
  const double meta =
      storm_meta_seconds(static_cast<double>(ops), ranks, cluster);
  ASSERT_TRUE(result.load_succeeded);
  EXPECT_EQ(result.meta_ops_per_rank, ops);
  EXPECT_EQ(result.bytes_per_rank, bytes);
  EXPECT_EQ(result.data_time_s, data);
  EXPECT_EQ(result.meta_time_s, meta);
  EXPECT_EQ(result.total_time_s, cluster.init_s + data + meta);
  EXPECT_EQ(result.shared_meta_ops_per_rank, ops);
  EXPECT_EQ(result.overlay_meta_ops_per_rank, 0u);
  EXPECT_EQ(result.shared_bytes_per_rank, bytes);
  EXPECT_EQ(result.overlay_bytes_per_rank, 0u);
  EXPECT_EQ(result.fleet_meta_ops, ops * ranks);
  EXPECT_EQ(result.classes_measured, 1);
  EXPECT_EQ(result.ranks_measured, 1);
  EXPECT_EQ(result.class_sizes, std::vector<int>{ranks});
  EXPECT_FALSE(result.sandboxed);
}

TEST_F(LaunchTest, SweepReusesOneMeasurementByteIdentically) {
  // A sweep measures the op stream once and projects every entry;
  // re-measuring per entry on a fresh session must give bit-equal results
  // (counters do not depend on cache warmth, the arithmetic is shared).
  const std::vector<int> ranks = {64, 512, 1024, 2048};
  const auto sweep = session_.launch_sweep("", ranks);
  ASSERT_EQ(sweep.size(), ranks.size());
  core::Session fresh = build_world();
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    const auto single = fresh.launch(ranks[i]);
    EXPECT_EQ(sweep[i].nprocs, single.nprocs);
    EXPECT_EQ(sweep[i].load_succeeded, single.load_succeeded);
    EXPECT_EQ(sweep[i].meta_ops_per_rank, single.meta_ops_per_rank);
    EXPECT_EQ(sweep[i].bytes_per_rank, single.bytes_per_rank);
    EXPECT_EQ(sweep[i].data_time_s, single.data_time_s);
    EXPECT_EQ(sweep[i].meta_time_s, single.meta_time_s);
    EXPECT_EQ(sweep[i].total_time_s, single.total_time_s);
    EXPECT_EQ(sweep[i].class_sizes, std::vector<int>{ranks[i]});
  }
}

TEST_F(LaunchTest, ThrowingQueueingSweepDetachesItsTrace) {
  // The sweep records its load into a trace on the rank's sandbox; a load
  // that throws (missing executable) must leave nothing installed, and
  // the host loads afterwards exactly as an untouched twin does.
  FleetConfig queueing;
  queueing.engine = Engine::Queueing;
  EXPECT_THROW(sweep(session_, {}, "/apps/pynamic/missing", {64}, queueing),
               FsError);
  const loader::LoadReport after = session_.load();

  const loader::LoadReport expected = build_world().load();
  ASSERT_TRUE(after.success);
  ASSERT_EQ(after.load_order.size(), expected.load_order.size());
  for (std::size_t i = 0; i < after.load_order.size(); ++i) {
    EXPECT_EQ(after.load_order[i].path, expected.load_order[i].path);
  }
  EXPECT_EQ(after.stats.stat_calls, expected.stats.stat_calls);
  EXPECT_EQ(after.stats.open_calls, expected.stats.open_calls);
  EXPECT_EQ(after.stats.read_calls, expected.stats.read_calls);
  EXPECT_EQ(after.stats.failed_probes, expected.stats.failed_probes);
  EXPECT_EQ(after.stats.sim_time_s, expected.stats.sim_time_s);
}

// --------------------------------------------------- containerized launch

workload::PynamicConfig small_pynamic() {
  workload::PynamicConfig config;
  config.num_modules = 60;
  config.exe_extra_bytes = 1u << 20;
  return config;
}

/// Shadow an existing module's soname in an EARLIER search directory of
/// the sandbox — the loader then finds it in the per-rank overlay, which
/// is exactly the rank-private metadata the breakdown must attribute.
void shadow_module(core::Session& sandbox, std::size_t victim,
                   std::size_t dir) {
  const std::string soname =
      "libpynamic_module_" + std::to_string(victim) + ".so";
  elf::install_object(sandbox.fs(),
                      "/apps/pynamic/m" + std::to_string(dir) + "/lib/" +
                          soname,
                      elf::make_library(soname));
}

TEST(FleetLaunch, SandboxImageEqualToHostViewIsByteIdenticalToBare) {
  core::WorldBuilder builder;
  auto session = builder.pynamic(small_pynamic()).nfs().build();
  const auto bare = session.launch(512);
  ASSERT_TRUE(bare.load_succeeded);

  // The image IS the host view: same tree, same inode numbering. Mounted
  // as the sandbox rootfs behind a per-rank overlay, the measured op
  // stream must not change by a single op or byte.
  core::SandboxSpec spec;
  spec.image = std::make_shared<vfs::FileSystem>(session.fs());
  spec.image_mount = "/";
  spec.writable_image_overlay = true;
  const auto fleet = session.launch_fleet(spec, 512);
  EXPECT_TRUE(fleet.load_succeeded);
  EXPECT_TRUE(fleet.sandboxed);
  EXPECT_EQ(fleet.ranks_measured, 1);  // no rank_setup hook: one class
  EXPECT_EQ(fleet.meta_ops_per_rank, bare.meta_ops_per_rank);
  EXPECT_EQ(fleet.bytes_per_rank, bare.bytes_per_rank);
  // The split tiles the total, and nothing diverged: all ops are shared.
  EXPECT_EQ(fleet.shared_meta_ops_per_rank + fleet.overlay_meta_ops_per_rank,
            fleet.meta_ops_per_rank);
  EXPECT_EQ(fleet.overlay_meta_ops_per_rank, 0u);
  EXPECT_EQ(fleet.overlay_bytes_per_rank, 0u);
  EXPECT_EQ(fleet.shared_bytes_per_rank, fleet.bytes_per_rank);
  EXPECT_EQ(fleet.fleet_meta_ops, fleet.meta_ops_per_rank * 512u);
  EXPECT_EQ(fleet.fleet_bytes, fleet.bytes_per_rank * 512u);
  // With every op shared and no mitigation, the fleet model must reduce
  // to the bare one bit for bit — times included, so the two conversion
  // paths can never drift apart.
  EXPECT_EQ(fleet.data_time_s, bare.data_time_s);
  EXPECT_EQ(fleet.meta_time_s, bare.meta_time_s);
  EXPECT_EQ(fleet.total_time_s, bare.total_time_s);
}

TEST(FleetLaunch, RankSetupDivergenceLandsInOverlayOps) {
  core::WorldBuilder builder;
  auto session = builder.pynamic(small_pynamic()).nfs().build();
  core::SandboxSpec spec;
  spec.image = std::make_shared<vfs::FileSystem>(session.fs());
  spec.image_mount = "/";
  spec.writable_image_overlay = true;

  FleetConfig fleet;
  fleet.cluster = session.config().cluster;
  fleet.rank_setup = [](core::Session& sandbox, int /*rank*/) {
    shadow_module(sandbox, 40, 0);
  };
  const auto result = session.launch_fleet(spec, "", 4, fleet);
  ASSERT_TRUE(result.load_succeeded);
  // All four ranks apply the SAME shadow, so class clustering folds them
  // into one equivalence class measured once.
  EXPECT_EQ(result.ranks_measured, 1);
  EXPECT_EQ(result.classes_measured, 1);
  ASSERT_EQ(result.class_sizes.size(), 1u);
  EXPECT_EQ(result.class_sizes[0], 4);
  EXPECT_GT(result.overlay_meta_ops_per_rank, 0u);
  EXPECT_EQ(result.shared_meta_ops_per_rank + result.overlay_meta_ops_per_rank,
            result.meta_ops_per_rank);
  // Shadowing module 40 into an earlier dir SHORTENS the probe storm: the
  // sandbox stream differs from the bare one in which ops exist, not just
  // their attribution.
  const auto bare = session.launch(4);
  EXPECT_NE(result.meta_ops_per_rank, bare.meta_ops_per_rank);
}

TEST(FleetLaunch, SpindleBroadcastFlattensOnlySharedOps) {
  core::WorldBuilder builder;
  auto session = builder.pynamic(small_pynamic()).nfs().build();
  core::SandboxSpec spec;
  spec.image = std::make_shared<vfs::FileSystem>(session.fs());
  spec.image_mount = "/";
  spec.writable_image_overlay = true;

  FleetConfig fleet;
  fleet.cluster = session.config().cluster;
  fleet.cluster.spindle_broadcast = true;
  fleet.rank_setup = [](core::Session& sandbox, int /*rank*/) {
    shadow_module(sandbox, 40, 0);
  };
  const int nprocs = 4;
  const auto result = session.launch_fleet(spec, "", nprocs, fleet);
  ASSERT_TRUE(result.load_succeeded);
  ASSERT_GT(result.overlay_meta_ops_per_rank, 0u);

  // Broadcast absorbs the shared ops (one resolver + log-tree relay); the
  // per-rank overlay ops still pay the full storm exponent.
  const ClusterConfig& c = fleet.cluster;
  const double p = nprocs;
  const double expected =
      static_cast<double>(result.shared_meta_ops_per_rank) *
          c.meta_op_cost_s * (1.0 + std::log2(p) * 0.1) +
      static_cast<double>(result.overlay_meta_ops_per_rank) *
          c.meta_op_cost_s * std::pow(p, c.meta_exponent);
  EXPECT_NEAR(result.meta_time_s, expected, 1e-12);

  // Without divergence the whole stream broadcasts: flat in P.
  FleetConfig homogeneous;
  homogeneous.cluster = fleet.cluster;
  const auto s512 = session.launch_fleet(spec, "", 512, homogeneous);
  const auto s2048 = session.launch_fleet(spec, "", 2048, homogeneous);
  EXPECT_LT(s2048.meta_time_s, s512.meta_time_s * 1.5);
}

TEST(FleetLaunch, PrestagedImageServesSharedPartLocally) {
  core::WorldBuilder builder;
  auto session = builder.pynamic(small_pynamic()).nfs().build();
  core::SandboxSpec spec;
  spec.image = std::make_shared<vfs::FileSystem>(session.fs());
  spec.image_mount = "/";
  spec.writable_image_overlay = true;

  FleetConfig cold;
  cold.cluster = session.config().cluster;
  FleetConfig staged = cold;
  staged.prestaged_image = true;
  const auto storm = session.launch_fleet(spec, "", 1024, cold);
  const auto local = session.launch_fleet(spec, "", 1024, staged);
  ASSERT_TRUE(storm.load_succeeded);
  // All ops are shared here, so pre-staging removes the storm entirely.
  EXPECT_NEAR(local.meta_time_s,
              static_cast<double>(local.shared_meta_ops_per_rank) *
                  cold.cluster.local_meta_op_cost_s,
              1e-12);
  EXPECT_LT(local.meta_time_s, storm.meta_time_s / 100.0);
  EXPECT_LT(local.total_time_s, storm.total_time_s);
}

TEST(FleetLaunch, PropertyFleetEqualsIndependentSandboxLaunches) {
  // N forked sandboxes measured in one fleet call == N separate launches,
  // op for op and byte for byte — fork isolation means no rank can see
  // another's divergence.
  for (const std::uint64_t seed : {7ull, 1234ull}) {
    core::WorldBuilder builder;
    auto session = builder.pynamic(small_pynamic()).nfs().build();
    core::SandboxSpec spec;
    spec.image = std::make_shared<vfs::FileSystem>(session.fs());
    spec.image_mount = "/";
    spec.writable_image_overlay = true;

    const auto setup = [seed](core::Session& sandbox, int rank) {
      support::Rng rng(seed * 1000 + static_cast<std::uint64_t>(rank));
      const std::size_t shadows = 1 + rng.below(3);
      for (std::size_t s = 0; s < shadows; ++s) {
        const std::size_t victim = 1 + rng.below(59);
        shadow_module(sandbox, victim, rng.below(victim));
      }
    };

    const int nprocs = 5;
    FleetConfig fleet;
    fleet.cluster = session.config().cluster;
    fleet.rank_setup = setup;
    const auto combined = session.launch_fleet(spec, "", nprocs, fleet);
    // Clustering measures one representative per distinct overlay, never
    // more ranks than exist; replicated totals below stay byte-exact.
    EXPECT_GE(combined.ranks_measured, 1);
    EXPECT_LE(combined.ranks_measured, nprocs);
    EXPECT_EQ(combined.ranks_measured, combined.classes_measured);
    int covered = 0;
    for (const int size : combined.class_sizes) covered += size;
    EXPECT_EQ(covered, nprocs);
    // Even with non-divisible heterogeneous sums, the reported per-rank
    // split tiles the per-rank total by construction.
    EXPECT_EQ(combined.shared_meta_ops_per_rank +
                  combined.overlay_meta_ops_per_rank,
              combined.meta_ops_per_rank);
    EXPECT_EQ(combined.shared_bytes_per_rank + combined.overlay_bytes_per_rank,
              combined.bytes_per_rank);

    std::uint64_t meta = 0, bytes = 0, shared = 0, overlay = 0;
    bool all_loaded = true;
    for (int rank = 0; rank < nprocs; ++rank) {
      FleetConfig one;
      one.cluster = fleet.cluster;
      one.rank_setup = [&setup, rank](core::Session& sandbox, int /*r*/) {
        setup(sandbox, rank);
      };
      const auto single = session.launch_fleet(spec, "", 1, one);
      meta += single.fleet_meta_ops;
      bytes += single.fleet_bytes;
      shared += single.fleet_shared_meta_ops;
      overlay += single.fleet_overlay_meta_ops;
      all_loaded = all_loaded && single.load_succeeded;
    }
    EXPECT_EQ(combined.load_succeeded, all_loaded) << "seed " << seed;
    EXPECT_EQ(combined.fleet_meta_ops, meta) << "seed " << seed;
    EXPECT_EQ(combined.fleet_bytes, bytes) << "seed " << seed;
    EXPECT_EQ(combined.fleet_shared_meta_ops, shared) << "seed " << seed;
    EXPECT_EQ(combined.fleet_overlay_meta_ops, overlay) << "seed " << seed;
  }
}

TEST(FleetLaunch, WrappedImagePreservesShrinkwrapReduction) {
  // The three-substrate story in miniature: shrinkwrap applied INSIDE the
  // image shrinks the containerized storm like it shrinks the bare one.
  const auto scenario =
      workload::make_container_launch_scenario(small_pynamic());
  core::WorldBuilder host;
  auto session = host.nfs().build();

  core::SandboxSpec bare;
  bare.image = scenario.image;
  bare.image_mount = scenario.image_mount;
  bare.writable_image_overlay = true;
  bare.exe = scenario.exe;
  core::SandboxSpec wrapped = bare;
  wrapped.image = scenario.wrapped_image;

  const auto normal = session.launch_fleet(bare, 512);
  const auto frozen = session.launch_fleet(wrapped, 512);
  ASSERT_TRUE(normal.load_succeeded);
  ASSERT_TRUE(frozen.load_succeeded);
  EXPECT_GT(normal.meta_ops_per_rank, frozen.meta_ops_per_rank * 10);
  // Same bytes staged modulo the slightly longer dynamic section.
  const double ratio = static_cast<double>(frozen.bytes_per_rank) /
                       static_cast<double>(normal.bytes_per_rank);
  EXPECT_NEAR(ratio, 1.0, 0.01);
  EXPECT_LT(frozen.total_time_s, normal.total_time_s);
}

// ------------------------------------------------ queueing-engine surface

TEST(LaunchValidation, RejectsNonPhysicalClusterConfigs) {
  const auto broken = [](auto&& mutate) {
    ClusterConfig config;
    mutate(config);
    return config;
  };
  EXPECT_NO_THROW(validate(ClusterConfig{}));
  EXPECT_THROW(validate(broken([](auto& c) { c.init_s = -1; })),
               std::invalid_argument);
  EXPECT_THROW(validate(broken([](auto& c) { c.init_s = 1.0 / 0.0; })),
               std::invalid_argument);
  EXPECT_THROW(
      validate(broken([](auto& c) { c.stage_bandwidth_bytes_s = 0; })),
      std::invalid_argument);
  EXPECT_THROW(
      validate(broken([](auto& c) { c.local_stage_bandwidth_bytes_s = -5; })),
      std::invalid_argument);
  EXPECT_THROW(validate(broken([](auto& c) { c.data_exponent = 2.5; })),
               std::invalid_argument);
  EXPECT_THROW(validate(broken([](auto& c) { c.meta_exponent = -0.1; })),
               std::invalid_argument);
  EXPECT_THROW(validate(broken([](auto& c) { c.meta_op_cost_s = 0; })),
               std::invalid_argument);
  EXPECT_THROW(validate(broken([](auto& c) { c.local_meta_op_cost_s = -1; })),
               std::invalid_argument);
  // The launch entry points validate too — a broken config or rank count
  // cannot reach the arithmetic through any of them, and nothing is
  // measured first (this world has no executable at all).
  core::Session session{vfs::FileSystem{}};
  EXPECT_THROW(
      session.launch("/bin/app", 8,
                     broken([](auto& c) { c.meta_op_cost_s = -1; })),
      std::invalid_argument);
  EXPECT_THROW(session.launch("/bin/app", 0), std::invalid_argument);
  EXPECT_THROW(session.launch_sweep("/bin/app", {64, 0}),
               std::invalid_argument);
  EXPECT_THROW(simulate_fleet_launch(session, {}, "/bin/app", -1),
               std::invalid_argument);
  EXPECT_TRUE(sweep(session, {}, "/bin/app", {}).empty());
}

TEST(LaunchValidation, RejectsNonPhysicalFleetConfigs) {
  EXPECT_NO_THROW(validate(FleetConfig{}));
  const auto broken = [](auto&& mutate) {
    FleetConfig config;
    mutate(config);
    return config;
  };
  EXPECT_THROW(validate(broken([](auto& f) { f.cluster.meta_exponent = 3; })),
               std::invalid_argument);
  // Simulator knobs are validated whichever engine is selected.
  EXPECT_THROW(
      validate(broken([](auto& f) { f.service.pareto_alpha = 1.0; })),
      std::invalid_argument);
  EXPECT_THROW(
      validate(broken([](auto& f) { f.service.uniform_spread = 1.5; })),
      std::invalid_argument);
  EXPECT_THROW(validate(broken([](auto& f) { f.cache.hit_cost_s = -1; })),
               std::invalid_argument);
  EXPECT_THROW(validate(broken([](auto& f) { f.sim_waves = 0; })),
               std::invalid_argument);
  EXPECT_THROW(validate(broken([](auto& f) { f.start_delays = {0.0, -0.5}; })),
               std::invalid_argument);
}

TEST_F(LaunchTest, QueueingEngineMatchesAnalyticOnFixedService) {
  // Homogeneous fleet + fixed service + no cache: the batch-coalescing
  // server reproduces the closed form exactly, so the two engines agree to
  // rounding on bare launches — the bridge that anchors the simulator.
  for (const int ranks : {1, 32, 256}) {
    const auto analytic = launch_at(ranks);
    const auto sim = sim_sweep(session_, {ranks}).front();
    ASSERT_TRUE(sim.launch.load_succeeded);
    EXPECT_EQ(sim.launch.meta_ops_per_rank, analytic.meta_ops_per_rank);
    EXPECT_EQ(sim.launch.data_time_s, analytic.data_time_s);
    EXPECT_NEAR(sim.launch.meta_time_s, analytic.meta_time_s,
                analytic.meta_time_s * 1e-9);
    EXPECT_EQ(sim.sim.server_requests,
              sim.launch.meta_ops_per_rank * static_cast<std::uint64_t>(ranks));
    EXPECT_EQ(sim.wave_makespans.size(), 1u);
  }
}

TEST_F(LaunchTest, SweepQueueingMatchesPerCallOutcomes) {
  const std::vector<int> ranks = {16, 64, 256};
  const auto sweep = sim_sweep(session_, ranks);
  ASSERT_EQ(sweep.size(), ranks.size());
  core::Session fresh = build_world();
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    const auto single = sim_sweep(fresh, {ranks[i]}).front();
    EXPECT_EQ(sweep[i].launch.meta_time_s, single.launch.meta_time_s);
    EXPECT_EQ(sweep[i].sim.server_requests, single.sim.server_requests);
    EXPECT_EQ(sweep[i].sim.batches, single.sim.batches);
  }
}

TEST_F(LaunchTest, BareQueueingLaunchRunsWavesAndStragglers) {
  // A bare fleet is the one-class fleet of an empty sandbox, so the
  // simulator's waves and stragglers apply to it as to a container fleet.
  FleetConfig fleet;
  fleet.engine = Engine::Queueing;
  fleet.cache.enabled = true;
  fleet.cache.negative_caching = true;
  fleet.sim_waves = 2;
  fleet.start_delays = {0.0, 0.5};
  const auto out = simulate_fleet_launch_sim(session_, {}, "", 32, fleet);
  ASSERT_TRUE(out.launch.load_succeeded);
  EXPECT_FALSE(out.launch.sandboxed);
  ASSERT_EQ(out.wave_makespans.size(), 2u);
  EXPECT_EQ(out.launch.meta_time_s, out.wave_makespans[0]);
  EXPECT_GT(out.wave_makespans[0], 0.5);
  EXPECT_LT(out.wave_makespans[1], out.wave_makespans[0]);
  // In the warm wave the straggler is the last rank to finish.
  ASSERT_EQ(out.sim.ranks.size(), 32u);
  const auto last = std::max_element(
      out.sim.ranks.begin(), out.sim.ranks.end(),
      [](const auto& a, const auto& b) { return a.finish_s < b.finish_s; });
  EXPECT_EQ(last - out.sim.ranks.begin(), 1);
  EXPECT_GT(last->finish_s, 0.5);
}

TEST(FleetLaunch, QueueingEngineSelectableThroughFleetConfig) {
  core::WorldBuilder builder;
  auto session = builder.pynamic(small_pynamic()).nfs().build();
  core::SandboxSpec spec;
  spec.image = std::make_shared<vfs::FileSystem>(session.fs());
  spec.image_mount = "/";
  spec.writable_image_overlay = true;

  FleetConfig fleet;
  fleet.cluster = session.config().cluster;
  fleet.engine = Engine::Queueing;
  const int nprocs = 128;
  const auto via_config = session.launch_fleet(spec, "", nprocs, fleet);
  const auto outcome = simulate_fleet_launch_sim(session, spec, "", nprocs,
                                                 fleet);
  // Engine::Queueing through the plain entry point IS the sim outcome's
  // launch summary.
  EXPECT_EQ(via_config.meta_time_s, outcome.launch.meta_time_s);
  EXPECT_EQ(via_config.total_time_s, outcome.launch.total_time_s);
  EXPECT_EQ(via_config.meta_ops_per_rank, outcome.launch.meta_ops_per_rank);

  // All-shared homogeneous container + fixed service: sim == formula.
  FleetConfig analytic_config = fleet;
  analytic_config.engine = Engine::Analytic;
  const auto analytic = session.launch_fleet(spec, "", nprocs, analytic_config);
  EXPECT_NEAR(via_config.meta_time_s, analytic.meta_time_s,
              analytic.meta_time_s * 1e-9);
  EXPECT_EQ(outcome.sim.server_requests,
            outcome.launch.meta_ops_per_rank *
                static_cast<std::uint64_t>(nprocs));
}

TEST(FleetLaunch, PrestagedQueueingServesSharedOpsNodeLocally) {
  core::WorldBuilder builder;
  auto session = builder.pynamic(small_pynamic()).nfs().build();
  core::SandboxSpec spec;
  spec.image = std::make_shared<vfs::FileSystem>(session.fs());
  spec.image_mount = "/";
  spec.writable_image_overlay = true;

  FleetConfig staged;
  staged.cluster = session.config().cluster;
  staged.prestaged_image = true;
  staged.engine = Engine::Queueing;
  const int nprocs = 256;
  const auto out = simulate_fleet_launch_sim(session, spec, "", nprocs, staged);
  ASSERT_TRUE(out.launch.load_succeeded);
  // Every shared op is absorbed node-locally; nothing queues at the MDS.
  EXPECT_EQ(out.sim.server_requests, 0u);
  EXPECT_EQ(out.sim.local_ops, out.launch.meta_ops_per_rank *
                                   static_cast<std::uint64_t>(nprocs));
  // Parallel node-local streams: the simulated makespan equals the
  // analytic node-local cost of one rank's stream.
  EXPECT_NEAR(out.launch.meta_time_s,
              static_cast<double>(out.launch.shared_meta_ops_per_rank) *
                  staged.cluster.local_meta_op_cost_s,
              1e-12);
}

TEST(FleetLaunch, WarmWavesAndStragglersEscapeTheFormula) {
  core::WorldBuilder builder;
  auto session = builder.pynamic(small_pynamic()).nfs().build();
  core::SandboxSpec spec;
  spec.image = std::make_shared<vfs::FileSystem>(session.fs());
  spec.image_mount = "/";
  spec.writable_image_overlay = true;

  // Cache-warm second wave: the analytic formula prices every wave the
  // same; the simulator's warm negative cache collapses the repeat launch.
  FleetConfig warm;
  warm.cluster = session.config().cluster;
  warm.engine = Engine::Queueing;
  warm.cache.enabled = true;
  warm.cache.negative_caching = true;
  warm.sim_waves = 2;
  const int nprocs = 128;
  const auto waves = simulate_fleet_launch_sim(session, spec, "", nprocs, warm);
  ASSERT_EQ(waves.wave_makespans.size(), 2u);
  EXPECT_GT(waves.wave_makespans[0], 0.0);
  EXPECT_LT(waves.wave_makespans[1], waves.wave_makespans[0] / 5.0);
  // The launch headline is the cold wave; the sim stats are the warm one.
  EXPECT_EQ(waves.launch.meta_time_s, waves.wave_makespans[0]);
  EXPECT_EQ(waves.sim.makespan_s, waves.wave_makespans[1]);

  // Straggler injection: one late rank stretches the makespan past the
  // homogeneous answer by at least its delay.
  FleetConfig late;
  late.cluster = session.config().cluster;
  late.engine = Engine::Queueing;
  late.start_delays.assign(static_cast<std::size_t>(nprocs), 0.0);
  late.start_delays[17] = 5.0;
  const auto straggler =
      simulate_fleet_launch_sim(session, spec, "", nprocs, late);
  FleetConfig prompt = late;
  prompt.start_delays.clear();
  const auto tight = simulate_fleet_launch_sim(session, spec, "", nprocs,
                                               prompt);
  EXPECT_GT(straggler.sim.makespan_s, 5.0);
  EXPECT_GT(straggler.sim.makespan_s, tight.sim.makespan_s);
  ASSERT_EQ(straggler.sim.ranks.size(), static_cast<std::size_t>(nprocs));
  const auto last = std::max_element(
      straggler.sim.ranks.begin(), straggler.sim.ranks.end(),
      [](const auto& a, const auto& b) { return a.finish_s < b.finish_s; });
  EXPECT_EQ(last - straggler.sim.ranks.begin(), 17);
}

TEST(FleetLaunch, NoOpRankSetupEqualsHookFreeFleet) {
  // A fleet without a rank_setup hook is measured as one class from rank
  // 0's sandbox, with no class keys; a hook that changes nothing keys
  // every rank's sandbox and must fold them into the same single class.
  // Every field must agree, on both engines.
  core::WorldBuilder builder;
  auto session = builder.pynamic(small_pynamic()).nfs().build();
  core::SandboxSpec spec;
  spec.image = std::make_shared<vfs::FileSystem>(session.fs());
  spec.image_mount = "/";
  spec.writable_image_overlay = true;

  for (const int nprocs : {1, 7, 64}) {
    for (const bool prestaged : {false, true}) {
      for (const bool spindle : {false, true}) {
        const std::string label = "n=" + std::to_string(nprocs) +
                                  " prestaged=" + std::to_string(prestaged) +
                                  " spindle=" + std::to_string(spindle);
        FleetConfig hook_free;
        hook_free.cluster = session.config().cluster;
        hook_free.cluster.spindle_broadcast = spindle;
        hook_free.prestaged_image = prestaged;
        FleetConfig no_op = hook_free;
        no_op.rank_setup = [](core::Session&, int) {};

        const auto a = session.launch_fleet(spec, "", nprocs, hook_free);
        const auto b = session.launch_fleet(spec, "", nprocs, no_op);
        ASSERT_TRUE(a.load_succeeded) << label;
        EXPECT_EQ(a.nprocs, b.nprocs) << label;
        EXPECT_EQ(a.load_succeeded, b.load_succeeded) << label;
        EXPECT_EQ(a.meta_ops_per_rank, b.meta_ops_per_rank) << label;
        EXPECT_EQ(a.bytes_per_rank, b.bytes_per_rank) << label;
        EXPECT_EQ(a.data_time_s, b.data_time_s) << label;
        EXPECT_EQ(a.meta_time_s, b.meta_time_s) << label;
        EXPECT_EQ(a.total_time_s, b.total_time_s) << label;
        EXPECT_EQ(a.shared_meta_ops_per_rank, b.shared_meta_ops_per_rank)
            << label;
        EXPECT_EQ(a.shared_bytes_per_rank, b.shared_bytes_per_rank) << label;
        EXPECT_EQ(a.overlay_meta_ops_per_rank, b.overlay_meta_ops_per_rank)
            << label;
        EXPECT_EQ(a.overlay_bytes_per_rank, b.overlay_bytes_per_rank)
            << label;
        EXPECT_EQ(a.fleet_meta_ops, b.fleet_meta_ops) << label;
        EXPECT_EQ(a.fleet_bytes, b.fleet_bytes) << label;
        EXPECT_EQ(a.fleet_shared_meta_ops, b.fleet_shared_meta_ops) << label;
        EXPECT_EQ(a.fleet_overlay_meta_ops, b.fleet_overlay_meta_ops)
            << label;
        EXPECT_EQ(a.ranks_measured, b.ranks_measured) << label;
        EXPECT_EQ(a.classes_measured, b.classes_measured) << label;
        EXPECT_EQ(a.class_sizes, b.class_sizes) << label;
        EXPECT_EQ(a.sandboxed, b.sandboxed) << label;

        for (FleetConfig* config : {&hook_free, &no_op}) {
          config->engine = Engine::Queueing;
          config->cache.enabled = true;
          config->sim_waves = 2;
        }
        const auto qa =
            simulate_fleet_launch_sim(session, spec, "", nprocs, hook_free);
        const auto qb =
            simulate_fleet_launch_sim(session, spec, "", nprocs, no_op);
        EXPECT_EQ(qa.wave_makespans, qb.wave_makespans) << label;
        EXPECT_EQ(qa.sim.server_requests, qb.sim.server_requests) << label;
        EXPECT_EQ(qa.sim.latency_p99_s, qb.sim.latency_p99_s) << label;
        EXPECT_EQ(qa.sim.cache_hits, qb.sim.cache_hits) << label;
        EXPECT_EQ(qa.sim.local_ops, qb.sim.local_ops) << label;
      }
    }
  }
}

}  // namespace
}  // namespace depchaos::launch
