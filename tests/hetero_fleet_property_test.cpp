// Fingerprint-clustered heterogeneous fleet measurement, end to end.
//
// Two layers under test:
//  * vfs::FileSystem::overlay_fingerprint / overlay_delta_equal — the
//    equivalence-class key. Sibling forks with byte-identical deltas must
//    hash equal; ANY structural divergence (content, names, env is keyed
//    separately) must split them; the memo must refresh across mutation,
//    fork, and collapse (the delta-defining boundaries).
//  * launch::simulate_fleet_launch clustering — measuring ONE
//    representative per (fingerprint, environment) class and replicating
//    per-class results must be byte-identical to the per-rank reference
//    model (reference/per_rank_fleet.hpp) on every counter, split, fleet
//    total, and modelled time, for randomized shuffled class layouts.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "depchaos/core/world.hpp"
#include "depchaos/launch/launch.hpp"
#include "depchaos/support/rng.hpp"
#include "depchaos/vfs/vfs.hpp"
#include "depchaos/workload/pynamic.hpp"
#include "depchaos/workload/scenarios.hpp"
#include "reference/per_rank_fleet.hpp"

namespace depchaos {
namespace {

// ------------------------------------------------------- fingerprint layer

vfs::FileSystem seed_world() {
  vfs::FileSystem fs;
  fs.mkdir_p("/opt/lib");
  fs.write_file("/opt/lib/libbase.so", std::string("base-bytes"));
  fs.write_file("/etc/ld.so.conf", std::string("/opt/lib"));
  return fs;
}

TEST(OverlayFingerprint, SiblingForksWithIdenticalDeltasHashEqual) {
  vfs::FileSystem parent = seed_world();
  vfs::FileSystem a = parent.fork();
  vfs::FileSystem b = parent.fork();
  for (vfs::FileSystem* fs : {&a, &b}) {
    fs->mkdir_p("/work/out");
    fs->write_file("/work/out/result.so", std::string("same-delta"));
    fs->symlink("/work/out/result.so", "/work/latest");
  }
  EXPECT_EQ(a.overlay_fingerprint(), b.overlay_fingerprint());
  EXPECT_TRUE(a.overlay_delta_equal(b));
  EXPECT_TRUE(b.overlay_delta_equal(a));
}

TEST(OverlayFingerprint, ContentDivergenceSplitsTheClass) {
  vfs::FileSystem parent = seed_world();
  vfs::FileSystem a = parent.fork();
  vfs::FileSystem b = parent.fork();
  a.write_file("/work/result.so", std::string("alpha"));
  b.write_file("/work/result.so", std::string("bravo"));
  EXPECT_NE(a.overlay_fingerprint(), b.overlay_fingerprint());
  EXPECT_FALSE(a.overlay_delta_equal(b));
}

TEST(OverlayFingerprint, NameDivergenceSplitsTheClass) {
  vfs::FileSystem parent = seed_world();
  vfs::FileSystem a = parent.fork();
  vfs::FileSystem b = parent.fork();
  a.write_file("/work/one.so", std::string("payload"));
  b.write_file("/work/two.so", std::string("payload"));
  EXPECT_NE(a.overlay_fingerprint(), b.overlay_fingerprint());
  EXPECT_FALSE(a.overlay_delta_equal(b));
}

TEST(OverlayFingerprint, MemoRefreshesAcrossMutationForkAndCollapse) {
  vfs::FileSystem fs = seed_world();
  const std::string empty_delta = fs.overlay_fingerprint();

  // Structural mutation must show up even though the value was memoized.
  fs.write_file("/opt/lib/libnew.so", std::string("new"));
  const std::string after_write = fs.overlay_fingerprint();
  EXPECT_NE(after_write, empty_delta);

  // fork() freezes the parent's overlay: the delta boundary moved, so the
  // parent's (now empty) delta must not reuse the pre-fork hash.
  vfs::FileSystem child = fs.fork();
  const std::string after_fork = fs.overlay_fingerprint();
  EXPECT_NE(after_fork, after_write);
  // A pristine child shares the parent's base and an empty delta.
  EXPECT_EQ(child.overlay_fingerprint(), after_fork);
  EXPECT_TRUE(child.overlay_delta_equal(fs));

  // collapse() makes the whole world the delta; the memo must refresh even
  // though observable content is unchanged.
  child.collapse();
  EXPECT_NE(child.overlay_fingerprint(), after_fork);
  // A hash miss can only SPLIT a class (extra measurement), never merge
  // one: content-equal views are still structurally distinguishable.
  EXPECT_FALSE(child.overlay_delta_equal(fs));
}

TEST(OverlayFingerprint, RepeatedReadsAreStable) {
  vfs::FileSystem fs = seed_world();
  fs.write_file("/work/x", std::string("x"));
  const std::string first = fs.overlay_fingerprint();
  EXPECT_EQ(fs.overlay_fingerprint(), first);
  // Pure reads must not disturb the memo.
  (void)fs.peek("/work/x");
  EXPECT_EQ(fs.overlay_fingerprint(), first);
}

// ----------------------------------------------- clustered fleet property

workload::PynamicConfig small_pynamic() {
  workload::PynamicConfig config;
  config.num_modules = 48;
  config.exe_extra_bytes = 1u << 20;
  return config;
}

/// Mixed fleet with the class layout SHUFFLED along the rank axis: rank r
/// runs program class perm[r] % classes, so representatives are discovered
/// in arbitrary order and replication must land back on the right ranks.
TEST(HeteroFleetProperty, ClusteredEqualsPerRankByteForByte) {
  for (const std::uint64_t seed : {3ull, 77ull, 4096ull}) {
    core::WorldBuilder builder;
    auto session = builder.pynamic(small_pynamic()).nfs().build();
    core::SandboxSpec spec;
    spec.image = std::make_shared<vfs::FileSystem>(session.fs());
    spec.image_mount = "/";
    spec.writable_image_overlay = true;

    support::Rng rng(seed);
    const int nprocs = 12;
    const int classes = 1 + static_cast<int>(rng.below(4));  // 1..4
    std::vector<int> perm(static_cast<std::size_t>(nprocs));
    std::iota(perm.begin(), perm.end(), 0);
    for (std::size_t i = perm.size(); i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.below(i)]);
    }

    const auto scenario =
        workload::make_container_launch_scenario(small_pynamic());
    const workload::PynamicApp& app = scenario.app;
    const auto setup = [&perm, &app, classes](core::Session& sandbox,
                                              int rank) {
      workload::apply_mpmd_rank(sandbox.fs(), sandbox.env(), app,
                                perm[static_cast<std::size_t>(rank)], classes);
    };

    launch::FleetConfig clustered;
    clustered.cluster = session.config().cluster;
    clustered.rank_setup = setup;

    const auto fast = session.launch_fleet(spec, "", nprocs, clustered);
    const auto slow =
        reference::per_rank_fleet_launch(session, spec, "", nprocs, clustered);

    // Class accounting: one loader replay per distinct class, sizes tile
    // the fleet, and the reference measured every rank.
    const int distinct = std::min(classes, nprocs);
    EXPECT_EQ(fast.classes_measured, distinct) << "seed " << seed;
    EXPECT_EQ(fast.ranks_measured, distinct) << "seed " << seed;
    int covered = 0;
    for (const int size : fast.class_sizes) covered += size;
    EXPECT_EQ(covered, nprocs) << "seed " << seed;
    EXPECT_EQ(slow.ranks_measured, nprocs) << "seed " << seed;
    EXPECT_EQ(slow.classes_measured, 0) << "seed " << seed;

    // Byte identity: measuring one representative per class and
    // replicating must equal measuring every rank, on every field.
    EXPECT_EQ(fast.load_succeeded, slow.load_succeeded) << "seed " << seed;
    EXPECT_EQ(fast.meta_ops_per_rank, slow.meta_ops_per_rank)
        << "seed " << seed;
    EXPECT_EQ(fast.bytes_per_rank, slow.bytes_per_rank) << "seed " << seed;
    EXPECT_EQ(fast.shared_meta_ops_per_rank, slow.shared_meta_ops_per_rank)
        << "seed " << seed;
    EXPECT_EQ(fast.overlay_meta_ops_per_rank, slow.overlay_meta_ops_per_rank)
        << "seed " << seed;
    EXPECT_EQ(fast.shared_bytes_per_rank, slow.shared_bytes_per_rank)
        << "seed " << seed;
    EXPECT_EQ(fast.overlay_bytes_per_rank, slow.overlay_bytes_per_rank)
        << "seed " << seed;
    EXPECT_EQ(fast.fleet_meta_ops, slow.fleet_meta_ops) << "seed " << seed;
    EXPECT_EQ(fast.fleet_bytes, slow.fleet_bytes) << "seed " << seed;
    EXPECT_EQ(fast.fleet_shared_meta_ops, slow.fleet_shared_meta_ops)
        << "seed " << seed;
    EXPECT_EQ(fast.fleet_overlay_meta_ops, slow.fleet_overlay_meta_ops)
        << "seed " << seed;
    EXPECT_EQ(fast.data_time_s, slow.data_time_s) << "seed " << seed;
    EXPECT_EQ(fast.meta_time_s, slow.meta_time_s) << "seed " << seed;
    EXPECT_EQ(fast.total_time_s, slow.total_time_s) << "seed " << seed;
  }
}

TEST(HeteroFleetProperty, ClassStreamsReplayLikePerRankStreams) {
  // The queueing engine replays each rank's class stream in that rank's
  // slot. Against per-rank streams, with the class layout shuffled along
  // the rank axis, a straggler, warm client caches across two waves and
  // (second pass) a pre-staged image, every simulated statistic and every
  // rank's finish time must agree exactly.
  core::WorldBuilder builder;
  auto session = builder.pynamic(small_pynamic()).nfs().build();
  core::SandboxSpec spec;
  spec.image = std::make_shared<vfs::FileSystem>(session.fs());
  spec.image_mount = "/";
  spec.writable_image_overlay = true;

  const int nprocs = 10;
  const int classes = 3;
  std::vector<int> perm(static_cast<std::size_t>(nprocs));
  std::iota(perm.begin(), perm.end(), 0);
  support::Rng rng(11);
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.below(i)]);
  }
  const auto scenario =
      workload::make_container_launch_scenario(small_pynamic());
  const workload::PynamicApp& app = scenario.app;

  for (const bool prestaged : {false, true}) {
    launch::FleetConfig fleet;
    fleet.cluster = session.config().cluster;
    fleet.rank_setup = [&perm, &app](core::Session& sandbox, int rank) {
      workload::apply_mpmd_rank(sandbox.fs(), sandbox.env(), app,
                                perm[static_cast<std::size_t>(rank)], classes);
    };
    fleet.engine = launch::Engine::Queueing;
    fleet.prestaged_image = prestaged;
    fleet.cache.enabled = true;
    fleet.sim_waves = 2;
    fleet.start_delays.assign(static_cast<std::size_t>(nprocs), 0.0);
    fleet.start_delays[7] = 0.01;

    const auto fast =
        launch::simulate_fleet_launch_sim(session, spec, "", nprocs, fleet);
    const auto slow = reference::per_rank_fleet_launch_sim(session, spec, "",
                                                           nprocs, fleet);
    ASSERT_TRUE(fast.launch.load_succeeded);
    EXPECT_EQ(fast.launch.classes_measured, classes);
    EXPECT_EQ(fast.launch.fleet_meta_ops, slow.launch.fleet_meta_ops);
    EXPECT_EQ(fast.launch.fleet_shared_meta_ops,
              slow.launch.fleet_shared_meta_ops);
    EXPECT_EQ(fast.launch.data_time_s, slow.launch.data_time_s);
    EXPECT_EQ(fast.launch.meta_time_s, slow.launch.meta_time_s);
    EXPECT_EQ(fast.launch.total_time_s, slow.launch.total_time_s);
    EXPECT_EQ(fast.wave_makespans, slow.wave_makespans);
    EXPECT_EQ(fast.sim.server_requests, slow.sim.server_requests);
    EXPECT_EQ(fast.sim.batches, slow.sim.batches);
    EXPECT_EQ(fast.sim.latency_p99_s, slow.sim.latency_p99_s);
    EXPECT_EQ(fast.sim.cache_hits, slow.sim.cache_hits);
    EXPECT_EQ(fast.sim.local_ops, slow.sim.local_ops);
    ASSERT_EQ(fast.sim.ranks.size(), slow.sim.ranks.size());
    for (std::size_t r = 0; r < fast.sim.ranks.size(); ++r) {
      EXPECT_EQ(fast.sim.ranks[r].finish_s, slow.sim.ranks[r].finish_s)
          << "rank " << r << (prestaged ? " prestaged" : "");
      EXPECT_EQ(fast.sim.ranks[r].server_ops, slow.sim.ranks[r].server_ops)
          << "rank " << r << (prestaged ? " prestaged" : "");
    }
    if (prestaged) {
      EXPECT_GT(fast.sim.local_ops, 0u);
    }
  }
}

TEST(HeteroFleetProperty, EnvironmentOnlyDivergenceStillSplitsClasses) {
  // Two ranks with byte-identical overlays but different loader
  // environments resolve differently — the class key must include the
  // environment, not just the filesystem fingerprint.
  core::WorldBuilder builder;
  auto session = builder.pynamic(small_pynamic()).nfs().build();
  core::SandboxSpec spec;
  spec.image = std::make_shared<vfs::FileSystem>(session.fs());
  spec.image_mount = "/";
  spec.writable_image_overlay = true;

  launch::FleetConfig fleet;
  fleet.cluster = session.config().cluster;
  fleet.rank_setup = [](core::Session& sandbox, int rank) {
    if (rank % 2 == 1) {
      sandbox.env().ld_library_path.insert(
          sandbox.env().ld_library_path.begin(), "/opt/extra/lib");
    }
  };
  const auto result = session.launch_fleet(spec, "", 6, fleet);
  ASSERT_TRUE(result.load_succeeded);
  EXPECT_EQ(result.classes_measured, 2);
  ASSERT_EQ(result.class_sizes.size(), 2u);
  EXPECT_EQ(result.class_sizes[0] + result.class_sizes[1], 6);
}

TEST(HeteroFleetProperty, MpmdClassLayoutIsDeterministic) {
  // Two identically-configured fleets measure identical class structure:
  // apply_mpmd_rank is a pure function of (app, rank, classes).
  core::WorldBuilder builder;
  auto session = builder.pynamic(small_pynamic()).nfs().build();
  core::SandboxSpec spec;
  spec.image = std::make_shared<vfs::FileSystem>(session.fs());
  spec.image_mount = "/";
  spec.writable_image_overlay = true;

  const auto scenario =
      workload::make_container_launch_scenario(small_pynamic());
  const workload::PynamicApp& app = scenario.app;
  launch::FleetConfig fleet;
  fleet.cluster = session.config().cluster;
  fleet.rank_setup = [&app](core::Session& sandbox, int rank) {
    workload::apply_mpmd_rank(sandbox.fs(), sandbox.env(), app, rank, 3);
  };
  const auto first = session.launch_fleet(spec, "", 9, fleet);
  const auto second = session.launch_fleet(spec, "", 9, fleet);
  ASSERT_TRUE(first.load_succeeded);
  EXPECT_EQ(first.classes_measured, 3);
  EXPECT_EQ(first.class_sizes, second.class_sizes);
  EXPECT_EQ(first.meta_ops_per_rank, second.meta_ops_per_rank);
  EXPECT_EQ(first.fleet_meta_ops, second.fleet_meta_ops);
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(first.class_sizes[static_cast<std::size_t>(c)], 3);
    EXPECT_EQ(workload::mpmd_class_of(c + 6, 3), c);
  }
}

}  // namespace
}  // namespace depchaos
