// Class-clustered heterogeneous fleet measurement, end to end.
//
// Two layers under test:
//  * vfs::FileSystem::overlay_key — the exact equivalence-class key.
//    Sibling forks with byte-identical deltas must key equal; ANY
//    divergence (content, names, mount latency; env is keyed separately)
//    must split them; fork and collapse move the delta boundary; fresh
//    per-view tmpfs mounts key by content, shared images by identity.
//  * launch::simulate_fleet_launch clustering — measuring ONE
//    representative per (overlay key, environment) class and replicating
//    per-class results must be byte-identical to the per-rank reference
//    model (reference/per_rank_fleet.hpp) on every counter, split, fleet
//    total, and modelled time, for randomized shuffled class layouts, with
//    and without masked and scratch mounts.

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

// ------------------------------------------------------------ key layer

vfs::FileSystem seed_world() {
  vfs::FileSystem fs;
  fs.mkdir_p("/opt/lib");
  fs.write_file("/opt/lib/libbase.so", std::string("base-bytes"));
  fs.write_file("/etc/ld.so.conf", std::string("/opt/lib"));
  return fs;
}

TEST(OverlayKey, SiblingForksWithIdenticalDeltasKeyEqual) {
  vfs::FileSystem parent = seed_world();
  vfs::FileSystem a = parent.fork();
  vfs::FileSystem b = parent.fork();
  for (vfs::FileSystem* fs : {&a, &b}) {
    fs->mkdir_p("/work/out");
    fs->write_file("/work/out/result.so", std::string("same-delta"));
    fs->symlink("/work/out/result.so", "/work/latest");
  }
  EXPECT_EQ(a.overlay_key(), b.overlay_key());
}

TEST(OverlayKey, ContentDivergenceSplitsTheClass) {
  vfs::FileSystem parent = seed_world();
  vfs::FileSystem a = parent.fork();
  vfs::FileSystem b = parent.fork();
  a.write_file("/work/result.so", std::string("alpha"));
  b.write_file("/work/result.so", std::string("bravo"));
  EXPECT_NE(a.overlay_key(), b.overlay_key());
}

TEST(OverlayKey, NameDivergenceSplitsTheClass) {
  vfs::FileSystem parent = seed_world();
  vfs::FileSystem a = parent.fork();
  vfs::FileSystem b = parent.fork();
  a.write_file("/work/one.so", std::string("payload"));
  b.write_file("/work/two.so", std::string("payload"));
  EXPECT_NE(a.overlay_key(), b.overlay_key());
}

TEST(OverlayKey, KeyFollowsMutationForkAndCollapse) {
  vfs::FileSystem fs = seed_world();
  const std::string empty_delta = fs.overlay_key();

  fs.write_file("/opt/lib/libnew.so", std::string("new"));
  const std::string after_write = fs.overlay_key();
  EXPECT_NE(after_write, empty_delta);

  // fork() freezes the parent's overlay: the delta boundary moved, so the
  // parent's (now empty) delta keys differently.
  vfs::FileSystem child = fs.fork();
  const std::string after_fork = fs.overlay_key();
  EXPECT_NE(after_fork, after_write);
  // A pristine child shares the parent's base and an empty delta.
  EXPECT_EQ(child.overlay_key(), after_fork);

  // collapse() makes the whole world the delta: the key changes although
  // observable content does not.
  child.collapse();
  EXPECT_NE(child.overlay_key(), after_fork);
}

TEST(OverlayKey, RepeatedReadsAreStable) {
  vfs::FileSystem fs = seed_world();
  fs.write_file("/work/x", std::string("x"));
  const std::string first = fs.overlay_key();
  EXPECT_EQ(fs.overlay_key(), first);
  (void)fs.peek("/work/x");
  EXPECT_EQ(fs.overlay_key(), first);
}

TEST(OverlayKey, MountLatencyChangesTheKey) {
  vfs::FileSystem parent = seed_world();
  auto image = std::make_shared<vfs::FileSystem>(seed_world());
  vfs::FileSystem a = parent.fork();
  vfs::FileSystem b = parent.fork();
  b.mount_image("/app", image);
  b.set_mount_latency("/app", vfs::MountLatency::NodeLocal);
  a.mount_image("/app", image);
  const std::string before = a.overlay_key();
  a.set_mount_latency("/app", vfs::MountLatency::NodeLocal);
  EXPECT_NE(a.overlay_key(), before);
  EXPECT_EQ(a.overlay_key(), b.overlay_key());
}

TEST(OverlayKey, FreshTmpfsKeysByContentImagesByIdentity) {
  vfs::FileSystem parent = seed_world();
  vfs::FileSystem a = parent.fork();
  vfs::FileSystem b = parent.fork();
  // mount_tmpfs makes a fresh tmpfs for each view: equal content, one key.
  for (vfs::FileSystem* fs : {&a, &b}) {
    fs->mount_tmpfs("/usr/lib/masked", /*read_only=*/true);
    fs->mount_tmpfs("/scratch");
    fs->write_file("/scratch/out", std::string("same"));
  }
  EXPECT_EQ(a.overlay_key(), b.overlay_key());
  b.write_file("/scratch/out", std::string("diff"));
  EXPECT_NE(a.overlay_key(), b.overlay_key());

  // Images are shared substrate: two equal copies are still two images.
  vfs::FileSystem c = parent.fork();
  vfs::FileSystem d = parent.fork();
  c.mount_image("/app", std::make_shared<vfs::FileSystem>(seed_world()));
  d.mount_image("/app", std::make_shared<vfs::FileSystem>(seed_world()));
  EXPECT_NE(c.overlay_key(), d.overlay_key());
}

// ----------------------------------------------- clustered fleet property

workload::PynamicConfig small_pynamic() {
  workload::PynamicConfig config;
  config.num_modules = 48;
  config.exe_extra_bytes = 1u << 20;
  return config;
}

/// The sandbox shapes every clustering property runs under: the rootfs
/// image behind a per-rank writable overlay, and the same plus a masked
/// host dir and a scratch dir (fresh tmpfs mounts in every rank's sandbox).
std::vector<core::SandboxSpec> fleet_specs(core::Session& session) {
  core::SandboxSpec spec;
  spec.image = std::make_shared<vfs::FileSystem>(session.fs());
  spec.image_mount = "/";
  spec.writable_image_overlay = true;
  core::SandboxSpec masked = spec;
  masked.mask = {"/usr/lib/masked"};
  masked.scratch = {"/tmp/scratch"};
  return {spec, masked};
}

/// Mixed fleet with the class layout SHUFFLED along the rank axis: rank r
/// runs program class perm[r] % classes, so representatives are discovered
/// in arbitrary order and replication must land back on the right ranks.
TEST(HeteroFleetProperty, ClusteredEqualsPerRankByteForByte) {
  for (const std::uint64_t seed : {3ull, 77ull, 4096ull}) {
    core::WorldBuilder builder;
    auto session = builder.pynamic(small_pynamic()).nfs().build();

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

    for (const core::SandboxSpec& spec : fleet_specs(session)) {
      const std::string label = "seed " + std::to_string(seed) +
                                (spec.mask.empty() ? "" : " masked");
      const auto fast = session.launch_fleet(spec, "", nprocs, clustered);
      const auto slow = reference::per_rank_fleet_launch(session, spec, "",
                                                         nprocs, clustered);

      // Class accounting: one loader replay per distinct class, sizes tile
      // the fleet, and the reference measured every rank.
      const int distinct = std::min(classes, nprocs);
      EXPECT_EQ(fast.classes_measured, distinct) << label;
      EXPECT_EQ(fast.ranks_measured, distinct) << label;
      int covered = 0;
      for (const int size : fast.class_sizes) covered += size;
      EXPECT_EQ(covered, nprocs) << label;
      EXPECT_EQ(slow.ranks_measured, nprocs) << label;
      EXPECT_EQ(slow.classes_measured, 0) << label;

      // Byte identity: measuring one representative per class and
      // replicating must equal measuring every rank, on every field.
      EXPECT_EQ(fast.load_succeeded, slow.load_succeeded) << label;
      EXPECT_EQ(fast.meta_ops_per_rank, slow.meta_ops_per_rank) << label;
      EXPECT_EQ(fast.bytes_per_rank, slow.bytes_per_rank) << label;
      EXPECT_EQ(fast.shared_meta_ops_per_rank, slow.shared_meta_ops_per_rank)
          << label;
      EXPECT_EQ(fast.overlay_meta_ops_per_rank, slow.overlay_meta_ops_per_rank)
          << label;
      EXPECT_EQ(fast.shared_bytes_per_rank, slow.shared_bytes_per_rank)
          << label;
      EXPECT_EQ(fast.overlay_bytes_per_rank, slow.overlay_bytes_per_rank)
          << label;
      EXPECT_EQ(fast.fleet_meta_ops, slow.fleet_meta_ops) << label;
      EXPECT_EQ(fast.fleet_bytes, slow.fleet_bytes) << label;
      EXPECT_EQ(fast.fleet_shared_meta_ops, slow.fleet_shared_meta_ops)
          << label;
      EXPECT_EQ(fast.fleet_overlay_meta_ops, slow.fleet_overlay_meta_ops)
          << label;
      EXPECT_EQ(fast.data_time_s, slow.data_time_s) << label;
      EXPECT_EQ(fast.meta_time_s, slow.meta_time_s) << label;
      EXPECT_EQ(fast.total_time_s, slow.total_time_s) << label;
    }
  }
}

TEST(HeteroFleetProperty, ClassStreamsReplayLikePerRankStreams) {
  // The queueing engine replays each rank's class stream in that rank's
  // slot. Against per-rank streams, with the class layout shuffled along
  // the rank axis, a straggler, warm client caches across two waves and
  // (second pass) a pre-staged image, with and without masked and scratch
  // mounts, every simulated statistic and every rank's finish time must
  // agree exactly.
  core::WorldBuilder builder;
  auto session = builder.pynamic(small_pynamic()).nfs().build();

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

  for (const core::SandboxSpec& spec : fleet_specs(session)) {
    for (const bool prestaged : {false, true}) {
      const std::string label =
          std::string(spec.mask.empty() ? "plain" : "masked") +
          (prestaged ? " prestaged" : "");
      launch::FleetConfig fleet;
      fleet.cluster = session.config().cluster;
      fleet.rank_setup = [&perm, &app](core::Session& sandbox, int rank) {
        workload::apply_mpmd_rank(sandbox.fs(), sandbox.env(), app,
                                  perm[static_cast<std::size_t>(rank)],
                                  classes);
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
      ASSERT_TRUE(fast.launch.load_succeeded) << label;
      EXPECT_EQ(fast.launch.classes_measured, classes) << label;
      EXPECT_EQ(fast.launch.fleet_meta_ops, slow.launch.fleet_meta_ops)
          << label;
      EXPECT_EQ(fast.launch.fleet_shared_meta_ops,
                slow.launch.fleet_shared_meta_ops)
          << label;
      EXPECT_EQ(fast.launch.data_time_s, slow.launch.data_time_s) << label;
      EXPECT_EQ(fast.launch.meta_time_s, slow.launch.meta_time_s) << label;
      EXPECT_EQ(fast.launch.total_time_s, slow.launch.total_time_s) << label;
      EXPECT_EQ(fast.wave_makespans, slow.wave_makespans) << label;
      EXPECT_EQ(fast.sim.server_requests, slow.sim.server_requests) << label;
      EXPECT_EQ(fast.sim.batches, slow.sim.batches) << label;
      EXPECT_EQ(fast.sim.latency_p99_s, slow.sim.latency_p99_s) << label;
      EXPECT_EQ(fast.sim.cache_hits, slow.sim.cache_hits) << label;
      EXPECT_EQ(fast.sim.local_ops, slow.sim.local_ops) << label;
      ASSERT_EQ(fast.sim.ranks.size(), slow.sim.ranks.size());
      for (std::size_t r = 0; r < fast.sim.ranks.size(); ++r) {
        EXPECT_EQ(fast.sim.ranks[r].finish_s, slow.sim.ranks[r].finish_s)
            << "rank " << r << " " << label;
        EXPECT_EQ(fast.sim.ranks[r].server_ops, slow.sim.ranks[r].server_ops)
            << "rank " << r << " " << label;
      }
      if (prestaged) {
        EXPECT_GT(fast.sim.local_ops, 0u) << label;
      }
    }
  }
}

TEST(HeteroFleetProperty, SweepMeasuresOnceForTheLargestCount) {
  // One sweep over {3, 8, 32} ranks runs the class loop once, for 32
  // ranks; each smaller count keeps the classes that have a rank below
  // it, with only those ranks. The three classes first appear at ranks 0,
  // 3 and 4, so the 3-rank entry is one class and the 8-rank entry three,
  // in first-appearance order. Every entry must equal the per-rank
  // reference at its own count, on both engines (the queueing pass adds a
  // straggler and warm-cache waves).
  core::WorldBuilder builder;
  auto session = builder.pynamic(small_pynamic()).nfs().build();
  const auto scenario =
      workload::make_container_launch_scenario(small_pynamic());
  const workload::PynamicApp& app = scenario.app;
  const std::vector<int> counts = {3, 8, 32};
  const std::vector<std::vector<int>> sizes = {{3}, {3, 3, 2}, {3, 15, 14}};
  int hook_calls = 0;
  const auto setup = [&app, &hook_calls](core::Session& sandbox, int rank) {
    ++hook_calls;
    const int cls = rank < 3 ? 0 : (rank % 2 == 0 ? 1 : 2);
    workload::apply_mpmd_rank(sandbox.fs(), sandbox.env(), app, cls, 3);
  };

  for (const core::SandboxSpec& spec : fleet_specs(session)) {
    for (const launch::Engine engine :
         {launch::Engine::Analytic, launch::Engine::Queueing}) {
      const std::string label =
          std::string(spec.mask.empty() ? "plain" : "masked") +
          (engine == launch::Engine::Queueing ? " queueing" : " analytic");
      launch::FleetConfig fleet;
      fleet.cluster = session.config().cluster;
      fleet.rank_setup = setup;
      fleet.engine = engine;
      if (engine == launch::Engine::Queueing) {
        fleet.cache.enabled = true;
        fleet.sim_waves = 2;
        fleet.start_delays.assign(32, 0.0);
        fleet.start_delays[5] = 0.01;
      }
      hook_calls = 0;
      const auto swept = launch::sweep(session, spec, "", counts, fleet);
      EXPECT_EQ(hook_calls, 32) << label;
      ASSERT_EQ(swept.size(), counts.size()) << label;

      for (std::size_t i = 0; i < counts.size(); ++i) {
        const std::string at = label + " n=" + std::to_string(counts[i]);
        const launch::LaunchResult& fast = swept[i].launch;
        const launch::SimOutcome slow_sim =
            engine == launch::Engine::Queueing
                ? reference::per_rank_fleet_launch_sim(session, spec, "",
                                                       counts[i], fleet)
                : launch::SimOutcome{reference::per_rank_fleet_launch(
                                         session, spec, "", counts[i], fleet),
                                     {},
                                     {}};
        const launch::LaunchResult& slow = slow_sim.launch;
        ASSERT_TRUE(fast.load_succeeded) << at;
        EXPECT_EQ(fast.nprocs, counts[i]) << at;
        EXPECT_EQ(fast.class_sizes, sizes[i]) << at;
        EXPECT_EQ(fast.classes_measured,
                  static_cast<int>(sizes[i].size()))
            << at;
        EXPECT_EQ(fast.ranks_measured, fast.classes_measured) << at;
        EXPECT_EQ(fast.sandboxed, slow.sandboxed) << at;
        EXPECT_EQ(fast.load_succeeded, slow.load_succeeded) << at;
        EXPECT_EQ(fast.meta_ops_per_rank, slow.meta_ops_per_rank) << at;
        EXPECT_EQ(fast.bytes_per_rank, slow.bytes_per_rank) << at;
        EXPECT_EQ(fast.shared_meta_ops_per_rank, slow.shared_meta_ops_per_rank)
            << at;
        EXPECT_EQ(fast.overlay_meta_ops_per_rank,
                  slow.overlay_meta_ops_per_rank)
            << at;
        EXPECT_EQ(fast.shared_bytes_per_rank, slow.shared_bytes_per_rank)
            << at;
        EXPECT_EQ(fast.overlay_bytes_per_rank, slow.overlay_bytes_per_rank)
            << at;
        EXPECT_EQ(fast.fleet_meta_ops, slow.fleet_meta_ops) << at;
        EXPECT_EQ(fast.fleet_bytes, slow.fleet_bytes) << at;
        EXPECT_EQ(fast.fleet_shared_meta_ops, slow.fleet_shared_meta_ops)
            << at;
        EXPECT_EQ(fast.fleet_overlay_meta_ops, slow.fleet_overlay_meta_ops)
            << at;
        EXPECT_EQ(fast.data_time_s, slow.data_time_s) << at;
        EXPECT_EQ(fast.meta_time_s, slow.meta_time_s) << at;
        EXPECT_EQ(fast.total_time_s, slow.total_time_s) << at;
        EXPECT_EQ(swept[i].wave_makespans, slow_sim.wave_makespans) << at;
        EXPECT_EQ(swept[i].sim.server_requests, slow_sim.sim.server_requests)
            << at;
        EXPECT_EQ(swept[i].sim.batches, slow_sim.sim.batches) << at;
        EXPECT_EQ(swept[i].sim.latency_p99_s, slow_sim.sim.latency_p99_s)
            << at;
        EXPECT_EQ(swept[i].sim.cache_hits, slow_sim.sim.cache_hits) << at;
        ASSERT_EQ(swept[i].sim.ranks.size(), slow_sim.sim.ranks.size()) << at;
        for (std::size_t r = 0; r < slow_sim.sim.ranks.size(); ++r) {
          EXPECT_EQ(swept[i].sim.ranks[r].finish_s,
                    slow_sim.sim.ranks[r].finish_s)
              << "rank " << r << " " << at;
        }
      }
    }
  }
}

TEST(HeteroFleetProperty, EnvironmentOnlyDivergenceStillSplitsClasses) {
  // Two ranks with byte-identical overlays but different loader
  // environments resolve differently — the class key must include the
  // environment, not just the overlay key.
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
