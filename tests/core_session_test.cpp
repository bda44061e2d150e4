#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "depchaos/core/world.hpp"
#include "depchaos/elf/patcher.hpp"
#include "depchaos/svc/session_pool.hpp"

namespace depchaos::core {
namespace {

using elf::make_executable;
using elf::make_library;

// Two LoadReports are "byte-identical" when every field a consumer can
// observe matches. (No operator== on the report structs: spell it out.)
void expect_reports_identical(const loader::LoadReport& a,
                              const loader::LoadReport& b) {
  EXPECT_EQ(a.success, b.success);
  ASSERT_EQ(a.load_order.size(), b.load_order.size());
  for (std::size_t i = 0; i < a.load_order.size(); ++i) {
    EXPECT_EQ(a.load_order[i].name, b.load_order[i].name);
    EXPECT_EQ(a.load_order[i].path, b.load_order[i].path);
    EXPECT_EQ(a.load_order[i].real_path, b.load_order[i].real_path);
    EXPECT_EQ(a.load_order[i].requested_by, b.load_order[i].requested_by);
    EXPECT_EQ(a.load_order[i].how, b.load_order[i].how);
    EXPECT_EQ(a.load_order[i].depth, b.load_order[i].depth);
    EXPECT_EQ(a.load_order[i].parent_index, b.load_order[i].parent_index);
  }
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].name, b.requests[i].name);
    EXPECT_EQ(a.requests[i].how, b.requests[i].how);
  }
  ASSERT_EQ(a.missing.size(), b.missing.size());
  EXPECT_EQ(a.stats.stat_calls, b.stats.stat_calls);
  EXPECT_EQ(a.stats.open_calls, b.stats.open_calls);
  EXPECT_EQ(a.stats.read_calls, b.stats.read_calls);
  EXPECT_EQ(a.stats.failed_probes, b.stats.failed_probes);
  EXPECT_DOUBLE_EQ(a.stats.sim_time_s, b.stats.sim_time_s);
  EXPECT_EQ(a.probe_log, b.probe_log);
}

// Install `count` independent little applications, each with a private lib
// dir plus one shared system library, and return their exe paths.
std::vector<std::string> install_fleet(WorldBuilder& builder,
                                       std::size_t count) {
  builder.install("/usr/lib/libcommon.so", make_library("libcommon.so"));
  std::vector<std::string> exes;
  for (std::size_t i = 0; i < count; ++i) {
    const std::string n = std::to_string(i);
    builder.install("/apps/a" + n + "/lib/libpriv" + n + ".so",
                    make_library("libpriv" + n + ".so", {"libcommon.so"}));
    builder.install(
        "/apps/a" + n + "/bin/app",
        make_executable({"libpriv" + n + ".so"}, {"/apps/a" + n + "/lib"}));
    exes.push_back("/apps/a" + n + "/bin/app");
  }
  return exes;
}

// ------------------------------------------------------ WorldBuilder basics

TEST(WorldBuilderTest, InstallSetsDefaultTargetAndSessionLoads) {
  auto session = WorldBuilder()
                     .install("/l/libx.so", make_library("libx.so"))
                     .install("/bin/app", make_executable({"libx.so"}, {"/l"}))
                     .build();
  EXPECT_EQ(session.default_exe(), "/bin/app");
  const auto report = session.load();
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.load_order.size(), 2u);
}

TEST(WorldBuilderTest, ScenarioDispatchMatchesNamedGenerators) {
  WorldBuilder by_name;
  by_name.scenario("emacs");
  EXPECT_TRUE(by_name.emacs_info().has_value());
  EXPECT_FALSE(by_name.default_exe().empty());
  EXPECT_THROW(WorldBuilder().scenario("nope"), Error);
}

TEST(WorldBuilderTest, SnapshotRoundTripPreservesWorldAndReports) {
  workload::EmacsConfig config;
  config.num_deps = 20;
  config.num_dirs = 6;
  WorldBuilder builder;
  builder.emacs(config);
  const std::string exe = builder.default_exe();
  const std::string image = builder.save();

  auto direct = builder.build();
  const auto direct_report = direct.load();

  // Rebuild the same world from the snapshot: same bytes back out, and the
  // same load behaviour.
  WorldBuilder reloaded;
  reloaded.snapshot(image).target(exe);
  EXPECT_EQ(reloaded.save(), image);
  auto session = reloaded.build();
  expect_reports_identical(direct_report, session.load());

  // Session-level snapshot restore too.
  auto from_snap = Session::from_snapshot(image);
  expect_reports_identical(direct_report, from_snap.load(exe));
}

TEST(WorldBuilderTest, SessionSaveRoundTripsAfterMutation) {
  auto session = WorldBuilder()
                     .install("/l/libx.so", make_library("libx.so"))
                     .install("/bin/app", make_executable({"libx.so"}, {"/l"}))
                     .build();
  ASSERT_TRUE(session.shrinkwrap().ok());
  // The wrapped world survives a save/restore: the reloaded binary is still
  // frozen.
  auto restored = Session::from_snapshot(session.save());
  EXPECT_TRUE(restored.verify("/bin/app").ok);
}

// ------------------------------------------------------------ session verbs

TEST(SessionTest, LoadWithoutTargetThrows) {
  auto session = WorldBuilder()
                     .install("/l/libx.so", make_library("libx.so"))
                     .build();
  EXPECT_THROW(session.load(), Error);
}

TEST(SessionTest, ShrinkwrapVerifyLibtreeFlow) {
  auto session = WorldBuilder()
                     .install("/l/libx.so", make_library("libx.so"))
                     .install("/bin/app", make_executable({"libx.so"}, {"/l"}))
                     .build();
  EXPECT_FALSE(session.verify().ok);  // unwrapped: found by search
  ASSERT_TRUE(session.shrinkwrap().ok());
  EXPECT_TRUE(session.verify().ok);
  const std::string tree = session.libtree();
  EXPECT_NE(tree.find("/bin/app"), std::string::npos);
  EXPECT_NE(tree.find("/l/libx.so"), std::string::npos);
}

TEST(SessionTest, WrappedLoadReparsesOnlyTheRewrittenExecutable) {
  // Shrinkwrap rewrites the exe alone, so the load after it parses the exe
  // again and takes all 103 emacs libraries from the warm cache.
  auto session = WorldBuilder().emacs({}).build();
  const auto before = session.load();
  ASSERT_EQ(before.load_order.size(), 104u);
  std::unordered_map<std::string, const elf::Object*> parsed;
  for (const auto& obj : before.load_order) {
    parsed.emplace(obj.real_path, obj.object.get());
  }
  ASSERT_TRUE(session.shrinkwrap().ok());
  const auto after = session.load();
  ASSERT_TRUE(after.success);
  EXPECT_EQ(after.stats.metadata_calls(), 104u);
  ASSERT_EQ(after.load_order.size(), 104u);
  EXPECT_NE(after.load_order[0].object.get(),
            parsed.at(after.load_order[0].real_path));
  std::size_t reused = 0;
  for (std::size_t i = 1; i < after.load_order.size(); ++i) {
    const auto& obj = after.load_order[i];
    if (obj.object.get() == parsed.at(obj.real_path)) ++reused;
  }
  EXPECT_EQ(reused, 103u);
}

TEST(SessionTest, FreshForkReusesItsFamilysParsesInItsFirstWrappedLoad) {
  // A session pool's tenant turn: one tenant fork of a sealed NFS emacs
  // base loads the closure; a second fresh fork is Shrinkwrapped from
  // that recorded load, so it runs no loader before its wrapped load.
  // The fork family shares one parsed-object cache, so that load parses
  // the rewritten exe alone and reuses the other tenant's 103 libraries.
  auto base = WorldBuilder().nfs().emacs({}).build();
  base.seal();
  Session tenant = base.fork_sealed();
  vfs::OpTrace trace;
  loader::LoadReport first;
  {
    vfs::FileSystem::TraceScope scope(tenant.fs(), trace);
    first = tenant.load();
  }
  ASSERT_EQ(first.load_order.size(), 104u);
  std::unordered_map<std::string, const elf::Object*> parsed;
  for (const auto& obj : first.load_order) {
    parsed.emplace(obj.real_path, obj.object.get());
  }

  Session fresh = base.fork_sealed();
  const shrinkwrap::RecordedLoad recorded{first, trace};
  ASSERT_TRUE(fresh.shrinkwrap({}, {}, &recorded).ok());
  const auto wrapped = fresh.load();
  ASSERT_TRUE(wrapped.success);
  EXPECT_EQ(wrapped.stats.metadata_calls(), 104u);
  ASSERT_EQ(wrapped.load_order.size(), 104u);
  EXPECT_NE(wrapped.load_order[0].object.get(),
            parsed.at(wrapped.load_order[0].real_path));
  std::size_t reused = 0;
  for (const auto& obj : wrapped.load_order) {
    if (obj.object.get() == parsed.at(obj.real_path)) ++reused;
  }
  EXPECT_EQ(reused, 103u);
}

TEST(SessionTest, SessionEnvironmentAppliesToLoads) {
  loader::Environment env = loader::Environment::with_library_path({"/env"});
  auto session = WorldBuilder()
                     .install("/env/libx.so", make_library("libx.so"))
                     .install("/bin/app", make_executable({"libx.so"}))
                     .environment(env)
                     .build();
  const auto report = session.load();
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.load_order[1].how, loader::HowFound::LdLibraryPath);
}

TEST(SessionTest, TwoArgShrinkwrapInheritsSessionEnvWhenUnset) {
  // The dependency is findable ONLY through the session's LD_LIBRARY_PATH:
  // an explicit-options wrap must still resolve under it.
  auto session =
      WorldBuilder()
          .install("/env/libx.so", make_library("libx.so"))
          .install("/bin/app", make_executable({"libx.so"}))
          .environment(loader::Environment::with_library_path({"/env"}))
          .build();
  Session::WrapOptions options;
  options.clear_search_paths = false;
  const auto wrap = session.shrinkwrap("", options);
  EXPECT_TRUE(wrap.ok());
  // A non-empty env in the options overrides the session's.
  auto session2 =
      WorldBuilder()
          .install("/env/libx.so", make_library("libx.so"))
          .install("/bin/app", make_executable({"libx.so"}))
          .environment(loader::Environment::with_library_path({"/env"}))
          .build();
  Session::WrapOptions hostile;
  hostile.env = loader::Environment::with_library_path({"/nowhere"});
  EXPECT_FALSE(session2.shrinkwrap("", hostile).ok());
}

TEST(SessionTest, DlopenContinuesReport) {
  auto session = WorldBuilder()
                     .install("/p/libplug.so", make_library("libplug.so"))
                     .install("/bin/app", make_executable({}))
                     .build();
  auto report = session.load();
  const auto plug = session.dlopen(report, "/bin/app", "/p/libplug.so");
  EXPECT_EQ(plug.how, loader::HowFound::AbsolutePath);
  EXPECT_NE(report.find_loaded("/p/libplug.so"), nullptr);
}

TEST(SessionTest, ThrowingDlopenKeepsTheCallersReport) {
  // A SELF candidate that fails to parse, and a relative path with a '/'
  // (open() refuses it): each dlopen throws from inside its search.
  auto session = WorldBuilder()
                     .file("/p/libbad.so", "SELF1\nbogus\nend\n")
                     .install("/bin/app", make_executable({}))
                     .build();
  auto report = session.load();
  ASSERT_TRUE(report.success);
  ASSERT_EQ(report.load_order.size(), 1u);
  for (const std::string name : {"/p/libbad.so", "p/libbad.so"}) {
    SCOPED_TRACE(name);
    EXPECT_THROW(session.dlopen(report, "/bin/app", name), Error);
    ASSERT_EQ(report.load_order.size(), 1u);
    EXPECT_EQ(report.load_order[0].path, "/bin/app");
    EXPECT_TRUE(report.success);
  }
}

TEST(SessionTest, LaunchUsesSessionClusterConfig) {
  workload::PynamicConfig config;
  config.num_modules = 10;
  config.exe_extra_bytes = 0;
  launch::ClusterConfig cluster;
  cluster.init_s = 5.0;
  auto session =
      WorldBuilder().pynamic(config).cluster(cluster).nfs().build();
  const auto result = session.launch(8);
  EXPECT_TRUE(result.load_succeeded);
  EXPECT_GE(result.total_time_s, 5.0);
}

// --------------------------------------------------------------- load_many

TEST(LoadManyTest, ParallelReportsAreByteIdenticalToSerial) {
  WorldBuilder parallel_builder;
  const auto exes = install_fleet(parallel_builder, 12);
  const std::string image = parallel_builder.save();
  auto parallel_session = parallel_builder.build();

  auto serial_session = Session::from_snapshot(image);
  std::vector<loader::LoadReport> serial;
  serial.reserve(exes.size());
  for (const auto& exe : exes) serial.push_back(serial_session.load(exe));

  const auto reports = parallel_session.load_many(exes);
  ASSERT_EQ(reports.size(), exes.size());
  for (std::size_t i = 0; i < exes.size(); ++i) {
    expect_reports_identical(serial[i], reports[i]);
  }
}

TEST(LoadManyTest, RepeatedBatchesAreDeterministic) {
  WorldBuilder builder;
  const auto exes = install_fleet(builder, 8);
  auto session = builder.build();
  const auto first = session.load_many(exes);
  const auto second = session.load_many(exes);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    expect_reports_identical(first[i], second[i]);
  }
}

TEST(LoadManyTest, AggregatesStatDeltasIntoSessionCounters) {
  WorldBuilder builder;
  const auto exes = install_fleet(builder, 6);
  auto session = builder.build();
  const auto before = session.fs().stats();
  const auto reports = session.load_many(exes);
  const auto& after = session.fs().stats();
  std::uint64_t opens = 0, stats = 0, failed = 0;
  for (const auto& report : reports) {
    opens += report.stats.open_calls;
    stats += report.stats.stat_calls;
    failed += report.stats.failed_probes;
  }
  EXPECT_EQ(after.open_calls - before.open_calls, opens);
  EXPECT_EQ(after.stat_calls - before.stat_calls, stats);
  EXPECT_EQ(after.failed_probes - before.failed_probes, failed);
}

TEST(LoadManyTest, WorksWithLatencyModelAndChargesTime) {
  WorldBuilder builder;
  const auto exes = install_fleet(builder, 4);
  auto session = builder.local_disk().build();
  const auto reports = session.load_many(exes);
  for (const auto& report : reports) {
    EXPECT_TRUE(report.success);
    EXPECT_GT(report.stats.sim_time_s, 0.0);
  }
}

TEST(LoadManyTest, EmptyEntriesResolveToDefaultTarget) {
  WorldBuilder builder;
  const auto exes = install_fleet(builder, 2);
  auto session = builder.target(exes[0]).build();
  const std::vector<std::string> batch = {"", exes[1]};
  const auto reports = session.load_many(batch);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].load_order[0].path, exes[0]);
  EXPECT_EQ(reports[1].load_order[0].path, exes[1]);
}

TEST(LoadManyTest, MissingExecutableInBatchThrows) {
  WorldBuilder builder;
  const auto exes = install_fleet(builder, 3);
  auto session = builder.build();
  std::vector<std::string> batch = exes;
  batch.emplace_back("/bin/does-not-exist");
  EXPECT_THROW(session.load_many(batch), FsError);
}

// ------------------------------------------------- dialects (Fig 5 dedup)

// The Fig 5 layout: the executable needs two libraries by absolute path;
// one of them transitively requests the other by bare soname.
void install_fig5(WorldBuilder& builder) {
  builder
      .install("/store/libac.so", make_library("libac.so"))
      .install("/store/libxyz.so", make_library("libxyz.so", {"libac.so"}))
      .install("/bin/app",
               make_executable({"/store/libac.so", "/store/libxyz.so"}));
}

TEST(DialectTest, GlibcSatisfiesBareSonameFromDedupCache) {
  WorldBuilder builder;
  install_fig5(builder);
  auto session = builder.dialect(loader::Dialect::Glibc).build();
  const auto report = session.load();
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.load_order.size(), 3u);  // no duplicate libac
  EXPECT_EQ(report.requests.back().name, "libac.so");
  EXPECT_EQ(report.requests.back().how, loader::HowFound::Cache);
}

TEST(DialectTest, MuslDoesNotDedupBySoname) {
  WorldBuilder builder;
  install_fig5(builder);
  auto session = builder.dialect(loader::Dialect::Musl).build();
  const auto report = session.load();
  EXPECT_FALSE(report.success);
  ASSERT_EQ(report.missing.size(), 1u);
  EXPECT_EQ(report.missing[0].name, "libac.so");
}

TEST(DialectTest, RulesCarryTheTableIAndMuslSemantics) {
  using loader::SearchPhase;
  using Phases = std::vector<SearchPhase>;
  // glibc, Table I: RPATH chain, LD_LIBRARY_PATH, RUNPATH, system dirs.
  const loader::DialectRules& glibc = loader::rules(loader::Dialect::Glibc);
  EXPECT_EQ(Phases(glibc.phases.begin(), glibc.phases.end()),
            (Phases{SearchPhase::RpathChain, SearchPhase::LdLibraryPath,
                    SearchPhase::Runpath, SearchPhase::SystemPaths}));
  EXPECT_TRUE(glibc.dedups_by_soname);
  EXPECT_FALSE(glibc.melds_rpath_runpath);
  EXPECT_TRUE(glibc.probes_hwcaps);
  EXPECT_TRUE(glibc.uses_ld_cache);
  // musl, §IV: LD_LIBRARY_PATH, then the melded chain, then system dirs.
  const loader::DialectRules& musl = loader::rules(loader::Dialect::Musl);
  EXPECT_EQ(Phases(musl.phases.begin(), musl.phases.end()),
            (Phases{SearchPhase::LdLibraryPath, SearchPhase::RpathChain,
                    SearchPhase::SystemPaths}));
  EXPECT_FALSE(musl.dedups_by_soname);
  EXPECT_TRUE(musl.melds_rpath_runpath);
  EXPECT_FALSE(musl.probes_hwcaps);
  EXPECT_FALSE(musl.uses_ld_cache);

  WorldBuilder builder;
  install_fig5(builder);
  auto session = builder.dialect(loader::Dialect::Musl).build();
  EXPECT_EQ(session.loader().dialect(), loader::Dialect::Musl);
  EXPECT_FALSE(session.load().success);
}

// Every loader a session derives runs the session's dialect: its own, a
// fork's, a sealed stamp's, a sandbox's, load_many's workers' and a pool
// client's (on a memo miss and on a hit). The Fig 5 load succeeds on each
// under glibc and fails on each under musl.
TEST(DialectTest, EveryDerivedLoaderKeepsTheSessionDialect) {
  for (const loader::Dialect dialect :
       {loader::Dialect::Glibc, loader::Dialect::Musl}) {
    SCOPED_TRACE(dialect == loader::Dialect::Glibc ? "glibc" : "musl");
    const bool loads = dialect == loader::Dialect::Glibc;
    WorldBuilder builder;
    install_fig5(builder);
    auto session = builder.dialect(dialect).threads(2).build();
    EXPECT_EQ(session.load().success, loads);

    auto fork = session.fork();
    EXPECT_EQ(fork.loader().dialect(), dialect);
    EXPECT_EQ(fork.load().success, loads);

    session.seal();
    auto stamp = session.fork_sealed();
    EXPECT_EQ(stamp.loader().dialect(), dialect);
    EXPECT_EQ(stamp.load().success, loads);

    auto sandbox = session.sandbox({});
    EXPECT_EQ(sandbox.loader().dialect(), dialect);
    EXPECT_EQ(sandbox.load().success, loads);

    const std::vector<std::string> batch = {"", ""};
    for (const auto& report : session.load_many(batch)) {
      EXPECT_EQ(report.success, loads);
    }

    svc::SessionPool pool(session.fork());
    const auto miss = pool.submit_load(1).get();
    const auto hit = pool.submit_load(2).get();
    pool.drain();
    EXPECT_EQ(pool.stats().memo_hits, 1u);
    EXPECT_EQ(miss.success, loads);
    EXPECT_EQ(hit.success, loads);
  }
}

}  // namespace
}  // namespace depchaos::core
