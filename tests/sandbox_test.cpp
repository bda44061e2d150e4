// Session::sandbox — per-job container views over one host world — and
// the container failure-mode scenarios: a host library leaking through an
// unmasked /usr/lib (fixed by masking), a stale app image shadowing a
// patched host library, and per-job overlay divergence.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "depchaos/core/session.hpp"
#include "depchaos/core/world.hpp"
#include "depchaos/elf/patcher.hpp"
#include "depchaos/vfs/snapshot.hpp"
#include "depchaos/workload/scenarios.hpp"

namespace depchaos::core {
namespace {

using workload::ContainerLeakScenario;
using workload::StaleImageScenario;

Session host_session_for(const ContainerLeakScenario& scenario,
                         vfs::FileSystem host) {
  SessionConfig config;
  config.search = scenario.search;
  return Session(std::move(host), std::move(config));
}

TEST(Sandbox, HostLeakOnlyUnderUnmaskedMountStackingAndFixedByMasking) {
  // Each scenario runs on a fresh host and on one whose own loader has
  // built its ld.so.cache (a host tool's load bound libdeps.so to the
  // host copy through it) before any sandbox is made: a sandbox adopts
  // the host's parsed objects but never that cache, so masking fixes both.
  for (const bool warm_host : {false, true}) {
    SCOPED_TRACE(warm_host ? "host ld.so.cache built" : "fresh host");
    vfs::FileSystem host_fs;
    const auto scenario = workload::make_container_leak_scenario(host_fs);
    elf::install_object(host_fs, "/usr/bin/hosttool",
                        elf::make_executable({scenario.leak_soname}));
    Session host = host_session_for(scenario, std::move(host_fs));
    if (warm_host) {
      const auto tool = host.load("/usr/bin/hosttool");
      ASSERT_TRUE(tool.success);
      const auto* deps = tool.find_loaded(scenario.leak_soname);
      ASSERT_NE(deps, nullptr);
      EXPECT_EQ(deps->how, loader::HowFound::LdSoConf);
      EXPECT_TRUE(deps->path.starts_with(scenario.host_lib_dir));
    }

    // Outside any sandbox the tool does not even exist: the failure needs
    // a specific mount stacking to occur at all.
    EXPECT_THROW(host.load(scenario.exe), Error);

    // Image mounted, host dir visible: the HOST's stale copy wins — the
    // wrong-library load.
    Session::SandboxSpec leaky;
    leaky.image = scenario.image;
    leaky.image_mount = scenario.image_mount;
    leaky.exe = scenario.exe;
    Session leaking = host.sandbox(leaky);
    const auto bad = leaking.load();
    ASSERT_TRUE(bad.success);
    EXPECT_TRUE(workload::container_host_leaked(bad, scenario));
    const auto* leaked = bad.find_loaded(scenario.leak_soname);
    ASSERT_NE(leaked, nullptr);
    EXPECT_TRUE(leaked->path.starts_with(scenario.host_lib_dir));

    // Same image, host dir masked: the load is CORRECT (not merely
    // failing) — the container's own copy resolves instead.
    Session::SandboxSpec masked = leaky;
    masked.mask = {scenario.host_lib_dir};
    Session fixed = host.sandbox(masked);
    const auto good = fixed.load();
    ASSERT_TRUE(good.success);
    EXPECT_FALSE(workload::container_host_leaked(good, scenario));
    const auto* bound = good.find_loaded(scenario.leak_soname);
    ASSERT_NE(bound, nullptr);
    EXPECT_TRUE(bound->path.starts_with(scenario.image_mount));

    // The host world never noticed any of it.
    EXPECT_FALSE(host.fs().exists(scenario.exe));
    EXPECT_TRUE(host.fs().exists(scenario.host_lib_dir + "/libdeps.so"));
  }
}

TEST(Sandbox, AdoptsTheHostsParsedObjects) {
  // A sandbox reuses what the host loader parsed (each entry only for the
  // bytes it was parsed from), so its first load parses nothing again.
  workload::PynamicConfig config;
  config.num_modules = 12;
  config.exe_extra_bytes = 0;
  Session host = WorldBuilder().pynamic(config).build();
  const auto warm = host.load();
  ASSERT_TRUE(warm.success);
  Session plain = host.sandbox({});
  const auto again = plain.load();
  ASSERT_TRUE(again.success);
  ASSERT_EQ(again.load_order.size(), warm.load_order.size());
  for (std::size_t i = 0; i < warm.load_order.size(); ++i) {
    EXPECT_EQ(again.load_order[i].path, warm.load_order[i].path);
    EXPECT_EQ(again.load_order[i].object.get(),
              warm.load_order[i].object.get())
        << warm.load_order[i].path;
  }
}

TEST(Sandbox, StaleImageShadowsPatchedHostLibrary) {
  vfs::FileSystem host_fs;
  const auto scenario = workload::make_stale_image_scenario(host_fs);
  Session host(std::move(host_fs));

  Session::SandboxSpec spec;
  spec.image = scenario.stale_image;
  spec.image_mount = scenario.image_mount;
  spec.exe = scenario.exe;
  Session stale = host.sandbox(spec);
  const auto shadowed = stale.load();
  ASSERT_TRUE(shadowed.success);
  EXPECT_TRUE(workload::stale_library_loaded(shadowed, scenario));

  // Remounting the rebuilt image is the fix.
  spec.image = scenario.fresh_image;
  Session fresh = host.sandbox(spec);
  const auto updated = fresh.load();
  ASSERT_TRUE(updated.success);
  EXPECT_FALSE(workload::stale_library_loaded(updated, scenario));
}

TEST(Sandbox, PerJobOverlayDivergence) {
  vfs::FileSystem host_fs;
  const auto scenario = workload::make_container_leak_scenario(host_fs);
  Session host = host_session_for(scenario, std::move(host_fs));

  Session::SandboxSpec spec;
  spec.image = scenario.image;
  spec.image_mount = scenario.image_mount;
  spec.exe = scenario.exe;
  spec.writable_image_overlay = true;
  spec.mask = {scenario.host_lib_dir};

  Session job_a = host.sandbox(spec);
  Session job_b = host.sandbox(spec);

  // Job A hotfixes the bundled library in ITS overlay.
  elf::Object hotfix = elf::make_library("libdeps.so");
  hotfix.symbols.push_back(
      elf::Symbol{"libdeps_hotfix_v3", elf::SymbolBinding::Global, true});
  elf::install_object(job_a.fs(), scenario.image_mount + "/lib/libdeps.so",
                      hotfix);

  const auto report_a = job_a.load();
  const auto report_b = job_b.load();
  ASSERT_TRUE(report_a.success && report_b.success);
  const auto* deps_a = report_a.find_loaded(scenario.leak_soname);
  const auto* deps_b = report_b.find_loaded(scenario.leak_soname);
  ASSERT_TRUE(deps_a && deps_a->object && deps_b && deps_b->object);
  EXPECT_TRUE(deps_a->object->defines_strong("libdeps_hotfix_v3"));
  EXPECT_FALSE(deps_b->object->defines_strong("libdeps_hotfix_v3"));
  EXPECT_TRUE(deps_b->object->defines_strong(scenario.image_marker));
  // The shared image is untouched by A's hotfix.
  EXPECT_FALSE(scenario.image->peek("/lib/libdeps.so") == nullptr);
  Session job_c = host.sandbox(spec);
  const auto report_c = job_c.load();
  ASSERT_TRUE(report_c.success);
  EXPECT_TRUE(report_c.find_loaded(scenario.leak_soname)
                  ->object->defines_strong(scenario.image_marker));
}

TEST(Sandbox, ScratchMountsAreWritableAndPrivate) {
  Session host = WorldBuilder().samba().build();
  Session::SandboxSpec spec;
  spec.scratch = {"/tmp/job"};
  Session job = host.sandbox(spec);
  job.fs().write_file("/tmp/job/out.log", std::string("done"));
  EXPECT_TRUE(job.fs().exists("/tmp/job/out.log"));
  EXPECT_FALSE(host.fs().exists("/tmp/job/out.log"));
  // The host workload still resolves inside the sandbox (shared base).
  EXPECT_TRUE(job.load(host.default_exe()).success);
}

TEST(Sandbox, FleetPersistsAndRestoresThroughSnapshotV2) {
  vfs::FileSystem host_fs;
  const auto scenario = workload::make_container_leak_scenario(host_fs);
  Session host = host_session_for(scenario, std::move(host_fs));

  Session::SandboxSpec spec;
  spec.image = scenario.image;
  spec.image_mount = scenario.image_mount;
  spec.exe = scenario.exe;
  spec.writable_image_overlay = true;
  spec.mask = {scenario.host_lib_dir};
  Session job_a = host.sandbox(spec);
  Session job_b = host.sandbox(spec);
  job_a.fs().write_file(scenario.image_mount + "/etc/job.conf",
                        std::string("job A"));

  const std::vector<const vfs::FileSystem*> views = {&job_a.fs(),
                                                     &job_b.fs()};
  const std::string image = vfs::save_fleet(host.fs(), views);
  auto fleet = vfs::load_fleet(image);
  ASSERT_EQ(fleet.views.size(), 2u);

  // Observable equality, then behavioral equality through the loader.
  EXPECT_EQ(vfs::save_world(fleet.views[0]), vfs::save_world(job_a.fs()));
  EXPECT_EQ(vfs::save_world(fleet.views[1]), vfs::save_world(job_b.fs()));

  SessionConfig config;
  config.search = scenario.search;
  Session restored(std::move(fleet.views[0]), std::move(config),
                   scenario.exe);
  const auto before = job_a.load();
  const auto after = restored.load();
  ASSERT_TRUE(after.success);
  ASSERT_EQ(before.load_order.size(), after.load_order.size());
  for (std::size_t i = 0; i < before.load_order.size(); ++i) {
    EXPECT_EQ(before.load_order[i].path, after.load_order[i].path) << i;
    EXPECT_EQ(before.load_order[i].how, after.load_order[i].how) << i;
  }
  EXPECT_EQ(before.stats.open_calls, after.stats.open_calls);
}

TEST(Sandbox, FromSnapshotOpensFleetImages) {
  vfs::FileSystem host_fs;
  const auto scenario = workload::make_container_leak_scenario(host_fs);
  Session host = host_session_for(scenario, std::move(host_fs));
  Session::SandboxSpec spec;
  spec.image = scenario.image;
  spec.image_mount = scenario.image_mount;
  spec.exe = scenario.exe;
  spec.mask = {scenario.host_lib_dir};
  Session job = host.sandbox(spec);

  const std::vector<const vfs::FileSystem*> views = {&job.fs()};
  const std::string image = vfs::save_fleet(host.fs(), views);
  SessionConfig config;
  config.search = scenario.search;
  Session reopened = Session::from_snapshot(image, std::move(config));
  const auto report = reopened.load(scenario.exe);
  ASSERT_TRUE(report.success);
  EXPECT_FALSE(workload::container_host_leaked(report, scenario));
}

TEST(Sandbox, BuildImageProducesAMountableWorld) {
  auto image = WorldBuilder()
                   .file("/share/banner.txt", "hello")
                   .build_image();
  Session host = WorldBuilder().samba().build();
  Session::SandboxSpec spec;
  spec.image = image;
  spec.image_mount = "/opt/bundle";
  Session job = host.sandbox(spec);
  EXPECT_EQ(job.fs().peek("/opt/bundle/share/banner.txt")->bytes, "hello");
}

}  // namespace
}  // namespace depchaos::core
