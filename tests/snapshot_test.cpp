#include <gtest/gtest.h>

#include "depchaos/elf/patcher.hpp"
#include "depchaos/loader/loader.hpp"
#include "depchaos/shrinkwrap/shrinkwrap.hpp"
#include "depchaos/vfs/snapshot.hpp"
#include "depchaos/workload/pynamic.hpp"
#include "depchaos/workload/scenarios.hpp"

namespace depchaos::vfs {
namespace {

TEST(Snapshot, EmptyWorldRoundTrips) {
  FileSystem fs;
  const auto restored = load_world(save_world(fs));
  EXPECT_EQ(restored.list_dir("/").size(), 0u);
}

TEST(Snapshot, FilesDirsLinksRoundTrip) {
  FileSystem fs;
  fs.write_file("/a/b/file.txt", std::string("hello\nworld\n"));
  FileData big;
  big.bytes = "small body";
  big.declared_size = 1 << 20;
  fs.write_file("/a/big.bin", std::move(big));
  fs.mkdir_p("/empty/dir");
  fs.symlink("../b/file.txt", "/a/c/rel_link");
  fs.symlink("/a/b/file.txt", "/abs_link");
  fs.symlink("/nowhere", "/dangling");

  const auto restored = load_world(save_world(fs));
  EXPECT_EQ(restored.peek("/a/b/file.txt")->bytes, "hello\nworld\n");
  EXPECT_EQ(restored.peek("/a/big.bin")->size(), 1u << 20);
  EXPECT_TRUE(restored.exists("/empty/dir"));
  EXPECT_EQ(restored.peek_link_target("/a/c/rel_link").value(),
            "../b/file.txt");
  EXPECT_EQ(restored.peek("/a/c/rel_link")->bytes, "hello\nworld\n");
  EXPECT_EQ(restored.peek_link_target("/dangling").value(), "/nowhere");
  EXPECT_FALSE(restored.exists("/dangling"));
}

TEST(Snapshot, DoubleRoundTripIsStable) {
  FileSystem fs;
  fs.write_file("/x/y", std::string("payload with\nfile /fake 1 2\ninside"));
  fs.symlink("/x/y", "/z");
  const auto once = save_world(fs);
  const auto twice = save_world(load_world(once));
  EXPECT_EQ(once, twice);
}

TEST(Snapshot, SelfImagesSurvive) {
  FileSystem fs;
  elf::install_object(fs, "/l/libx.so", elf::make_library("libx.so"));
  elf::install_object(fs, "/bin/app",
                      elf::make_executable({"libx.so"}, {"/l"}));
  auto restored = load_world(save_world(fs));
  loader::Loader loader(restored);
  EXPECT_TRUE(loader.load("/bin/app").success);
}

TEST(Snapshot, WholeScenarioSurvivesIncludingShrinkwrap) {
  FileSystem fs;
  workload::PynamicConfig config;
  config.num_modules = 30;
  config.exe_extra_bytes = 0;
  const auto app = workload::generate_pynamic(fs, config);

  auto restored = load_world(save_world(fs));
  loader::Loader loader(restored);
  ASSERT_TRUE(shrinkwrap::shrinkwrap(restored, loader, app.exe_path).ok());
  // And the wrapped world snapshots again.
  auto restored2 = load_world(save_world(restored));
  loader::Loader loader2(restored2);
  const auto report = loader2.load(app.exe_path);
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.stats.failed_probes, 0u);
}

TEST(Snapshot, RejectsBadMagic) {
  EXPECT_THROW(load_world("NOTAWORLD\n"), FsError);
}

// -------------------------------------------------- DCWORLD2 fleet images

FileSystem fleet_base() {
  FileSystem base;
  base.write_file("/usr/lib/libc.so", std::string("libc bytes"));
  base.write_file("/usr/lib/libm.so", std::string("libm bytes"));
  base.write_file("/etc/conf", std::string("base conf"));
  base.symlink("libc.so", "/usr/lib/libc.so.6");
  base.mkdir_p("/var/empty");
  return base;
}

TEST(FleetSnapshot, ForkFleetSaveLoadEquivalence) {
  FileSystem base = fleet_base();
  FileSystem a = base.fork();
  FileSystem b = base.fork();
  FileSystem untouched = base.fork();
  // Divergence of every structural kind: adds, edits, removes, renames.
  a.write_file("/etc/conf", std::string("A's conf"));
  a.write_file("/home/a/new.txt", std::string("new in A"));
  a.remove("/usr/lib/libm.so");
  b.rename("/etc/conf", "/etc/conf.bak");
  b.symlink("/etc/conf.bak", "/etc/conf");

  const std::vector<const FileSystem*> views = {&a, &b, &untouched};
  const std::string image = save_fleet(base, views);
  ASSERT_TRUE(is_fleet_image(image));
  auto fleet = load_fleet(image);
  ASSERT_EQ(fleet.views.size(), 3u);
  EXPECT_EQ(save_world(fleet.base), save_world(base));
  EXPECT_EQ(save_world(fleet.views[0]), save_world(a));
  EXPECT_EQ(save_world(fleet.views[1]), save_world(b));
  EXPECT_EQ(save_world(fleet.views[2]), save_world(untouched));

  // Deltas are deltas: the image must be far smaller than per-view fulls.
  const std::size_t fulls =
      save_world(a).size() + save_world(b).size() + save_world(base).size();
  EXPECT_LT(image.size(), fulls);

  // And a re-save of the restored fleet is byte-identical — the layer
  // graft reproduces storage, not just observable content.
  const std::vector<const FileSystem*> restored = {
      &fleet.views[0], &fleet.views[1], &fleet.views[2]};
  EXPECT_EQ(save_fleet(fleet.base, restored), image);
}

TEST(FleetSnapshot, V1ToV2MigrationKeepsContent) {
  FileSystem original = fleet_base();
  const std::string v1 = save_world(original);
  FileSystem migrated = load_world(v1);
  const std::string v2 = save_fleet(migrated, {});
  ASSERT_TRUE(is_fleet_image(v2));
  auto fleet = load_fleet(v2);
  EXPECT_TRUE(fleet.views.empty());
  EXPECT_EQ(save_world(fleet.base), v1);
  // And v1 images load through the fleet entry point too.
  auto via_fleet = load_fleet(v1);
  EXPECT_EQ(save_world(via_fleet.base), v1);
}

TEST(FleetSnapshot, MountsPersistSharedImagesOnceAndOverlaysAsDeltas) {
  auto app = std::make_shared<FileSystem>();
  app->write_file("/lib/libapp.so", std::string(2048, 'X'));
  FileSystem base = fleet_base();
  FileSystem a = base.fork();
  FileSystem b = base.fork();
  for (FileSystem* view : {&a, &b}) {
    view->mount_overlay("/app", app);
    view->mount_image("/ro", app);
    view->mount_tmpfs("/scratch");
  }
  a.write_file("/app/lib/patch.diff", std::string("A only"));
  a.write_file("/scratch/a.tmp", std::string("tmp A"));

  const std::vector<const FileSystem*> views = {&a, &b};
  const std::string image = save_fleet(base, views);
  // The 2 KiB app image appears once, not four times (2 views x 2 mounts).
  EXPECT_LT(image.size(),
            save_world(*app).size() * 2 + save_world(base).size() * 2);

  auto fleet = load_fleet(image);
  ASSERT_EQ(fleet.views.size(), 2u);
  EXPECT_EQ(save_world(fleet.views[0]), save_world(a));
  EXPECT_EQ(save_world(fleet.views[1]), save_world(b));
  const auto mounts = fleet.views[0].mounts();
  ASSERT_EQ(mounts.size(), 3u);
  EXPECT_EQ(mounts[0].point, "/app");
  EXPECT_EQ(mounts[0].kind, MountKind::Overlay);
  EXPECT_EQ(mounts[1].point, "/ro");
  EXPECT_EQ(mounts[1].kind, MountKind::Image);
  EXPECT_TRUE(mounts[1].read_only);
  EXPECT_EQ(mounts[2].kind, MountKind::Tmpfs);
  // Restored overlay/tmpfs content and divergence survived.
  EXPECT_EQ(fleet.views[0].peek("/app/lib/patch.diff")->bytes, "A only");
  EXPECT_FALSE(fleet.views[1].exists("/app/lib/patch.diff"));
  EXPECT_EQ(fleet.views[0].peek("/scratch/a.tmp")->bytes, "tmp A");
}

TEST(FleetSnapshot, RejectsBindMountsAndForeignViews) {
  FileSystem base = fleet_base();
  FileSystem view = base.fork();
  auto src = std::make_shared<FileSystem>();
  src->mkdir_p("/data");
  view.mount_bind("/mnt", src, "/data");
  const std::vector<const FileSystem*> views = {&view};
  EXPECT_THROW(save_fleet(base, views), FsError);

  FileSystem stranger;  // not a fork of base
  stranger.write_file("/x", std::string("y"));
  const std::vector<const FileSystem*> foreign = {&stranger};
  EXPECT_THROW(save_fleet(base, foreign), FsError);

  FileSystem mutated_base = fleet_base();
  FileSystem child = mutated_base.fork();
  mutated_base.write_file("/drift", std::string("post-fork"));
  const std::vector<const FileSystem*> drifted = {&child};
  EXPECT_THROW(save_fleet(mutated_base, drifted), FsError);
}

TEST(FleetSnapshot, RejectsMalformedImages) {
  // Truncated header.
  EXPECT_THROW(load_fleet("DCWORLD2\n"), FsError);
  // Bad section keyword.
  EXPECT_THROW(load_fleet("DCWORLD2\nimagine 1\n"), FsError);
  // Image table inconsistencies.
  EXPECT_THROW(load_fleet("DCWORLD2\nimages 1\nimage 7 2 1\nendimage\n"),
               FsError);
  EXPECT_THROW(load_fleet("DCWORLD2\nimages 0\nviews 0\n"), FsError);
  // Inode out of the declared range.
  EXPECT_THROW(load_fleet("DCWORLD2\nimages 1\nimage 0 2 1\n"
                          "node 5 link /x\nendimage\nviews 0\n"),
               FsError);
  // Child reference out of the declared range (would be an OOB read on
  // first resolution if accepted).
  EXPECT_THROW(load_fleet("DCWORLD2\nimages 1\nimage 0 3 2\n"
                          "node 1 dir 1\nc 200 f\nnode 2 file 0 0\n\n"
                          "endimage\nviews 0\n"),
               FsError);
  // Absurd size fields must throw FsError, not drive huge allocations.
  EXPECT_THROW(load_fleet("DCWORLD2\nimages 1\nimage 0 99999999999999 1\n"
                          "endimage\nviews 0\n"),
               FsError);
  EXPECT_THROW(load_fleet("DCWORLD2\nimages 99999999999999\n"), FsError);
  EXPECT_THROW(load_fleet("DCWORLD2\nimages 1\nimage 0 3 2\n"
                          "node 1 dir 99999999999\nendimage\nviews 0\n"),
               FsError);
  // Truncated file payload inside a node record.
  EXPECT_THROW(load_fleet("DCWORLD2\nimages 1\nimage 0 3 2\n"
                          "node 1 dir 1\nc 2 f\nnode 2 file 0 100\nshort"),
               FsError);
  // A payload length near 2^64 must not wrap the bounds check.
  EXPECT_THROW(load_fleet("DCWORLD2\nimages 1\nimage 0 3 2\n"
                          "node 1 dir 1\nc 2 f\n"
                          "node 2 file 0 18446744073709551615\n"
                          "endimage\nviews 0\n"),
               FsError);
  // Unknown node kind.
  EXPECT_THROW(load_fleet("DCWORLD2\nimages 1\nimage 0 3 2\n"
                          "node 1 dir 0\nnode 2 blob\nendimage\nviews 0\n"),
               FsError);
  // View referencing a missing image slot.
  EXPECT_THROW(
      load_fleet("DCWORLD2\nimages 1\nimage 0 2 1\nnode 1 dir 0\nendimage\n"
                 "views 1\nview 2 1\nmount image ro 4 0 0 /app\nendmount\n"
                 "endview\n"),
      FsError);
  // A well-formed minimal image for contrast.
  auto minimal = load_fleet(
      "DCWORLD2\nimages 1\nimage 0 2 1\nnode 1 dir 0\nendimage\nviews 0\n");
  EXPECT_TRUE(minimal.views.empty());
  EXPECT_TRUE(minimal.base.list_dir("/").empty());
}

TEST(Snapshot, RejectsTruncatedPayload) {
  EXPECT_THROW(load_world("DCWORLD1\nfile /x 0 100\nshort"), FsError);
  // A length near 2^64 must not wrap the bounds check.
  EXPECT_THROW(load_world("DCWORLD1\nfile /a 0 18446744073709551615\n"
                          "dir /b\n"),
               FsError);
  // Sizes and lengths are whole unsigned numbers.
  EXPECT_THROW(load_world("DCWORLD1\nfile /a 12abc 3\nabc\n"), FsError);
  EXPECT_THROW(load_world("DCWORLD1\nfile /a -5 3\nabc\n"), FsError);
  EXPECT_THROW(load_world("DCWORLD1\nfile /a 5 3x\nabc\n"), FsError);
}

TEST(Snapshot, RejectsUnknownRecord) {
  EXPECT_THROW(load_world("DCWORLD1\nblob /x\n"), FsError);
}

// ---------------------------------------------------------- probe logging

TEST(ProbeLog, RecordsEveryOutcomeKind) {
  FileSystem fs;
  fs.write_file("/p1/libx.so", std::string("not an object"));
  elf::Object wrong_arch = elf::make_library("libx.so");
  wrong_arch.machine = elf::Machine::AArch64;
  elf::install_object(fs, "/p2/libx.so", wrong_arch);
  elf::install_object(fs, "/p3/libx.so", elf::make_library("libx.so"));
  elf::install_object(
      fs, "/bin/app",
      elf::make_executable({"libx.so"}, {"/p0", "/p1", "/p2", "/p3"}));

  loader::SearchConfig config;
  config.record_probes = true;
  loader::Loader loader(fs, config);
  const auto report = loader.load("/bin/app");
  ASSERT_TRUE(report.success);
  const auto joined = [&] {
    std::string all;
    for (const auto& line : report.probe_log) all += line + "\n";
    return all;
  }();
  EXPECT_NE(joined.find("/p0/libx.so ... ENOENT"), std::string::npos);
  EXPECT_NE(joined.find("/p1/libx.so ... not an object"), std::string::npos);
  EXPECT_NE(joined.find("/p2/libx.so ... wrong architecture"),
            std::string::npos);
  EXPECT_NE(joined.find("/p3/libx.so ... found"), std::string::npos);
}

TEST(ProbeLog, OffByDefault) {
  FileSystem fs;
  elf::install_object(fs, "/bin/app", elf::make_executable({}));
  loader::Loader loader(fs);
  EXPECT_TRUE(loader.load("/bin/app").probe_log.empty());
}

TEST(ProbeLog, ShadowClassificationProbesNotLogged) {
  FileSystem fs;
  elf::install_object(fs, "/l/libshared.so", elf::make_library("libshared.so"));
  elf::install_object(
      fs, "/l/liba.so",
      elf::make_library("liba.so", {"libshared.so"}, {"/l"}));
  elf::install_object(
      fs, "/bin/app",
      elf::make_executable({"liba.so", "libshared.so"}, {"/l"}));
  loader::SearchConfig plain_config;
  plain_config.record_probes = true;
  loader::Loader plain(fs, plain_config);
  const auto baseline = plain.load("/bin/app").probe_log.size();

  loader::SearchConfig shadow_config = plain_config;
  shadow_config.classify_cache_hits = true;
  loader::Loader shadowing(fs, shadow_config);
  EXPECT_EQ(shadowing.load("/bin/app").probe_log.size(), baseline);
}

}  // namespace
}  // namespace depchaos::vfs
