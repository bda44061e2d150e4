// Loader corner cases beyond the main semantics suite: app-cache dialect
// interactions, $ORIGIN in needed entries, relative search dirs, nested
// dlopen, and cache staleness.

#include <gtest/gtest.h>

#include "depchaos/elf/patcher.hpp"
#include "depchaos/loader/loader.hpp"
#include "depchaos/shrinkwrap/ldcache.hpp"
#include "depchaos/vfs/vfs.hpp"

namespace depchaos::loader {
namespace {

using elf::install_object;
using elf::make_executable;
using elf::make_library;

class LoaderEdgeTest : public ::testing::Test {
 protected:
  vfs::FileSystem fs_;
};

TEST_F(LoaderEdgeTest, OriginInNeededEntryExpands) {
  install_object(fs_, "/app/lib/libx.so", make_library("libx.so"));
  install_object(fs_, "/app/bin/tool",
                 make_executable({"$ORIGIN/../lib/libx.so"}));
  Loader loader(fs_);
  const auto report = loader.load("/app/bin/tool");
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.load_order[1].path, "/app/lib/libx.so");
  EXPECT_EQ(report.load_order[1].how, HowFound::AbsolutePath);
}

TEST_F(LoaderEdgeTest, OneLoaderExpandsOriginNeededEntryPerExecutable) {
  // A loader interns each absolute needed path once, keyed by its
  // expansion: the same $ORIGIN entry in two executables names two files.
  for (const std::string app : {"/a", "/b"}) {
    install_object(fs_, app + "/lib/libx.so", make_library("libx.so"));
    install_object(fs_, app + "/bin/tool",
                   make_executable({"$ORIGIN/../lib/libx.so"}));
  }
  Loader loader(fs_);
  for (int round = 0; round < 2; ++round) {
    EXPECT_EQ(loader.load("/a/bin/tool").load_order[1].path, "/a/lib/libx.so");
    EXPECT_EQ(loader.load("/b/bin/tool").load_order[1].path, "/b/lib/libx.so");
  }
}

TEST_F(LoaderEdgeTest, RelativeNeededPathThrowsAtEveryLoad) {
  install_object(fs_, "/lib/libx.so", make_library("libx.so"));
  install_object(fs_, "/bin/app", make_executable({"lib/libx.so"}));
  Loader loader(fs_);
  EXPECT_THROW(loader.load("/bin/app"), FsError);
  EXPECT_THROW(loader.load("/bin/app"), FsError);
}

TEST_F(LoaderEdgeTest, RelativeSearchDirResolvesAgainstRoot) {
  install_object(fs_, "/opt/libx.so", make_library("libx.so"));
  install_object(fs_, "/bin/app", make_executable({"libx.so"}, {"opt"}));
  Loader loader(fs_);
  EXPECT_TRUE(loader.load("/bin/app").success);
}

TEST_F(LoaderEdgeTest, AppCacheWorksUnderMusl) {
  fs_.mkdir_p("/e");
  install_object(fs_, "/l/libx.so", make_library("libx.so"));
  install_object(fs_, "/bin/app",
                 make_executable({"libx.so"}, {"/e", "/l"}));
  Loader writer(fs_);
  ASSERT_TRUE(shrinkwrap::make_loader_cache(fs_, writer, "/bin/app").ok());
  SearchConfig config;
  config.use_app_cache = true;
  Loader musl(fs_, config, Dialect::Musl);
  const auto report = musl.load("/bin/app");
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.load_order[1].how, HowFound::AppCache);
}

TEST_F(LoaderEdgeTest, AppCacheDoesNotOverrideAbsoluteNeeded) {
  install_object(fs_, "/real/libx.so", make_library("libx.so"));
  install_object(fs_, "/fake/libx.so", make_library("libx.so"));
  install_object(fs_, "/bin/app", make_executable({"/real/libx.so"}));
  fs_.write_file("/bin/app.ldcache",
                 std::string("libx.so /fake/libx.so\n"));
  SearchConfig config;
  config.use_app_cache = true;
  Loader loader(fs_, config);
  const auto report = loader.load("/bin/app");
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.load_order[1].path, "/real/libx.so");
}

TEST_F(LoaderEdgeTest, NestedDlopenResolvesFromInnerCaller) {
  // plugin1 (dlopened by exe) dlopens plugin2, findable only through
  // plugin1's own runpath.
  install_object(fs_, "/deep/libplug2.so", make_library("libplug2.so"));
  elf::Object plug1 = make_library("libplug1.so", {}, {"/deep"});
  install_object(fs_, "/p/libplug1.so", plug1);
  install_object(fs_, "/bin/app", make_executable({}));
  Loader loader(fs_);
  auto report = loader.load("/bin/app");
  const auto first = loader.dlopen(report, "/bin/app", "/p/libplug1.so");
  ASSERT_NE(first.how, HowFound::NotFound);
  const auto second =
      loader.dlopen(report, "/p/libplug1.so", "libplug2.so");
  EXPECT_EQ(second.how, HowFound::Runpath);
  // And NOT findable from the executable itself.
  auto fresh = loader.load("/bin/app");
  const auto from_exe = loader.dlopen(fresh, "/bin/app", "libplug2.so");
  EXPECT_EQ(from_exe.how, HowFound::NotFound);
}

TEST_F(LoaderEdgeTest, DlopenDedupsAgainstExistingLoad) {
  install_object(fs_, "/l/libshared.so", make_library("libshared.so"));
  install_object(fs_, "/bin/app",
                 make_executable({"libshared.so"}, {"/l"}));
  Loader loader(fs_);
  auto report = loader.load("/bin/app");
  const std::size_t loaded_before = report.load_order.size();
  const auto result = loader.dlopen(report, "/bin/app", "libshared.so");
  EXPECT_EQ(result.how, HowFound::Cache);
  EXPECT_EQ(report.load_order.size(), loaded_before);
}

TEST_F(LoaderEdgeTest, LdCacheReflectsFilesystemAtFirstUse) {
  // The ld.so.cache is built lazily; libraries installed BEFORE the first
  // load are all visible, mirroring a fresh ldconfig run.
  install_object(fs_, "/usr/lib/liblate.so", make_library("liblate.so"));
  install_object(fs_, "/bin/app", make_executable({"liblate.so"}));
  Loader loader(fs_);
  EXPECT_TRUE(loader.load("/bin/app").success);
}

TEST_F(LoaderEdgeTest, StaleLdCacheMissesNewLibraryUntilInvalidate) {
  install_object(fs_, "/bin/app", make_executable({"libnew.so"}));
  Loader loader(fs_);
  EXPECT_FALSE(loader.load("/bin/app").success);  // builds the cache, empty
  install_object(fs_, "/usr/lib/libnew.so", make_library("libnew.so"));
  // Still missing: the cache is stale (ldconfig has not "run").
  EXPECT_FALSE(loader.load("/bin/app").success);
  loader.invalidate();
  EXPECT_TRUE(loader.load("/bin/app").success);
}

TEST_F(LoaderEdgeTest, HwcapsDirsSkippedWhenEmpty) {
  install_object(fs_, "/l/libx.so", make_library("libx.so"));
  install_object(fs_, "/bin/app", make_executable({"libx.so"}, {"/l"}));
  SearchConfig config;
  config.hwcaps = {"glibc-hwcaps/x86-64-v3", "glibc-hwcaps/x86-64-v2"};
  Loader loader(fs_, config);
  const auto report = loader.load("/bin/app");
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.load_order[1].path, "/l/libx.so");
  // Two hwcaps misses + the hit + exe open.
  EXPECT_EQ(report.stats.failed_probes, 2u);
}

TEST_F(LoaderEdgeTest, MixedArchPreloadIsSkipped) {
  elf::Object foreign = make_library("libtool.so");
  foreign.machine = elf::Machine::AArch64;
  install_object(fs_, "/usr/lib/libtool.so", foreign);
  install_object(fs_, "/bin/app", make_executable({}));
  Environment env;
  env.ld_preload = {"libtool.so"};
  Loader loader(fs_);
  const auto report = loader.load("/bin/app", env);
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.load_order.size(), 1u);  // preload skipped, not fatal
}

TEST_F(LoaderEdgeTest, EmptyNeededListIsFine) {
  install_object(fs_, "/bin/min", make_executable({}));
  Loader loader(fs_);
  const auto report = loader.load("/bin/min");
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.stats.open_calls, 1u);
  EXPECT_EQ(report.requests.size(), 0u);
}

TEST_F(LoaderEdgeTest, DuplicateNeededEntriesLoadOnce) {
  install_object(fs_, "/l/libx.so", make_library("libx.so"));
  install_object(fs_, "/bin/app",
                 make_executable({"libx.so", "libx.so", "libx.so"}, {"/l"}));
  Loader loader(fs_);
  const auto report = loader.load("/bin/app");
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.load_order.size(), 2u);
  EXPECT_EQ(report.requests.size(), 3u);
}

}  // namespace
}  // namespace depchaos::loader
