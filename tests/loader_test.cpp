#include <gtest/gtest.h>

#include "depchaos/elf/patcher.hpp"
#include "depchaos/loader/loader.hpp"
#include "depchaos/vfs/vfs.hpp"

namespace depchaos::loader {
namespace {

using elf::install_object;
using elf::make_executable;
using elf::make_library;

// Every observable field of a report (objects, edges, counters, probe
// log) as one string, so two loads compare with a single EXPECT_EQ.
std::string describe(const LoadReport& report) {
  std::string out = report.success ? "success\n" : "failure\n";
  for (const auto* list :
       {&report.load_order, &report.requests, &report.missing}) {
    for (const auto& obj : *list) {
      out += obj.name + " | " + obj.path + " | " + obj.real_path + " | " +
             obj.requested_by + " | " + std::string(how_found_name(obj.how)) +
             " | " + std::string(how_found_name(obj.cache_search_how)) + "\n";
    }
    out += "--\n";
  }
  const auto& stats = report.stats;
  out += std::to_string(stats.stat_calls) + " " +
         std::to_string(stats.open_calls) + " " +
         std::to_string(stats.read_calls) + " " +
         std::to_string(stats.readlink_calls) + " " +
         std::to_string(stats.failed_probes) + "\n";
  for (const auto& line : report.probe_log) out += line + "\n";
  return out;
}

class LoaderTest : public ::testing::Test {
 protected:
  vfs::FileSystem fs_;

  Loader glibc(SearchConfig config = {}) {
    return Loader(fs_, std::move(config), Dialect::Glibc);
  }
  Loader musl(SearchConfig config = {}) {
    return Loader(fs_, std::move(config), Dialect::Musl);
  }
};

// ----------------------------------------------------------- fundamentals

TEST_F(LoaderTest, LoadsExecutableWithNoDeps) {
  install_object(fs_, "/bin/app", make_executable({}));
  auto loader = glibc();
  const auto report = loader.load("/bin/app");
  EXPECT_TRUE(report.success);
  ASSERT_EQ(report.load_order.size(), 1u);
  EXPECT_EQ(report.load_order[0].how, HowFound::Root);
}

TEST_F(LoaderTest, MissingExecutableThrows) {
  auto loader = glibc();
  EXPECT_THROW(loader.load("/bin/nope"), FsError);
}

TEST_F(LoaderTest, NonSelfExecutableThrows) {
  fs_.write_file("/bin/script", std::string("#!/bin/sh\n"));
  auto loader = glibc();
  EXPECT_THROW(loader.load("/bin/script"), ElfError);
}

TEST_F(LoaderTest, FindsLibInRunpath) {
  install_object(fs_, "/app/lib/libx.so", make_library("libx.so"));
  install_object(fs_, "/app/bin/app",
                 make_executable({"libx.so"}, {"/app/lib"}));
  auto loader = glibc();
  const auto report = loader.load("/app/bin/app");
  ASSERT_TRUE(report.success);
  ASSERT_EQ(report.load_order.size(), 2u);
  EXPECT_EQ(report.load_order[1].how, HowFound::Runpath);
  EXPECT_EQ(report.load_order[1].path, "/app/lib/libx.so");
}

TEST_F(LoaderTest, MissingDependencyReportsFailure) {
  install_object(fs_, "/bin/app", make_executable({"libmissing.so"}));
  auto loader = glibc();
  const auto report = loader.load("/bin/app");
  EXPECT_FALSE(report.success);
  ASSERT_EQ(report.missing.size(), 1u);
  EXPECT_EQ(report.missing[0].name, "libmissing.so");
  EXPECT_EQ(report.missing[0].how, HowFound::NotFound);
}

TEST_F(LoaderTest, AbsoluteNeededPathLoadsDirectly) {
  install_object(fs_, "/exact/libx.so", make_library("libx.so"));
  install_object(fs_, "/bin/app", make_executable({"/exact/libx.so"}));
  auto loader = glibc();
  const auto report = loader.load("/bin/app");
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.load_order[1].how, HowFound::AbsolutePath);
}

TEST_F(LoaderTest, BfsLoadOrder) {
  // app -> (a, b); a -> c. BFS: app, a, b, c.
  install_object(fs_, "/l/libc1.so", make_library("libc1.so"));
  install_object(fs_, "/l/liba.so",
                 make_library("liba.so", {"libc1.so"}, {"/l"}));
  install_object(fs_, "/l/libb.so", make_library("libb.so"));
  install_object(fs_, "/bin/app",
                 make_executable({"liba.so", "libb.so"}, {"/l"}));
  auto loader = glibc();
  const auto report = loader.load("/bin/app");
  ASSERT_TRUE(report.success);
  ASSERT_EQ(report.load_order.size(), 4u);
  EXPECT_EQ(report.load_order[1].name, "liba.so");
  EXPECT_EQ(report.load_order[2].name, "libb.so");
  EXPECT_EQ(report.load_order[3].name, "libc1.so");
  EXPECT_EQ(report.load_order[3].depth, 2);
}

// --------------------------------------------------------------- Table I

TEST_F(LoaderTest, TableI_RpathBeforeLdLibraryPath) {
  install_object(fs_, "/rp/libx.so", make_library("libx.so"));
  install_object(fs_, "/env/libx.so", make_library("libx.so"));
  install_object(fs_, "/bin/app",
                 make_executable({"libx.so"}, {}, {"/rp"}));
  auto loader = glibc();
  const auto report =
      loader.load("/bin/app", Environment::with_library_path({"/env"}));
  EXPECT_EQ(report.load_order[1].path, "/rp/libx.so");
  EXPECT_EQ(report.load_order[1].how, HowFound::Rpath);
}

TEST_F(LoaderTest, TableI_LdLibraryPathBeforeRunpath) {
  install_object(fs_, "/rp/libx.so", make_library("libx.so"));
  install_object(fs_, "/env/libx.so", make_library("libx.so"));
  install_object(fs_, "/bin/app", make_executable({"libx.so"}, {"/rp"}));
  auto loader = glibc();
  const auto report =
      loader.load("/bin/app", Environment::with_library_path({"/env"}));
  EXPECT_EQ(report.load_order[1].path, "/env/libx.so");
  EXPECT_EQ(report.load_order[1].how, HowFound::LdLibraryPath);
}

TEST_F(LoaderTest, TableI_RpathPropagatesToDependencies) {
  // liby.so is needed by libx.so; only the EXECUTABLE's RPATH names its dir.
  install_object(fs_, "/deep/liby.so", make_library("liby.so"));
  install_object(fs_, "/l/libx.so", make_library("libx.so", {"liby.so"}));
  install_object(fs_, "/bin/app",
                 make_executable({"libx.so"}, {}, {"/l", "/deep"}));
  auto loader = glibc();
  const auto report = loader.load("/bin/app");
  ASSERT_TRUE(report.success);
  const auto* y = report.find_loaded("liby.so");
  ASSERT_NE(y, nullptr);
  EXPECT_EQ(y->how, HowFound::RpathAncestor);
}

TEST_F(LoaderTest, TableI_RunpathDoesNotPropagate) {
  install_object(fs_, "/deep/liby.so", make_library("liby.so"));
  install_object(fs_, "/l/libx.so", make_library("libx.so", {"liby.so"}));
  install_object(fs_, "/bin/app",
                 make_executable({"libx.so"}, {"/l", "/deep"}));  // RUNPATH
  auto loader = glibc();
  const auto report = loader.load("/bin/app");
  EXPECT_FALSE(report.success);
  ASSERT_EQ(report.missing.size(), 1u);
  EXPECT_EQ(report.missing[0].name, "liby.so");
}

TEST_F(LoaderTest, RunpathOnRequesterDisablesItsRpathChain) {
  // The ROCm mechanism in miniature: the requesting library carries a
  // RUNPATH, so the executable's RPATH no longer applies to its lookups.
  install_object(fs_, "/good/liby.so", make_library("liby.so"));
  install_object(fs_, "/other/libz.so", make_library("libz.so"));
  elf::Object libx = make_library("libx.so", {"liby.so"});
  libx.dyn.runpath = {"/other"};  // present but useless for liby
  install_object(fs_, "/l/libx.so", libx);
  install_object(fs_, "/bin/app",
                 make_executable({"libx.so"}, {}, {"/l", "/good"}));
  auto loader = glibc();
  const auto report = loader.load("/bin/app");
  EXPECT_FALSE(report.success);  // liby not findable: RPATH chain disabled
}

TEST_F(LoaderTest, AncestorWithRunpathContributesNoRpath) {
  // Chain: app(RUNPATH) -> libmid(RPATH /deep) -> liby. libmid's own RPATH
  // applies (it has no RUNPATH); the app's RPATH would be ignored anyway.
  install_object(fs_, "/deep/liby.so", make_library("liby.so"));
  install_object(fs_, "/l/libmid.so",
                 make_library("libmid.so", {"liby.so"}, {}, {"/deep"}));
  install_object(fs_, "/bin/app", make_executable({"libmid.so"}, {"/l"}));
  auto loader = glibc();
  const auto report = loader.load("/bin/app");
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.find_loaded("liby.so")->how, HowFound::Rpath);
}

// ------------------------------------------------------------ dedup rules

TEST_F(LoaderTest, GlibcDedupsBySonameAcrossAbsoluteAndBare) {
  // Fig 5: exe needs /abs path; a transitive object requests the bare
  // soname; glibc satisfies it from the cache.
  install_object(fs_, "/store/libac.so", make_library("libac.so"));
  install_object(fs_, "/store/libxyz.so",
                 make_library("libxyz.so", {"libac.so"}));
  install_object(fs_, "/bin/app",
                 make_executable({"/store/libac.so", "/store/libxyz.so"}));
  auto loader = glibc();
  const auto report = loader.load("/bin/app");
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.load_order.size(), 3u);  // no duplicate libac
  const auto& last_request = report.requests.back();
  EXPECT_EQ(last_request.name, "libac.so");
  EXPECT_EQ(last_request.how, HowFound::Cache);
}

TEST_F(LoaderTest, MuslDoesNotDedupBySoname) {
  // Same layout as above but under musl: the bare-soname request is NOT
  // satisfied from cache; the search fails (store dir is not searched).
  install_object(fs_, "/store/libac.so", make_library("libac.so"));
  install_object(fs_, "/store/libxyz.so",
                 make_library("libxyz.so", {"libac.so"}));
  install_object(fs_, "/bin/app",
                 make_executable({"/store/libac.so", "/store/libxyz.so"}));
  auto loader = musl();
  const auto report = loader.load("/bin/app");
  EXPECT_FALSE(report.success);
  ASSERT_EQ(report.missing.size(), 1u);
  EXPECT_EQ(report.missing[0].name, "libac.so");
}

TEST_F(LoaderTest, MuslDedupsByInodeWhenSearchFindsSameFile) {
  install_object(fs_, "/l/libac.so", make_library("libac.so"));
  install_object(fs_, "/l/libxyz.so",
                 make_library("libxyz.so", {"libac.so"}, {}, {"/l"}));
  install_object(fs_, "/bin/app",
                 make_executable({"/l/libac.so", "libxyz.so"}, {}, {"/l"}));
  auto loader = musl();
  const auto report = loader.load("/bin/app");
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.load_order.size(), 3u);  // libac loaded once (inode dedup)
  EXPECT_EQ(report.requests.back().how, HowFound::Cache);
}

TEST_F(LoaderTest, SymlinkAliasesDedupByRealpath) {
  install_object(fs_, "/real/libx.so.1.2", make_library("libx.so"));
  fs_.symlink("/real/libx.so.1.2", "/real/libx.so");
  install_object(fs_, "/bin/app",
                 make_executable({"/real/libx.so", "/real/libx.so.1.2"}));
  auto loader = glibc();
  const auto report = loader.load("/bin/app");
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.load_order.size(), 2u);
}

TEST_F(LoaderTest, SameNameRequestedTwiceLoadsOnce) {
  install_object(fs_, "/l/libx.so", make_library("libx.so"));
  install_object(fs_, "/l/liba.so", make_library("liba.so", {"libx.so"}, {"/l"}));
  install_object(fs_, "/l/libb.so", make_library("libb.so", {"libx.so"}, {"/l"}));
  install_object(fs_, "/bin/app",
                 make_executable({"liba.so", "libb.so", "libx.so"}, {"/l"}));
  auto loader = glibc();
  const auto report = loader.load("/bin/app");
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.load_order.size(), 4u);
  int cache_hits = 0;
  for (const auto& request : report.requests) {
    if (request.how == HowFound::Cache) ++cache_hits;
  }
  EXPECT_EQ(cache_hits, 2);
}

// -------------------------------------------------- musl melded search

TEST_F(LoaderTest, MuslSearchesLdLibraryPathBeforeRpath) {
  install_object(fs_, "/rp/libx.so", make_library("libx.so"));
  install_object(fs_, "/env/libx.so", make_library("libx.so"));
  install_object(fs_, "/bin/app", make_executable({"libx.so"}, {}, {"/rp"}));
  auto loader = musl();
  const auto report =
      loader.load("/bin/app", Environment::with_library_path({"/env"}));
  EXPECT_EQ(report.load_order[1].path, "/env/libx.so");
}

TEST_F(LoaderTest, MuslRunpathPropagates) {
  // Would fail under glibc (RUNPATH doesn't propagate); musl's meld works.
  install_object(fs_, "/deep/liby.so", make_library("liby.so"));
  install_object(fs_, "/l/libx.so", make_library("libx.so", {"liby.so"}));
  install_object(fs_, "/bin/app",
                 make_executable({"libx.so"}, {"/l", "/deep"}));
  auto loader = musl();
  const auto report = loader.load("/bin/app");
  EXPECT_TRUE(report.success);
}

// ----------------------------------------------- $ORIGIN, hwcaps, arch

TEST_F(LoaderTest, OriginExpansionInRunpath) {
  install_object(fs_, "/apps/x/lib/libx.so", make_library("libx.so"));
  install_object(fs_, "/apps/x/bin/app",
                 make_executable({"libx.so"}, {"$ORIGIN/../lib"}));
  auto loader = glibc();
  const auto report = loader.load("/apps/x/bin/app");
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.load_order[1].path, "/apps/x/lib/libx.so");
}

TEST_F(LoaderTest, OriginBracedForm) {
  install_object(fs_, "/apps/x/lib/libx.so", make_library("libx.so"));
  install_object(fs_, "/apps/x/bin/app",
                 make_executable({"libx.so"}, {"${ORIGIN}/../lib"}));
  auto loader = glibc();
  EXPECT_TRUE(loader.load("/apps/x/bin/app").success);
}

TEST_F(LoaderTest, OriginExpandsRelativeToTheObjectThatSaysIt) {
  install_object(fs_, "/pkg/lib/liby.so", make_library("liby.so"));
  install_object(fs_, "/pkg/lib/libx.so",
                 make_library("libx.so", {"liby.so"}, {"$ORIGIN"}));
  install_object(fs_, "/bin/app",
                 make_executable({"libx.so"}, {"/pkg/lib"}));
  auto loader = glibc();
  const auto report = loader.load("/bin/app");
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.find_loaded("liby.so")->path, "/pkg/lib/liby.so");
}

TEST_F(LoaderTest, HwcapsSubdirPreferred) {
  install_object(fs_, "/l/libx.so", make_library("libx.so"));
  install_object(fs_, "/l/glibc-hwcaps/x86-64-v3/libx.so",
                 make_library("libx.so"));
  SearchConfig config;
  config.hwcaps = {"glibc-hwcaps/x86-64-v3"};
  install_object(fs_, "/bin/app", make_executable({"libx.so"}, {"/l"}));
  auto loader = glibc(config);
  const auto report = loader.load("/bin/app");
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.load_order[1].path, "/l/glibc-hwcaps/x86-64-v3/libx.so");
}

TEST_F(LoaderTest, MuslIgnoresHwcaps) {
  install_object(fs_, "/l/libx.so", make_library("libx.so"));
  install_object(fs_, "/l/glibc-hwcaps/x86-64-v3/libx.so",
                 make_library("libx.so"));
  SearchConfig config;
  config.hwcaps = {"glibc-hwcaps/x86-64-v3"};
  install_object(fs_, "/bin/app", make_executable({"libx.so"}, {}, {"/l"}));
  auto loader = musl(config);
  const auto report = loader.load("/bin/app");
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.load_order[1].path, "/l/libx.so");
}

TEST_F(LoaderTest, WrongArchitectureSilentlySkipped) {
  // A 32-bit libx.so earlier in the search path must be skipped and the
  // x86_64 one found in a later directory (§IV).
  elf::Object lib32 = make_library("libx.so");
  lib32.machine = elf::Machine::X86;
  install_object(fs_, "/lib32/libx.so", lib32);
  install_object(fs_, "/lib64dir/libx.so", make_library("libx.so"));
  install_object(fs_, "/bin/app",
                 make_executable({"libx.so"}, {"/lib32", "/lib64dir"}));
  auto loader = glibc();
  const auto report = loader.load("/bin/app");
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.load_order[1].path, "/lib64dir/libx.so");
}

TEST_F(LoaderTest, NonElfFileInSearchPathSkipped) {
  fs_.write_file("/l1/libx.so", std::string("not an object"));
  install_object(fs_, "/l2/libx.so", make_library("libx.so"));
  install_object(fs_, "/bin/app", make_executable({"libx.so"}, {"/l1", "/l2"}));
  auto loader = glibc();
  const auto report = loader.load("/bin/app");
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.load_order[1].path, "/l2/libx.so");
}

// A probe reads a candidate's architecture from the loader's parsed-object
// cache, so a second load answers from verdicts the first one cached. The
// three tests below pin what that may and may not change.

TEST_F(LoaderTest, CachedProbeVerdictsRepeatOnTheSameLoader) {
  elf::Object lib32 = make_library("libx.so");
  lib32.machine = elf::Machine::X86;
  install_object(fs_, "/lib32/libx.so", lib32);
  fs_.write_file("/junk/libx.so", std::string("not an object"));
  install_object(fs_, "/lib64dir/libx.so", make_library("libx.so"));
  install_object(
      fs_, "/bin/app",
      make_executable({"libx.so"}, {"/lib32", "/junk", "/lib64dir"}));
  SearchConfig config;
  config.record_probes = true;
  auto loader = glibc(config);
  const auto first = loader.load("/bin/app");
  const auto second = loader.load("/bin/app");
  ASSERT_TRUE(first.success);
  EXPECT_EQ(first.load_order[1].path, "/lib64dir/libx.so");
  const std::vector<std::string> probes = {
      "trying /lib32/libx.so ... wrong architecture, skipped",
      "trying /junk/libx.so ... not an object, skipped",
      "trying /lib64dir/libx.so ... found"};
  EXPECT_EQ(first.probe_log, probes);
  EXPECT_EQ(first.stats.open_calls, 4u);  // exe + three candidates
  EXPECT_EQ(describe(second), describe(first));
  // A fresh loader (nothing cached) agrees with both.
  EXPECT_EQ(describe(glibc(config).load("/bin/app")), describe(first));
}

TEST_F(LoaderTest, MalformedCandidateThrowsAtEveryLoad) {
  // A parse that fails caches nothing, so the probe re-reads the image and
  // throws again on the next load of the same loader.
  fs_.write_file("/bad/libx.so", std::string("SELF1\nbogus\nend\n"));
  install_object(fs_, "/good/libx.so", make_library("libx.so"));
  install_object(fs_, "/bin/app",
                 make_executable({"libx.so"}, {"/bad", "/good"}));
  auto loader = glibc();
  EXPECT_THROW(loader.load("/bin/app"), ElfError);
  EXPECT_THROW(loader.load("/bin/app"), ElfError);
}

TEST_F(LoaderTest, RewrittenWrongArchitectureCandidateNeedsInvalidate) {
  elf::Object lib32 = make_library("libx.so");
  lib32.machine = elf::Machine::X86;
  install_object(fs_, "/lib32/libx.so", lib32);
  install_object(fs_, "/lib64dir/libx.so", make_library("libx.so"));
  install_object(fs_, "/bin/app",
                 make_executable({"libx.so"}, {"/lib32", "/lib64dir"}));
  auto loader = glibc();
  ASSERT_EQ(loader.load("/bin/app").load_order[1].path, "/lib64dir/libx.so");

  // Rebuilt for x86_64 in place. Like every parsed object, the skipped
  // one's cached verdict stands until invalidate().
  install_object(fs_, "/lib32/libx.so", make_library("libx.so"));
  EXPECT_EQ(loader.load("/bin/app").load_order[1].path, "/lib64dir/libx.so");
  loader.invalidate();
  const auto report = loader.load("/bin/app");
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.load_order[1].path, "/lib32/libx.so");
}

// -------------------------------------------- system paths & ld.so.cache

TEST_F(LoaderTest, DefaultPathFallback) {
  install_object(fs_, "/usr/lib/libsys.so", make_library("libsys.so"));
  install_object(fs_, "/bin/app", make_executable({"libsys.so"}));
  auto loader = glibc();
  const auto report = loader.load("/bin/app");
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.load_order[1].how, HowFound::DefaultPath);
}

TEST_F(LoaderTest, LdSoConfBeforeDefaults) {
  install_object(fs_, "/opt/conf/libsys.so", make_library("libsys.so"));
  install_object(fs_, "/usr/lib/libsys.so", make_library("libsys.so"));
  SearchConfig config;
  config.ld_so_conf = {"/opt/conf"};
  install_object(fs_, "/bin/app", make_executable({"libsys.so"}));
  auto loader = glibc(config);
  const auto report = loader.load("/bin/app");
  EXPECT_EQ(report.load_order[1].how, HowFound::LdSoConf);
  EXPECT_EQ(report.load_order[1].path, "/opt/conf/libsys.so");
}

TEST_F(LoaderTest, LdCacheCostsOneOpenPerHit) {
  install_object(fs_, "/usr/lib/libsys.so", make_library("libsys.so"));
  install_object(fs_, "/bin/app", make_executable({"libsys.so"}));
  auto loader = glibc();
  const auto report = loader.load("/bin/app");
  // exe open + lib open: the cache lookup itself is free.
  EXPECT_EQ(report.stats.open_calls, 2u);
}

TEST_F(LoaderTest, NoCacheModeProbesDirectories) {
  install_object(fs_, "/usr/lib/libsys.so", make_library("libsys.so"));
  install_object(fs_, "/bin/app", make_executable({"libsys.so"}));
  SearchConfig config;
  config.use_ld_cache = false;
  auto loader = glibc(config);
  const auto report = loader.load("/bin/app");
  ASSERT_TRUE(report.success);
  // defaults: /lib64, /usr/lib64, /lib fail before /usr/lib hits; + exe.
  EXPECT_GT(report.stats.open_calls, 2u);
}

TEST_F(LoaderTest, StaleCacheInvalidatedExplicitly) {
  install_object(fs_, "/usr/lib/libsys.so", make_library("libsys.so"));
  install_object(fs_, "/bin/app", make_executable({"libsys.so"}));
  auto loader = glibc();
  ASSERT_TRUE(loader.load("/bin/app").success);
  elf::Patcher patcher(fs_);
  patcher.set_needed("/bin/app", {"libnew.so"});
  install_object(fs_, "/usr/lib/libnew.so", make_library("libnew.so"));
  loader.invalidate();
  const auto report = loader.load("/bin/app");
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.load_order[1].name, "libnew.so");
}

TEST_F(LoaderTest, LdCacheSpellsPathsLikeTheDirectorySweep) {
  // ld.so.cache entries carry the interned spelling of their path, so any
  // spelling of a conf dir reports what the cache-off sweep reports.
  install_object(fs_, "/opt/lib/libsys.so",
                 make_library("libsys.so", {"libdep.so"}));
  install_object(fs_, "/opt/lib/libdep.so", make_library("libdep.so"));
  install_object(fs_, "/bin/app", make_executable({"libsys.so"}));
  for (const char* conf :
       {"/opt/lib", "/opt/lib/", "/opt//lib", "/opt/./lib"}) {
    SearchConfig config;
    config.ld_so_conf = {conf};
    config.record_probes = true;
    auto cached = glibc(config);
    config.use_ld_cache = false;
    auto swept = glibc(config);
    const auto a = cached.load("/bin/app");
    const auto b = swept.load("/bin/app");
    ASSERT_TRUE(a.success && b.success) << conf;
    ASSERT_EQ(a.load_order.size(), 3u) << conf;
    ASSERT_EQ(b.load_order.size(), 3u) << conf;
    for (std::size_t i = 0; i < a.load_order.size(); ++i) {
      EXPECT_EQ(a.load_order[i].path, b.load_order[i].path) << conf;
      EXPECT_EQ(a.load_order[i].how, b.load_order[i].how) << conf;
    }
    EXPECT_EQ(a.load_order[1].path, "/opt/lib/libsys.so") << conf;
    EXPECT_EQ(a.probe_log, b.probe_log) << conf;
  }
}

// --------------------------------------------------------------- preload

TEST_F(LoaderTest, PreloadLoadsBeforeNeeded) {
  install_object(fs_, "/usr/lib/libtool.so", make_library("libtool.so"));
  install_object(fs_, "/l/libx.so", make_library("libx.so"));
  install_object(fs_, "/bin/app", make_executable({"libx.so"}, {"/l"}));
  Environment env;
  env.ld_preload = {"libtool.so"};
  auto loader = glibc();
  const auto report = loader.load("/bin/app", env);
  ASSERT_TRUE(report.success);
  ASSERT_GE(report.load_order.size(), 3u);
  EXPECT_EQ(report.load_order[1].name, "libtool.so");
  EXPECT_EQ(report.load_order[1].how, HowFound::Preload);
}

TEST_F(LoaderTest, PreloadByAbsolutePath) {
  install_object(fs_, "/tools/libpmpi.so", make_library("libpmpi.so"));
  install_object(fs_, "/bin/app", make_executable({}));
  Environment env;
  env.ld_preload = {"/tools/libpmpi.so"};
  auto loader = glibc();
  const auto report = loader.load("/bin/app", env);
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.load_order[1].path, "/tools/libpmpi.so");
}

TEST_F(LoaderTest, MissingPreloadWarnsButContinues) {
  install_object(fs_, "/bin/app", make_executable({}));
  Environment env;
  env.ld_preload = {"libgone.so"};
  auto loader = glibc();
  const auto report = loader.load("/bin/app", env);
  EXPECT_TRUE(report.success);  // glibc behaviour: warn, keep going
  EXPECT_EQ(report.load_order.size(), 1u);
}

TEST_F(LoaderTest, PreloadDependenciesAreLoaded) {
  install_object(fs_, "/usr/lib/libdep.so", make_library("libdep.so"));
  install_object(fs_, "/usr/lib/libtool.so",
                 make_library("libtool.so", {"libdep.so"}));
  install_object(fs_, "/bin/app", make_executable({}));
  Environment env;
  env.ld_preload = {"libtool.so"};
  auto loader = glibc();
  const auto report = loader.load("/bin/app", env);
  ASSERT_TRUE(report.success);
  EXPECT_NE(report.find_loaded("libdep.so"), nullptr);
}

// ---------------------------------------------------------------- dlopen

TEST_F(LoaderTest, DlopenUsesCallerRunpath) {
  install_object(fs_, "/qt/plugins/libplug.so", make_library("libplug.so"));
  install_object(fs_, "/qt/lib/libgui.so",
                 make_library("libgui.so", {}, {"/qt/plugins"}));
  install_object(fs_, "/bin/app", make_executable({"libgui.so"}, {"/qt/lib"}));
  auto loader = glibc();
  auto report = loader.load("/bin/app");
  ASSERT_TRUE(report.success);
  const auto plug = loader.dlopen(report, "/qt/lib/libgui.so", "libplug.so");
  EXPECT_EQ(plug.how, HowFound::Runpath);
}

TEST_F(LoaderTest, DlopenSeesExecutableRpathViaAncestry) {
  install_object(fs_, "/qt/plugins/libplug.so", make_library("libplug.so"));
  install_object(fs_, "/qt/lib/libgui.so", make_library("libgui.so"));
  install_object(fs_, "/bin/app", make_executable({"libgui.so"}, {},
                                                  {"/qt/lib", "/qt/plugins"}));
  auto loader = glibc();
  auto report = loader.load("/bin/app");
  ASSERT_TRUE(report.success);
  const auto plug = loader.dlopen(report, "/qt/lib/libgui.so", "libplug.so");
  EXPECT_EQ(plug.how, HowFound::RpathAncestor);
}

TEST_F(LoaderTest, DlopenDoesNotSeeExecutableRunpath) {
  // The Qt plugin trap (§III-A): the app's RUNPATH does NOT reach a dlopen
  // issued inside libgui.
  install_object(fs_, "/qt/plugins/libplug.so", make_library("libplug.so"));
  install_object(fs_, "/qt/lib/libgui.so", make_library("libgui.so"));
  install_object(fs_, "/bin/app",
                 make_executable({"libgui.so"}, {"/qt/lib", "/qt/plugins"}));
  auto loader = glibc();
  auto report = loader.load("/bin/app");
  ASSERT_TRUE(report.success);
  const auto plug = loader.dlopen(report, "/qt/lib/libgui.so", "libplug.so");
  EXPECT_EQ(plug.how, HowFound::NotFound);
}

TEST_F(LoaderTest, DlopenAbsolutePath) {
  install_object(fs_, "/p/libplug.so", make_library("libplug.so"));
  install_object(fs_, "/bin/app", make_executable({}));
  auto loader = glibc();
  auto report = loader.load("/bin/app");
  const auto plug = loader.dlopen(report, "/bin/app", "/p/libplug.so");
  EXPECT_EQ(plug.how, HowFound::AbsolutePath);
  EXPECT_NE(report.find_loaded("/p/libplug.so"), nullptr);
}

TEST_F(LoaderTest, DlopenLoadsTransitiveDeps) {
  install_object(fs_, "/usr/lib/libleaf.so", make_library("libleaf.so"));
  install_object(fs_, "/p/libplug.so", make_library("libplug.so", {"libleaf.so"}));
  install_object(fs_, "/bin/app", make_executable({}));
  auto loader = glibc();
  auto report = loader.load("/bin/app");
  (void)loader.dlopen(report, "/bin/app", "/p/libplug.so");
  EXPECT_NE(report.find_loaded("libleaf.so"), nullptr);
}

TEST_F(LoaderTest, DlopenProbesReachTheProbeLog) {
  install_object(fs_, "/p/libplug.so", make_library("libplug.so"));
  install_object(fs_, "/bin/app", make_executable({}, {"/nowhere", "/p"}));
  SearchConfig config;
  config.record_probes = true;
  auto loader = glibc(config);
  auto report = loader.load("/bin/app");
  ASSERT_TRUE(report.probe_log.empty());
  const auto plug = loader.dlopen(report, "/bin/app", "libplug.so");
  EXPECT_EQ(plug.how, HowFound::Runpath);
  EXPECT_EQ(report.probe_log,
            (std::vector<std::string>{"trying /nowhere/libplug.so ... ENOENT",
                                      "trying /p/libplug.so ... found"}));
}

TEST_F(LoaderTest, DlopenUnknownCallerThrows) {
  install_object(fs_, "/bin/app", make_executable({}));
  auto loader = glibc();
  auto report = loader.load("/bin/app");
  EXPECT_THROW(loader.dlopen(report, "/not/loaded.so", "libx.so"), Error);
}

// --------------------------------------------------- request trace detail

TEST_F(LoaderTest, RequestsIncludeCacheHitsInOrder) {
  install_object(fs_, "/l/libshared.so", make_library("libshared.so"));
  install_object(fs_, "/l/liba.so",
                 make_library("liba.so", {"libshared.so"}, {"/l"}));
  install_object(fs_, "/bin/app",
                 make_executable({"liba.so", "libshared.so"}, {"/l"}));
  auto loader = glibc();
  const auto report = loader.load("/bin/app");
  ASSERT_EQ(report.requests.size(), 3u);
  EXPECT_EQ(report.requests[0].name, "liba.so");
  EXPECT_EQ(report.requests[1].name, "libshared.so");
  EXPECT_NE(report.requests[1].how, HowFound::Cache);
  EXPECT_EQ(report.requests[2].name, "libshared.so");
  EXPECT_EQ(report.requests[2].how, HowFound::Cache);
}

TEST_F(LoaderTest, ClassifyCacheHitsDoesNotPerturbStats) {
  install_object(fs_, "/l/libshared.so", make_library("libshared.so"));
  install_object(fs_, "/l/liba.so",
                 make_library("liba.so", {"libshared.so"}, {"/l"}));
  install_object(fs_, "/bin/app",
                 make_executable({"liba.so", "libshared.so"}, {"/l"}));

  auto plain = glibc();
  const auto baseline = plain.load("/bin/app");

  SearchConfig config;
  config.classify_cache_hits = true;
  auto classifying = glibc(config);
  const auto classified = classifying.load("/bin/app");

  EXPECT_EQ(baseline.stats.metadata_calls(), classified.stats.metadata_calls());
  EXPECT_EQ(classified.requests[2].cache_search_how, HowFound::Runpath);
}

TEST_F(LoaderTest, ClassifyCacheHitsSurvivesAFailingShadowSearch) {
  // libb's edge to libx.so is a dedup hit, so the measured load never
  // opens /bad/libx.so; only libb's own (what-if) search would, and that
  // image is malformed.
  install_object(fs_, "/good/libx.so", make_library("libx.so"));
  fs_.write_file("/bad/libx.so", std::string("SELF1\nbogus\nend\n"));
  install_object(fs_, "/good/liba.so",
                 make_library("liba.so", {"libx.so"}, {"/good"}));
  install_object(fs_, "/good/libb.so",
                 make_library("libb.so", {"libx.so"}, {"/bad", "/good"}));
  install_object(fs_, "/bin/app",
                 make_executable({"liba.so", "libb.so"}, {"/good"}));

  SearchConfig config;
  config.record_probes = true;
  const auto plain = glibc(config).load("/bin/app");
  ASSERT_TRUE(plain.success);
  EXPECT_EQ(plain.stats.metadata_calls(), 4u);

  config.classify_cache_hits = true;
  auto classifying = glibc(config);
  LoadReport classified;
  ASSERT_NO_THROW(classified = classifying.load("/bin/app"));
  ASSERT_TRUE(classified.success);
  ASSERT_EQ(classified.load_order.size(), plain.load_order.size());
  for (std::size_t i = 0; i < plain.load_order.size(); ++i) {
    EXPECT_EQ(classified.load_order[i].path, plain.load_order[i].path);
  }
  EXPECT_EQ(classified.stats.metadata_calls(), plain.stats.metadata_calls());
  EXPECT_EQ(classified.stats.read_calls, plain.stats.read_calls);
  EXPECT_EQ(classified.probe_log, plain.probe_log);

  const LoadedObject* libb_edge = nullptr;
  for (const auto& request : classified.requests) {
    if (request.name == "libx.so" && request.requested_by == "/good/libb.so") {
      libb_edge = &request;
    }
  }
  ASSERT_NE(libb_edge, nullptr);
  EXPECT_EQ(libb_edge->how, HowFound::Cache);
  EXPECT_EQ(libb_edge->cache_search_how, HowFound::NotFound);

  // Counting came back on: the next load on this filesystem is measured.
  EXPECT_TRUE(fs_.counting());
  EXPECT_EQ(glibc().load("/bin/app").stats.metadata_calls(), 4u);
}

TEST_F(LoaderTest, StatsAreDeltaPerLoad) {
  install_object(fs_, "/l/libx.so", make_library("libx.so"));
  install_object(fs_, "/bin/app", make_executable({"libx.so"}, {"/l"}));
  auto loader = glibc();
  const auto first = loader.load("/bin/app");
  const auto second = loader.load("/bin/app");
  EXPECT_EQ(first.stats.open_calls, second.stats.open_calls);
}

// ------------------------------------------------- search-cost arithmetic

TEST_F(LoaderTest, SearchCostGrowsWithDirectoryPosition) {
  // lib in the 5th of 5 runpath dirs: 4 failed probes + 1 hit + exe open.
  for (int d = 0; d < 4; ++d) {
    fs_.mkdir_p("/dirs/d" + std::to_string(d));
  }
  install_object(fs_, "/dirs/d4/libx.so", make_library("libx.so"));
  std::vector<std::string> dirs;
  for (int d = 0; d < 5; ++d) dirs.push_back("/dirs/d" + std::to_string(d));
  install_object(fs_, "/bin/app", make_executable({"libx.so"}, dirs));
  auto loader = glibc();
  const auto report = loader.load("/bin/app");
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.stats.open_calls, 1u + 5u);
  EXPECT_EQ(report.stats.failed_probes, 4u);
}

TEST_F(LoaderTest, LoadInternsOnlyProbedCandidates) {
  // libx.so sits in the 3rd of 8 RUNPATH dirs: the sweep stops there, so
  // the candidates in /d3 ... /d7 are never opened and must not be
  // interned either.
  const auto build = [](vfs::FileSystem& fs) {
    std::vector<std::string> dirs;
    for (int d = 0; d < 8; ++d) {
      dirs.push_back("/d" + std::to_string(d));
      fs.mkdir_p(dirs.back());
    }
    install_object(fs, "/d2/libx.so", make_library("libx.so"));
    install_object(fs, "/bin/app", make_executable({"libx.so"}, dirs));
  };
  build(fs_);
  SearchConfig config;
  config.record_probes = true;

  vfs::OpTrace trace;
  const std::size_t before = fs_.paths().size();
  const auto report = [&] {
    vfs::FileSystem::TraceScope scope(fs_, trace);
    return glibc(config).load("/bin/app");
  }();
  const std::size_t after = fs_.paths().size();
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.stats.metadata_calls(), 4u);
  EXPECT_LE(after - before, trace.distinct_paths());

  // A repeat load probes the same paths and interns nothing new.
  glibc(config).load("/bin/app");
  EXPECT_EQ(fs_.paths().size(), after);

  // Results do not depend on interner state: a twin world whose interner
  // already holds every candidate reports the same load.
  vfs::FileSystem twin;
  build(twin);
  for (int d = 0; d < 8; ++d) {
    twin.intern("/d" + std::to_string(d) + "/libx.so");
  }
  const auto warm = Loader(twin, config, Dialect::Glibc).load("/bin/app");
  EXPECT_EQ(describe(warm), describe(report));
}

}  // namespace
}  // namespace depchaos::loader
