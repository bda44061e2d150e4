#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "depchaos/core/world.hpp"
#include "depchaos/elf/patcher.hpp"
#include "depchaos/loader/loader.hpp"
#include "depchaos/vfs/vfs.hpp"

namespace depchaos::vfs {
namespace {

// ------------------------------------------------------------ path utils

TEST(Paths, NormalizeCollapsesAndResolvesDots) {
  EXPECT_EQ(normalize_path("/a//b/./c/../d"), "/a/b/d");
  EXPECT_EQ(normalize_path("/"), "/");
  EXPECT_EQ(normalize_path("/.."), "/");
  EXPECT_EQ(normalize_path("/a/"), "/a");
}

TEST(Paths, NormalizeRejectsRelative) {
  EXPECT_THROW(normalize_path("a/b"), FsError);
  EXPECT_THROW(normalize_path(""), FsError);
}

TEST(Paths, NormalizeDotDotPastRootClampsAtRoot) {
  EXPECT_EQ(normalize_path("/../.."), "/");
  EXPECT_EQ(normalize_path("/../a"), "/a");
  EXPECT_EQ(normalize_path("/a/../../../b"), "/b");
  EXPECT_EQ(normalize_path("/../../../../usr/lib"), "/usr/lib");
}

TEST(Paths, NormalizeTrailingSlashes) {
  EXPECT_EQ(normalize_path("/a/b/"), "/a/b");
  EXPECT_EQ(normalize_path("/a/b///"), "/a/b");
  EXPECT_EQ(normalize_path("//"), "/");
  EXPECT_EQ(normalize_path("/a/../"), "/");
}

TEST(Paths, NormalizeRepeatedSlashes) {
  EXPECT_EQ(normalize_path("//a////b//c"), "/a/b/c");
  EXPECT_EQ(normalize_path("///"), "/");
  EXPECT_EQ(normalize_path("//usr//..//lib"), "/lib");
}

TEST(Paths, NormalizeLoneDot) {
  EXPECT_EQ(normalize_path("/."), "/");
  EXPECT_EQ(normalize_path("/./"), "/");
  EXPECT_EQ(normalize_path("/././."), "/");
  EXPECT_EQ(normalize_path("/a/./b"), "/a/b");
  EXPECT_EQ(normalize_path("/a/."), "/a");
}

// The interner must agree with normalize_path byte-for-byte: charged
// syscall strings come from PathTable::str now.
TEST(Paths, InternMatchesNormalizePath) {
  FileSystem fs;
  for (const char* path :
       {"/a//b/./c/../d", "/", "/..", "/a/", "/../..", "/a/../../../b",
        "//a////b//c", "/././.", "/a/./b", "/usr/lib/libx.so"}) {
    EXPECT_EQ(fs.paths().str(fs.intern(path)), normalize_path(path)) << path;
  }
  EXPECT_THROW(fs.intern("relative/path"), FsError);
  EXPECT_THROW(fs.intern(""), FsError);
}

TEST(Paths, DirnameBasename) {
  EXPECT_EQ(dirname("/a/b/c"), "/a/b");
  EXPECT_EQ(dirname("/a"), "/");
  EXPECT_EQ(basename("/a/b/c"), "c");
  EXPECT_EQ(basename("/"), "/");
}

// ---------------------------------------------------------------- basics

TEST(Vfs, WriteAndPeek) {
  FileSystem fs;
  fs.write_file("/usr/lib/libx.so", std::string("content"));
  const FileData* data = fs.peek("/usr/lib/libx.so");
  ASSERT_NE(data, nullptr);
  EXPECT_EQ(data->bytes, "content");
}

TEST(Vfs, MkdirPIdempotent) {
  FileSystem fs;
  fs.mkdir_p("/a/b/c");
  fs.mkdir_p("/a/b/c");
  EXPECT_TRUE(fs.exists("/a/b/c"));
}

TEST(Vfs, WriteCreatesParents) {
  FileSystem fs;
  fs.write_file("/deep/nested/dir/file", std::string("x"));
  EXPECT_TRUE(fs.exists("/deep/nested/dir"));
}

TEST(Vfs, OverwriteReplacesContent) {
  FileSystem fs;
  fs.write_file("/f", std::string("old"));
  fs.write_file("/f", std::string("new"));
  EXPECT_EQ(fs.peek("/f")->bytes, "new");
}

TEST(Vfs, WriteOverDirectoryThrows) {
  FileSystem fs;
  fs.mkdir_p("/d");
  EXPECT_THROW(fs.write_file("/d", std::string("x")), FsError);
}

TEST(Vfs, DeclaredSizeModelsLargeBinaries) {
  FileSystem fs;
  FileData data;
  data.bytes = "small";
  data.declared_size = 213ull << 20;
  fs.write_file("/big", std::move(data));
  const auto st = fs.stat("/big");
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->size, 213ull << 20);
}

TEST(Vfs, ListDirInsertionOrder) {
  FileSystem fs;
  fs.write_file("/d/z", std::string("1"));
  fs.write_file("/d/a", std::string("2"));
  fs.write_file("/d/m", std::string("3"));
  const auto names = fs.list_dir("/d");
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "z");
  EXPECT_EQ(names[1], "a");
  EXPECT_EQ(names[2], "m");
}

TEST(Vfs, ListDirOnFileThrows) {
  FileSystem fs;
  fs.write_file("/f", std::string("x"));
  EXPECT_THROW(fs.list_dir("/f"), FsError);
}

// --------------------------------------------------------------- symlinks

TEST(Vfs, SymlinkResolvesOnStat) {
  FileSystem fs;
  fs.write_file("/target/file", std::string("x"));
  fs.symlink("/target/file", "/link");
  const auto st = fs.stat("/link");
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->type, NodeType::Regular);
}

TEST(Vfs, LstatDoesNotFollow) {
  FileSystem fs;
  fs.write_file("/t", std::string("x"));
  fs.symlink("/t", "/l");
  const auto st = fs.lstat("/l");
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->type, NodeType::Symlink);
}

TEST(Vfs, RelativeSymlinkTarget) {
  FileSystem fs;
  fs.write_file("/a/b/real", std::string("x"));
  fs.symlink("real", "/a/b/alias");
  EXPECT_EQ(fs.peek("/a/b/alias")->bytes, "x");
}

TEST(Vfs, RelativeSymlinkWithDotDot) {
  FileSystem fs;
  fs.write_file("/pkg/lib/libx.so", std::string("x"));
  fs.symlink("../lib/libx.so", "/pkg/bin/libx.so");
  EXPECT_EQ(fs.peek("/pkg/bin/libx.so")->bytes, "x");
}

TEST(Vfs, SymlinkChain) {
  FileSystem fs;
  fs.write_file("/real", std::string("x"));
  fs.symlink("/real", "/l1");
  fs.symlink("/l1", "/l2");
  fs.symlink("/l2", "/l3");
  EXPECT_EQ(fs.realpath("/l3").value(), "/real");
}

TEST(Vfs, SymlinkLoopDetected) {
  FileSystem fs;
  fs.symlink("/b", "/a");
  fs.symlink("/a", "/b");
  EXPECT_FALSE(fs.exists("/a"));
  EXPECT_FALSE(fs.realpath("/a").has_value());
}

TEST(Vfs, SymlinkedDirectoryTraversal) {
  FileSystem fs;
  fs.write_file("/store/pkg1/lib/libx.so", std::string("x"));
  fs.symlink("/store/pkg1", "/current");
  EXPECT_TRUE(fs.exists("/current/lib/libx.so"));
  EXPECT_EQ(fs.realpath("/current/lib/libx.so").value(),
            "/store/pkg1/lib/libx.so");
}

TEST(Vfs, DanglingSymlinkStatMisses) {
  FileSystem fs;
  fs.symlink("/nowhere", "/l");
  EXPECT_FALSE(fs.stat("/l").has_value());
  EXPECT_TRUE(fs.lstat("/l").has_value());
}

TEST(Vfs, SymlinkOverExistingThrows) {
  FileSystem fs;
  fs.write_file("/f", std::string("x"));
  EXPECT_THROW(fs.symlink("/t", "/f"), FsError);
}

// ------------------------------------------------------ remove and rename

TEST(Vfs, RemoveFile) {
  FileSystem fs;
  fs.write_file("/f", std::string("x"));
  fs.remove("/f");
  EXPECT_FALSE(fs.exists("/f"));
}

TEST(Vfs, RemoveNonEmptyDirRequiresRecursive) {
  FileSystem fs;
  fs.write_file("/d/f", std::string("x"));
  EXPECT_THROW(fs.remove("/d"), FsError);
  fs.remove("/d", /*recursive=*/true);
  EXPECT_FALSE(fs.exists("/d"));
}

TEST(Vfs, RemoveUpdatesInodeCount) {
  FileSystem fs;
  const auto before = fs.inode_count();
  fs.write_file("/d/f", std::string("x"));
  EXPECT_EQ(fs.inode_count(), before + 2);  // dir + file
  fs.remove("/d", true);
  EXPECT_EQ(fs.inode_count(), before);
}

TEST(Vfs, RenameMovesSubtree) {
  FileSystem fs;
  fs.write_file("/old/sub/f", std::string("x"));
  fs.rename("/old", "/new");
  EXPECT_FALSE(fs.exists("/old"));
  EXPECT_EQ(fs.peek("/new/sub/f")->bytes, "x");
}

TEST(Vfs, RenameReplacesFile) {
  FileSystem fs;
  fs.write_file("/a", std::string("A"));
  fs.write_file("/b", std::string("B"));
  fs.rename("/a", "/b");
  EXPECT_FALSE(fs.exists("/a"));
  EXPECT_EQ(fs.peek("/b")->bytes, "A");
}

TEST(Vfs, RenameReplacesSymlinkAtomically) {
  // The store model's profile flip: rename a symlink over a symlink.
  FileSystem fs;
  fs.mkdir_p("/gen1");
  fs.mkdir_p("/gen2");
  fs.symlink("/gen1", "/profiles/current");
  fs.symlink("/gen2", "/profiles/.tmp");
  fs.rename("/profiles/.tmp", "/profiles/current");
  EXPECT_EQ(fs.realpath("/profiles/current").value(), "/gen2");
}

TEST(Vfs, RenameOverDirectoryThrows) {
  FileSystem fs;
  fs.write_file("/f", std::string("x"));
  fs.mkdir_p("/d");
  EXPECT_THROW(fs.rename("/f", "/d"), FsError);
}

// ----------------------------------------------------- syscall accounting

TEST(Vfs, StatCountsAndClassifiesFailures) {
  FileSystem fs;
  fs.write_file("/f", std::string("x"));
  fs.reset_stats();
  (void)fs.stat("/f");
  (void)fs.stat("/missing");
  EXPECT_EQ(fs.stats().stat_calls, 2u);
  EXPECT_EQ(fs.stats().failed_probes, 1u);
}

TEST(Vfs, OpenCountsSeparatelyFromStat) {
  FileSystem fs;
  fs.write_file("/f", std::string("x"));
  fs.reset_stats();
  (void)fs.open("/f");
  EXPECT_EQ(fs.stats().open_calls, 1u);
  EXPECT_EQ(fs.stats().stat_calls, 0u);
}

TEST(Vfs, OpenOnDirectoryIsFailedProbe) {
  FileSystem fs;
  fs.mkdir_p("/d");
  fs.reset_stats();
  EXPECT_EQ(fs.open("/d"), nullptr);
  EXPECT_EQ(fs.stats().failed_probes, 1u);
}

TEST(Vfs, PeekIsUncounted) {
  FileSystem fs;
  fs.write_file("/f", std::string("x"));
  fs.reset_stats();
  (void)fs.peek("/f");
  EXPECT_EQ(fs.stats().metadata_calls(), 0u);
}

TEST(Vfs, CountingToggleSuppressesEverything) {
  FileSystem fs;
  fs.set_latency_model(LatencyModel::local_disk());
  fs.write_file("/f", std::string("x"));
  fs.reset_stats();
  fs.set_counting(false);
  (void)fs.stat("/f");
  (void)fs.open("/missing");
  fs.set_counting(true);
  EXPECT_EQ(fs.stats().metadata_calls(), 0u);
  EXPECT_EQ(fs.stats().sim_time_s, 0.0);
}

// ----------------------------------------------------------- latency model

TEST(Latency, LocalDiskUniformCosts) {
  FileSystem fs;
  fs.set_latency_model(LatencyModel::local_disk());
  fs.write_file("/f", std::string("x"));
  fs.reset_stats();
  (void)fs.stat("/f");
  const double first = fs.stats().sim_time_s;
  (void)fs.stat("/f");
  EXPECT_DOUBLE_EQ(fs.stats().sim_time_s, 2 * first);
}

TEST(Latency, NfsColdThenWarm) {
  FileSystem fs;
  fs.set_latency_model(LatencyModel::nfs());
  fs.write_file("/f", std::string("x"));
  fs.reset_stats();
  (void)fs.stat("/f");
  const double cold = fs.stats().sim_time_s;
  (void)fs.stat("/f");
  const double warm_delta = fs.stats().sim_time_s - cold;
  EXPECT_GT(cold, warm_delta * 10);
}

TEST(Latency, NfsFailedProbesRepay) {
  FileSystem fs;
  fs.set_latency_model(LatencyModel::nfs());  // no negative caching
  fs.reset_stats();
  (void)fs.stat("/missing");
  const double first = fs.stats().sim_time_s;
  (void)fs.stat("/missing");
  EXPECT_DOUBLE_EQ(fs.stats().sim_time_s, 2 * first);
}

TEST(Latency, ClearCachesRestoresColdCost) {
  FileSystem fs;
  fs.set_latency_model(LatencyModel::nfs());
  fs.write_file("/f", std::string("x"));
  fs.reset_stats();
  (void)fs.stat("/f");
  const double cold = fs.stats().sim_time_s;
  fs.clear_caches();
  fs.reset_stats();
  (void)fs.stat("/f");
  EXPECT_DOUBLE_EQ(fs.stats().sim_time_s, cold);
}

TEST(Latency, ServerRoundTripsTracked) {
  FileSystem fs;
  fs.set_latency_model(LatencyModel::nfs());
  fs.write_file("/f", std::string("x"));
  (void)fs.stat("/f");
  (void)fs.stat("/f");
  ASSERT_NE(fs.latency_model(), nullptr);
  EXPECT_EQ(fs.latency_model()->server_round_trips(), 1u);
}

// The model's costs, pinned bit for bit. The emacs seconds are recorded
// values: a changed cost or summation order moves their low bits.
std::uint64_t bits(double seconds) {
  return std::bit_cast<std::uint64_t>(seconds);
}

// The sim_time_s of one stat of `path`, on counters zeroed first (a
// difference of two sums would round).
double stat_cost(FileSystem& fs, std::string_view path) {
  fs.reset_stats();
  (void)fs.stat(path);
  return fs.stats().sim_time_s;
}

constexpr double kLocalStatS = 1.2 * 1e-6;
constexpr double kNfsRoundTripS = 180.0 * 1e-6;
constexpr double kNfsCachedS = 1.5 * 1e-6;

TEST(LatencyPinned, EmacsLoadsCostTheRecordedSeconds) {
  struct Case {
    const char* name;
    LatencyModel model;
    double unwrapped_s;
    double wrapped_s;
  };
  const Case cases[] = {
      {"local_disk", LatencyModel::local_disk(), 0x1.676ea422898d8p-8,
       0x1.1e42e1262028p-10},
      {"nfs", LatencyModel::nfs(), 0x1.5d68c692f6fa3p-2, 0x1.a32b12d33f8p-8},
  };
  for (const Case& c : cases) {
    core::Session session =
        core::WorldBuilder().latency(c.model).emacs({}).build();
    const loader::LoadReport unwrapped = session.load();
    ASSERT_TRUE(unwrapped.success) << c.name;
    EXPECT_EQ(unwrapped.stats.metadata_calls(), 1861u) << c.name;
    EXPECT_EQ(bits(unwrapped.stats.sim_time_s), bits(c.unwrapped_s)) << c.name;
    session.shrinkwrap();
    const loader::LoadReport wrapped = session.load();
    ASSERT_TRUE(wrapped.success) << c.name;
    EXPECT_EQ(wrapped.stats.metadata_calls(), 104u) << c.name;
    EXPECT_EQ(bits(wrapped.stats.sim_time_s), bits(c.wrapped_s)) << c.name;
  }
}

TEST(LatencyPinned, NodeLocalMountCostsALocalDiskStat) {
  auto image = std::make_shared<FileSystem>();
  image->write_file("/lib/libx.so", std::string("x"));
  FileSystem host;
  host.set_latency_model(LatencyModel::nfs());
  host.mount_image("/app", image);
  host.set_mount_latency("/app", MountLatency::NodeLocal);
  EXPECT_EQ(bits(stat_cost(host, "/app/lib/libx.so")), bits(kLocalStatS));
  EXPECT_EQ(bits(stat_cost(host, "/app/lib/libx.so")), bits(kLocalStatS));
  EXPECT_EQ(bits(stat_cost(host, "/app/lib/missing.so")), bits(kLocalStatS));
  // Outside the mount the view's own model prices: a failed NFS probe.
  EXPECT_EQ(bits(stat_cost(host, "/missing")), bits(kNfsRoundTripS));
}

TEST(LatencyPinned, ForksAndCopiesWarmTheirOwnCache) {
  FileSystem base;
  base.set_latency_model(LatencyModel::nfs());
  base.write_file("/f", std::string("x"));
  base.write_file("/g", std::string("y"));
  EXPECT_EQ(bits(stat_cost(base, "/f")), bits(kNfsRoundTripS));
  FileSystem child = base.fork();
  FileSystem copy(base);
  for (FileSystem* view : {&child, &copy}) {
    // The parent's touches came along; the view's own touches stay its own.
    EXPECT_EQ(bits(stat_cost(*view, "/f")), bits(kNfsCachedS));
    EXPECT_EQ(bits(stat_cost(*view, "/g")), bits(kNfsRoundTripS));
    EXPECT_EQ(bits(stat_cost(*view, "/g")), bits(kNfsCachedS));
  }
  EXPECT_EQ(bits(stat_cost(base, "/g")), bits(kNfsRoundTripS));
}

TEST(LatencyPinned, OneCacheEntryPerNormalizedPath) {
  FileSystem fs;
  fs.set_latency_model(LatencyModel::nfs());
  fs.write_file("/a/b", std::string("x"));
  EXPECT_EQ(bits(stat_cost(fs, "/a//b")), bits(kNfsRoundTripS));
  EXPECT_EQ(bits(stat_cost(fs, "/a/b")), bits(kNfsCachedS));
  EXPECT_EQ(bits(stat_cost(fs, "/a/./b")), bits(kNfsCachedS));
  EXPECT_EQ(fs.latency_model()->server_round_trips(), 1u);
}

// ----------------------------------------------------------- dentry cache

TEST(Vfs, DentryCacheIsObservablyTransparent) {
  FileSystem fs;
  fs.write_file("/usr/lib/libx.so", std::string("x"));
  fs.symlink("libx.so", "/usr/lib/libx.so.1");
  fs.symlink("/usr/lib", "/lib64x");
  fs.symlink("loop_b", "/loops/loop_a");
  fs.symlink("loop_a", "/loops/loop_b");
  FileSystem uncached(fs);  // deep copy: identical world and counters
  uncached.set_dentry_cache(false);
  ASSERT_TRUE(fs.dentry_cache_enabled());
  ASSERT_FALSE(uncached.dentry_cache_enabled());

  const std::vector<std::string> probes = {
      "/usr/lib/libx.so",  "/usr/lib/libx.so.1", "/lib64x/libx.so.1",
      "/usr/lib/missing",  "/loops/loop_a",      "/nope/deep/path",
      "/lib64x/../lib64x/libx.so"};
  for (int round = 0; round < 3; ++round) {
    for (const auto& probe : probes) {
      const auto a = fs.stat(probe);
      const auto b = uncached.stat(probe);
      ASSERT_EQ(a.has_value(), b.has_value()) << probe;
      if (a.has_value()) {
        EXPECT_EQ(a->ino, b->ino) << probe;
        EXPECT_EQ(a->size, b->size) << probe;
      }
      EXPECT_EQ(fs.realpath(probe), uncached.realpath(probe)) << probe;
      EXPECT_EQ(fs.open(probe) != nullptr, uncached.open(probe) != nullptr);
    }
  }
  // Byte-identical accounting either way.
  EXPECT_EQ(fs.stats().stat_calls, uncached.stats().stat_calls);
  EXPECT_EQ(fs.stats().open_calls, uncached.stats().open_calls);
  EXPECT_EQ(fs.stats().failed_probes, uncached.stats().failed_probes);
}

TEST(Vfs, DentryCacheInvalidatedByMutations) {
  FileSystem fs;
  fs.write_file("/usr/lib/libx.so", std::string("x"));
  // Warm the cache with positive and negative entries.
  EXPECT_TRUE(fs.stat("/usr/lib/libx.so").has_value());
  EXPECT_FALSE(fs.stat("/usr/lib/libnew.so").has_value());
  // Creation flips a cached negative...
  fs.write_file("/usr/lib/libnew.so", std::string("n"));
  EXPECT_TRUE(fs.stat("/usr/lib/libnew.so").has_value());
  // ...removal flips a cached positive...
  fs.remove("/usr/lib/libx.so");
  EXPECT_FALSE(fs.stat("/usr/lib/libx.so").has_value());
  // ...and rename flips both sides at once.
  fs.rename("/usr/lib/libnew.so", "/usr/lib/libx.so");
  EXPECT_TRUE(fs.stat("/usr/lib/libx.so").has_value());
  EXPECT_FALSE(fs.stat("/usr/lib/libnew.so").has_value());
  // Symlink retargeting through remove+recreate is also visible.
  fs.symlink("libx.so", "/usr/lib/liblink.so");
  EXPECT_EQ(fs.realpath("/usr/lib/liblink.so"), "/usr/lib/libx.so");
  fs.remove("/usr/lib/liblink.so");
  fs.symlink("/elsewhere", "/usr/lib/liblink.so");
  EXPECT_FALSE(fs.stat("/usr/lib/liblink.so").has_value());  // dangling now
}

// ---------------------------------------------------------------- op trace

// Every counter, sim_time_s included, compared exactly.
void expect_same_stats(const SyscallStats& got, const SyscallStats& want) {
  EXPECT_EQ(got.stat_calls, want.stat_calls);
  EXPECT_EQ(got.open_calls, want.open_calls);
  EXPECT_EQ(got.read_calls, want.read_calls);
  EXPECT_EQ(got.failed_probes, want.failed_probes);
  EXPECT_EQ(got.sim_time_s, want.sim_time_s);
}

TEST(OpTraceTest, ReplayChargesLikeExecuting) {
  FileSystem base;
  base.set_latency_model(LatencyModel::nfs());
  elf::install_object(base, "/deps/b/libx.so", elf::make_library("libx.so"));
  elf::install_object(
      base, "/bin/app",
      elf::make_executable({"libx.so"}, {"/deps/a", "/deps/b", "/deps/c"}));
  base.seal();

  FileSystem traced = base.fork_sealed();
  OpTrace trace;
  const loader::LoadReport report = [&] {
    FileSystem::TraceScope scope(traced, trace);
    return loader::Loader(traced).load("/bin/app");
  }();
  ASSERT_TRUE(report.success);
  ASSERT_GT(report.stats.failed_probes, 0u);
  ASSERT_GT(report.stats.read_calls, 0u);
  EXPECT_EQ(trace.ops().size(),
            report.stats.metadata_calls() + report.stats.read_calls);

  // After the same first operation, a sibling replays the load twice and a
  // twin executes it twice: their counters end bit-identical, sim_time_s
  // included (it is summed op by op in trace order either way).
  FileSystem sibling = base.fork_sealed();
  FileSystem twin = base.fork_sealed();
  ASSERT_TRUE(sibling.stat("/deps/b/libx.so").has_value());
  ASSERT_TRUE(twin.stat("/deps/b/libx.so").has_value());
  const double at_start = sibling.stats().sim_time_s;
  sibling.replay(trace);
  const double after_first = sibling.stats().sim_time_s;
  sibling.replay(trace);
  loader::Loader twin_loader(twin);
  (void)twin_loader.load("/bin/app");
  (void)twin_loader.load("/bin/app");
  expect_same_stats(sibling.stats(), twin.stats());
  // The replays warmed the NFS attribute cache like the loads did: the
  // second replay was cheaper than the first, and a third load costs
  // both views the same.
  EXPECT_LT(sibling.stats().sim_time_s - after_first, after_first - at_start);
  const loader::LoadReport third = loader::Loader(sibling).load("/bin/app");
  const loader::LoadReport twin_third = twin_loader.load("/bin/app");
  EXPECT_EQ(third.stats.sim_time_s, twin_third.stats.sim_time_s);
  EXPECT_LT(third.stats.sim_time_s, report.stats.sim_time_s);
  expect_same_stats(sibling.stats(), twin.stats());

  // A trace installed on the replaying view receives the records as they
  // are.
  FileSystem observed = base.fork_sealed();
  OpTrace seen;
  {
    FileSystem::TraceScope scope(observed, seen);
    observed.replay(trace);
  }
  ASSERT_EQ(seen.ops().size(), trace.ops().size());
  for (std::size_t i = 0; i < trace.ops().size(); ++i) {
    const OpRecord& got = seen.ops()[i];
    const OpRecord& want = trace.ops()[i];
    EXPECT_EQ(got.kind, want.kind) << i;
    EXPECT_EQ(got.hit, want.hit) << i;
    EXPECT_EQ(got.shared, want.shared) << i;
    EXPECT_EQ(got.node_local, want.node_local) << i;
    EXPECT_EQ(seen.id(got.path), trace.id(want.path)) << i;
  }
  expect_same_stats(observed.stats(), report.stats);

  // With counting off, replay charges nothing, like charge(): no counter,
  // no record, and the models stay cold.
  FileSystem quiet = base.fork_sealed();
  quiet.set_counting(false);
  OpTrace none;
  {
    FileSystem::TraceScope scope(quiet, none);
    quiet.replay(trace);
  }
  EXPECT_TRUE(none.ops().empty());
  expect_same_stats(quiet.stats(), SyscallStats{});
  quiet.set_counting(true);
  quiet.replay(trace);
  expect_same_stats(quiet.stats(), report.stats);
}

}  // namespace
}  // namespace depchaos::vfs
