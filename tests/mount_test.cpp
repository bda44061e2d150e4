// Mount-table VFS: composing read-only images, overlays, tmpfs masks, and
// bind mounts under one path namespace, with resolution (PathId fast path
// and dentry cache included) crossing mount boundaries transparently.
//
// Also covers the dentry cache as a differential: a randomized probe storm
// over a world with a mounted image must answer — and charge — exactly
// the same with the cache on and off.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "depchaos/support/rng.hpp"
#include "depchaos/vfs/vfs.hpp"

namespace depchaos::vfs {
namespace {

std::shared_ptr<FileSystem> small_image() {
  auto image = std::make_shared<FileSystem>();
  image->write_file("/lib/libimg.so", std::string("image library"));
  image->write_file("/etc/release", std::string("image v1"));
  image->symlink("libimg.so", "/lib/libalias.so");
  return image;
}

TEST(Mount, ImageMountShadowsHostAndIsSharedReadOnly) {
  FileSystem host;
  host.write_file("/app/native.txt", std::string("host content"));
  host.write_file("/usr/lib/libhost.so", std::string("host lib"));

  auto image = small_image();
  host.mount_image("/app", image);

  // The mounted root replaces the host directory beneath it.
  EXPECT_TRUE(host.exists("/app/lib/libimg.so"));
  EXPECT_FALSE(host.exists("/app/native.txt"));
  EXPECT_EQ(host.peek("/app/lib/libimg.so")->bytes, "image library");
  // Relative symlinks inside the image resolve inside the image.
  EXPECT_EQ(host.peek("/app/lib/libalias.so")->bytes, "image library");
  // Read-only end to end.
  EXPECT_THROW(host.write_file("/app/lib/new.so", std::string("x")), FsError);
  EXPECT_THROW(host.remove("/app/etc/release"), FsError);
  // The image itself never saw a write.
  EXPECT_FALSE(image->exists("/native.txt"));

  host.umount("/app");
  EXPECT_TRUE(host.exists("/app/native.txt"));
  EXPECT_FALSE(host.exists("/app/lib/libimg.so"));
}

TEST(Mount, MountpointListingComesFromTheImage) {
  FileSystem host;
  host.mkdir_p("/app/old");
  host.mount_image("/app", small_image());
  const auto names = host.list_dir("/app");
  EXPECT_EQ(names, (std::vector<std::string>{"lib", "etc"}));
}

TEST(Mount, TmpfsMaskHidesHostDirectory) {
  FileSystem host;
  host.write_file("/usr/lib/libleaky.so", std::string("host"));
  host.mount_tmpfs("/usr/lib", /*read_only=*/true);
  EXPECT_FALSE(host.exists("/usr/lib/libleaky.so"));
  EXPECT_TRUE(host.list_dir("/usr/lib").empty());
  EXPECT_THROW(host.write_file("/usr/lib/x", std::string("y")), FsError);
  host.umount("/usr/lib");
  EXPECT_TRUE(host.exists("/usr/lib/libleaky.so"));
}

TEST(Mount, WritableTmpfsScratch) {
  FileSystem host;
  host.mount_tmpfs("/tmp");
  host.write_file("/tmp/job/scratch.dat", std::string("per-job"));
  EXPECT_EQ(host.peek("/tmp/job/scratch.dat")->bytes, "per-job");
  host.umount("/tmp");
  EXPECT_FALSE(host.exists("/tmp/job/scratch.dat"));
}

TEST(Mount, OverlayDivergesWithoutTouchingTheImage) {
  auto image = small_image();
  FileSystem job_a;
  FileSystem job_b;
  job_a.mount_overlay("/app", image);
  job_b.mount_overlay("/app", image);

  job_a.write_file("/app/etc/override.conf", std::string("A"));
  job_a.write_file("/app/etc/release", std::string("patched by A"));

  EXPECT_EQ(job_a.peek("/app/etc/release")->bytes, "patched by A");
  EXPECT_EQ(job_b.peek("/app/etc/release")->bytes, "image v1");
  EXPECT_FALSE(job_b.exists("/app/etc/override.conf"));
  EXPECT_EQ(image->peek("/etc/release")->bytes, "image v1");
}

TEST(Mount, BindReRootsASubtree) {
  auto source = std::make_shared<FileSystem>();
  source->write_file("/data/sets/one.bin", std::string("1"));
  FileSystem host;
  host.mount_bind("/mnt/input", source, "/data");
  EXPECT_EQ(host.peek("/mnt/input/sets/one.bin")->bytes, "1");
  EXPECT_THROW(host.write_file("/mnt/input/x", std::string("y")), FsError);
}

TEST(Mount, StackingLastMountWinsAndUmountPeels) {
  FileSystem host;
  host.write_file("/app/host.txt", std::string("host"));
  host.mount_image("/app", small_image());
  host.mount_tmpfs("/app", /*read_only=*/true);
  EXPECT_TRUE(host.list_dir("/app").empty());
  host.umount("/app");
  EXPECT_TRUE(host.exists("/app/lib/libimg.so"));
  host.umount("/app");
  EXPECT_TRUE(host.exists("/app/host.txt"));
  EXPECT_THROW(host.umount("/app"), FsError);
}

TEST(Mount, AbsoluteSymlinkInsideImageResolvesInComposedNamespace) {
  // What a process inside the container observes: the image's absolute
  // symlink escapes into the composed (host+mounts) namespace — the
  // substrate of the host-leak container scenario.
  auto image = std::make_shared<FileSystem>();
  image->symlink("/usr/lib/libhost.so", "/lib/libescape.so");
  FileSystem host;
  host.write_file("/usr/lib/libhost.so", std::string("host bytes"));
  host.mount_image("/app", image);
  EXPECT_EQ(host.peek("/app/lib/libescape.so")->bytes, "host bytes");
  EXPECT_EQ(host.realpath("/app/lib/libescape.so").value(),
            "/usr/lib/libhost.so");
  // Mask the host dir: the escape now dangles.
  host.mount_tmpfs("/usr/lib", /*read_only=*/true);
  EXPECT_FALSE(host.exists("/app/lib/libescape.so"));
}

TEST(Mount, SymlinkOnHostPointingIntoMountCrosses) {
  FileSystem host;
  host.mount_image("/app", small_image());
  host.symlink("/app/lib/libimg.so", "/usr/lib/libvia.so");
  EXPECT_EQ(host.peek("/usr/lib/libvia.so")->bytes, "image library");
  const auto st = host.stat("/usr/lib/libvia.so");
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->type, NodeType::Regular);
}

TEST(Mount, MountpointReachedThroughSymlinkAliasCrosses) {
  FileSystem host;
  host.mkdir_p("/opt/apps");
  host.symlink("/opt/apps", "/apps");
  host.mount_image("/opt/apps/tool", small_image());
  // Probing via the alias still lands inside the mount: mounts attach to
  // canonical paths.
  EXPECT_TRUE(host.exists("/apps/tool/lib/libimg.so"));
}

TEST(Mount, CrossMountRenameAndRemoveGuards) {
  FileSystem host;
  host.write_file("/home/a.txt", std::string("a"));
  host.mount_tmpfs("/scratch");
  EXPECT_THROW(host.rename("/home/a.txt", "/scratch/a.txt"), FsError);
  host.mount_image("/app", small_image());
  EXPECT_THROW(host.remove("/app", /*recursive=*/true), FsError);  // busy
  // Removing an ANCESTOR of a mountpoint is just as busy: it would leave
  // the mount attached to a path that no longer resolves.
  host.mount_tmpfs("/deep/nested/scratch");
  EXPECT_THROW(host.remove("/deep", /*recursive=*/true), FsError);
  host.umount("/deep/nested/scratch");
  host.remove("/deep", /*recursive=*/true);  // fine once detached
  EXPECT_FALSE(host.exists("/deep"));
}

TEST(Mount, RenameIntoOwnSubtreeIsRejected) {
  FileSystem fs;
  fs.write_file("/a/b/keep.txt", std::string("precious"));
  EXPECT_THROW(fs.rename("/a", "/a/b/c"), FsError);  // POSIX EINVAL
  EXPECT_THROW(fs.rename("/a", "/a/b"), FsError);
  // Nothing was lost or detached.
  EXPECT_EQ(fs.peek("/a/b/keep.txt")->bytes, "precious");
  EXPECT_EQ(fs.list_dir("/"), (std::vector<std::string>{"a"}));
  // Sibling moves still work.
  fs.rename("/a/b/keep.txt", "/a/kept.txt");
  EXPECT_EQ(fs.peek("/a/kept.txt")->bytes, "precious");
}

TEST(Mount, StatReportsDistinctInodesAcrossMounts) {
  FileSystem host;
  host.write_file("/usr/lib/libx.so", std::string("host"));
  host.mount_image("/app", small_image());
  const auto host_st = host.stat("/usr/lib/libx.so");
  const auto img_st = host.stat("/app/lib/libimg.so");
  ASSERT_TRUE(host_st && img_st);
  EXPECT_NE(host_st->ino, img_st->ino);
  // The composed namespace counts the mounted backing's inodes too.
  FileSystem bare;
  bare.write_file("/usr/lib/libx.so", std::string("host"));
  bare.mkdir_p("/app");
  EXPECT_GT(host.inode_count(), bare.inode_count());
}

TEST(Mount, CountersChargeLikeOrdinaryProbes) {
  FileSystem host;
  host.mount_image("/app", small_image());
  host.reset_stats();
  EXPECT_NE(host.open("/app/lib/libimg.so"), nullptr);
  EXPECT_EQ(host.open("/app/lib/missing.so"), nullptr);
  EXPECT_EQ(host.stats().open_calls, 2u);
  EXPECT_EQ(host.stats().failed_probes, 1u);
}

TEST(Mount, ForkSharesImagesAndForksOverlays) {
  auto image = small_image();
  FileSystem parent;
  parent.mount_overlay("/app", image);
  parent.mount_image("/ro", image);
  parent.write_file("/app/etc/parent.conf", std::string("p"));

  FileSystem child = parent.fork();
  child.write_file("/app/etc/child.conf", std::string("c"));
  parent.write_file("/app/etc/parent2.conf", std::string("p2"));

  EXPECT_TRUE(parent.exists("/app/etc/parent2.conf"));
  EXPECT_FALSE(parent.exists("/app/etc/child.conf"));
  EXPECT_TRUE(child.exists("/app/etc/child.conf"));
  EXPECT_FALSE(child.exists("/app/etc/parent2.conf"));
  EXPECT_TRUE(child.exists("/app/etc/parent.conf"));  // pre-fork divergence
  EXPECT_TRUE(child.exists("/ro/lib/libimg.so"));     // shared image
  EXPECT_FALSE(image->exists("/etc/parent.conf"));
}

TEST(Mount, DentryWarmStartSurvivesMountsAcrossFork) {
  FileSystem host;
  host.write_file("/usr/lib/libx.so", std::string("x"));
  host.mount_image("/app", small_image());
  // Warm the parent's memo through the mount boundary.
  EXPECT_TRUE(host.exists("/app/lib/libimg.so"));
  EXPECT_TRUE(host.exists("/usr/lib/libx.so"));
  FileSystem child = host.fork();
  // Same answers through the inherited snapshot; then diverge and check
  // invalidation stays per view.
  EXPECT_EQ(child.peek("/app/lib/libimg.so")->bytes, "image library");
  child.umount("/app");
  EXPECT_FALSE(child.exists("/app/lib/libimg.so"));
  EXPECT_TRUE(host.exists("/app/lib/libimg.so"));
}

TEST(Mount, NestedMountTablesRejected) {
  FileSystem host;
  auto composed = std::make_shared<FileSystem>();
  composed->mount_tmpfs("/tmp");
  EXPECT_THROW(host.mount_image("/app", composed), FsError);
}

TEST(Mount, SaveWorldFlattensTheComposedNamespace) {
  // v1 snapshots stay the lowest common denominator: the composed view
  // serializes as one tree (see snapshot_test for v2 fleet round-trips).
  FileSystem host;
  host.write_file("/usr/lib/libhost.so", std::string("h"));
  host.mount_image("/app", small_image());
  // Exercised via exists(): no counted traffic, mounts crossed.
  EXPECT_TRUE(host.exists("/app/etc/release"));
}

TEST(Mount, RenamingAMountpointOrItsAncestorIsBusy) {
  FileSystem host;
  host.write_file("/data/file", std::string("x"));
  host.mount_tmpfs("/data/scratch/job");
  EXPECT_THROW(host.rename("/data", "/elsewhere"), FsError);
  EXPECT_THROW(host.rename("/data/scratch", "/elsewhere"), FsError);
  host.umount("/data/scratch/job");
  host.rename("/data", "/elsewhere");  // fine once detached
  EXPECT_TRUE(host.exists("/elsewhere/file"));
}

TEST(Mount, EverySpellingOfAMountpointReachesTheSameMount) {
  FileSystem host;
  host.mkdir_p("/opt/apps");
  host.symlink("/opt/apps", "/apps");
  host.mount_image("/apps/tool", small_image());  // through the symlink
  host.symlink("/opt/apps/tool", "/tool");
  ASSERT_EQ(host.mounts().size(), 1u);
  EXPECT_EQ(host.mounts()[0].point, "/opt/apps/tool");

  const std::vector<std::string> spellings = {
      "/apps/tool", "/tool", "/opt//apps/tool", "/opt/./apps/tool",
      "/opt/apps/tool"};
  for (const std::string& spelling : spellings) {
    host.set_mount_latency(spelling, MountLatency::NodeLocal);
    EXPECT_EQ(host.mounts()[0].latency, MountLatency::NodeLocal) << spelling;
    host.set_mount_latency(spelling, MountLatency::Shared);
    EXPECT_EQ(host.mounts()[0].latency, MountLatency::Shared) << spelling;
    // Stack a mask on the canonical point, then peel it off by this
    // spelling: the image underneath shows through again.
    host.mount_tmpfs("/opt/apps/tool", /*read_only=*/true);
    EXPECT_FALSE(host.exists("/opt/apps/tool/lib/libimg.so")) << spelling;
    host.umount(spelling);
    ASSERT_EQ(host.mounts().size(), 1u) << spelling;
    EXPECT_EQ(host.mounts()[0].kind, MountKind::Image) << spelling;
    EXPECT_TRUE(host.exists("/opt/apps/tool/lib/libimg.so")) << spelling;
  }
  host.umount("/tool");
  EXPECT_TRUE(host.mounts().empty());
  EXPECT_THROW(host.umount("/apps/tool"), FsError);  // not a mountpoint

  // A path that does not resolve names no mountpoint.
  host.symlink("loop", "/loop");  // relative self-loop
  for (const char* bad : {"/no/such/dir", "/loop", "/loop/below"}) {
    EXPECT_THROW(host.umount(bad), FsError) << bad;
    EXPECT_THROW(host.set_mount_latency(bad, MountLatency::NodeLocal),
                 FsError)
        << bad;
  }
  EXPECT_THROW(host.mount_tmpfs("/loop"), FsError);
}

// ------------------------------------------------- probe storm differential

/// Deterministic probe storm over hits, misses, symlinks, symlink
/// loops, directories, and paths inside and through a mounted image.
std::string probe_fingerprint(FileSystem& fs, std::uint64_t seed, int rounds) {
  support::Rng rng(seed);
  const std::vector<std::string> stems = {
      "/usr/lib", "/opt/app/lib", "/data",      "/via",
      "/loop",    "/usr/miss",    "/opt/missing", "/deep/a/b/c",
      "/img/lib", "/img/alias",   "/img/host",  "/img/missing"};
  std::string out;
  for (int i = 0; i < rounds; ++i) {
    const std::string path = stems[rng.below(stems.size())] + "/lib" +
                             std::to_string(rng.below(40)) + ".so";
    switch (rng.below(5)) {
      case 0: {
        const auto st = fs.stat(path);
        out += st ? "s" + std::to_string(st->size) : std::string("s-");
        break;
      }
      case 1: {
        const auto st = fs.lstat(path);
        out += st ? "l" + std::to_string(static_cast<int>(st->type))
                  : std::string("l-");
        break;
      }
      case 2:
        out += fs.open(path) != nullptr ? "o+" : "o-";
        break;
      case 3:
        out += fs.exists(path) ? "e+" : "e-";
        break;
      default:
        out += "r" + fs.realpath(path).value_or("-");
        break;
    }
  }
  out += "|stat=" + std::to_string(fs.stats().stat_calls) +
         ",open=" + std::to_string(fs.stats().open_calls) +
         ",fail=" + std::to_string(fs.stats().failed_probes);
  return out;
}

void build_storm_world(FileSystem& fs) {
  for (int i = 0; i < 40; i += 2) {
    fs.write_file("/usr/lib/lib" + std::to_string(i) + ".so",
                  std::string("bytes") + std::to_string(i));
    fs.symlink("/usr/lib/lib" + std::to_string(i) + ".so",
               "/via/lib" + std::to_string(i) + ".so");
  }
  for (int i = 0; i < 40; i += 3) {
    fs.write_file("/opt/app/lib/lib" + std::to_string(i) + ".so",
                  std::string("opt") + std::to_string(i));
  }
  fs.symlink("lib7.so", "/loop/lib7.so");  // relative self-loop
  fs.symlink("lib3.so", "/loop/lib1.so");  // two-link cycle
  fs.symlink("lib1.so", "/loop/lib3.so");
  fs.mkdir_p("/deep/a/b/c");
  auto image = std::make_shared<FileSystem>();
  for (int i = 0; i < 40; i += 4) {
    image->write_file("/lib/lib" + std::to_string(i) + ".so",
                      std::string("img") + std::to_string(i));
  }
  image->symlink("lib", "/alias");  // relative: stays inside the image
  image->symlink("/via", "/host");  // absolute: the composed namespace
  fs.mount_image("/img", image);
}

TEST(Resolution, CachedProbeStormMatchesColdWalks) {
  FileSystem cached;
  FileSystem cold;
  build_storm_world(cached);
  build_storm_world(cold);
  cold.set_dentry_cache(false);
  // Every walk of the cold world starts from the root and crosses the
  // mount afresh (these checks are uncounted).
  EXPECT_EQ(cold.peek("/img/alias/lib4.so")->bytes, "img4");
  EXPECT_EQ(cold.realpath("/img/host/lib2.so").value(), "/usr/lib/lib2.so");
  EXPECT_FALSE(cold.exists("/img/lib/lib1.so"));
  EXPECT_FALSE(cold.exists("/loop/lib7.so"));
  EXPECT_EQ(cold.peek_type("/loop/lib1.so"), NodeType::Symlink);

  EXPECT_EQ(probe_fingerprint(cached, 99, 600),
            probe_fingerprint(cold, 99, 600));
  // Again on forks: the cached side now starts from the shared snapshot.
  FileSystem cached_child = cached.fork();
  FileSystem cold_child = cold.fork();
  EXPECT_EQ(probe_fingerprint(cached_child, 7, 600),
            probe_fingerprint(cold_child, 7, 600));
}

TEST(Resolution, NoneIdIsACleanMiss) {
  FileSystem fs;
  fs.write_file("/x/y", std::string("z"));
  // kNone ("no path") forwarded into the PathId overloads misses cleanly.
  EXPECT_FALSE(fs.stat(support::PathTable::kNone).has_value());
  EXPECT_FALSE(fs.lstat(support::PathTable::kNone).has_value());
  EXPECT_EQ(fs.open(support::PathTable::kNone), nullptr);
  EXPECT_EQ(fs.resolve_canonical(support::PathTable::kNone),
            support::PathTable::kNone);
}

}  // namespace
}  // namespace depchaos::vfs
