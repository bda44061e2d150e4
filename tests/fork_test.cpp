// Copy-on-write world forks: vfs::FileSystem::fork(), core::Session::fork(),
// and the what-if workflow built on them.
//
// The load-bearing property: a forked-then-mutated world is OBSERVABLY
// byte-identical to a deep-copied-then-mutated world — same stat/open/
// readlink answers, same readdir ordering, same inode numbers, same
// errors — while allocating none of the deep copy's bytes up front.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "depchaos/core/world.hpp"
#include "depchaos/elf/patcher.hpp"
#include "depchaos/support/rng.hpp"
#include "depchaos/vfs/snapshot.hpp"
#include "depchaos/vfs/vfs.hpp"

namespace depchaos::vfs {
namespace {

using core::Session;
using core::WorldBuilder;
using elf::make_executable;
using elf::make_library;

// ------------------------------------------------------------ fingerprint

void fingerprint_tree(FileSystem& fs, const std::string& path,
                      std::string& out) {
  const auto lst = fs.lstat(path);
  ASSERT_TRUE(lst.has_value()) << path;
  out += path + " ino=" + std::to_string(lst->ino) +
         " type=" + std::to_string(static_cast<int>(lst->type)) +
         " size=" + std::to_string(lst->size);
  if (lst->type == NodeType::Symlink) {
    out += " -> " + fs.peek_link_target(path).value_or("?");
    const auto followed = fs.stat(path);
    out += followed ? " resolves ino=" + std::to_string(followed->ino)
                    : std::string(" dangling");
    out += " realpath=" + fs.realpath(path).value_or("(none)");
  }
  if (lst->type == NodeType::Regular) {
    const FileData* data = fs.peek(path);
    out += " bytes=" + (data ? data->bytes : std::string("?"));
  }
  out += '\n';
  if (lst->type == NodeType::Directory) {
    for (const auto& name : fs.list_dir(path)) {
      fingerprint_tree(fs, path == "/" ? "/" + name : path + "/" + name, out);
    }
  }
}

/// Every observable read-path fact about the world, in deterministic
/// (readdir) order. Counting is suspended so fingerprinting two views
/// cannot make their own counters diverge.
std::string fingerprint(FileSystem& fs) {
  const bool was_counting = fs.counting();
  fs.set_counting(false);
  std::string out = "inodes=" + std::to_string(fs.inode_count()) +
                    " du=" + std::to_string(fs.disk_usage("/")) + "\n";
  fingerprint_tree(fs, "/", out);
  fs.set_counting(was_counting);
  return out;
}

// ----------------------------------------------------------- vfs basics

TEST(FsForkTest, ForkSeesBaseAndIsolatesWrites) {
  FileSystem base;
  base.write_file("/usr/lib/libx.so", "x1");
  base.symlink("libx.so", "/usr/lib/libx.so.1");

  FileSystem child = base.fork();
  EXPECT_EQ(child.peek("/usr/lib/libx.so")->bytes, "x1");
  EXPECT_EQ(*child.peek_link_target("/usr/lib/libx.so.1"), "libx.so");

  child.write_file("/usr/lib/liby.so", "y");
  child.write_file("/usr/lib/libx.so", "x2");
  EXPECT_EQ(child.peek("/usr/lib/libx.so")->bytes, "x2");
  EXPECT_TRUE(child.exists("/usr/lib/liby.so"));
  // The base never sees the fork's writes...
  EXPECT_EQ(base.peek("/usr/lib/libx.so")->bytes, "x1");
  EXPECT_FALSE(base.exists("/usr/lib/liby.so"));
  // ...and vice versa.
  base.write_file("/usr/lib/libz.so", "z");
  EXPECT_FALSE(child.exists("/usr/lib/libz.so"));
}

TEST(FsForkTest, RemovalsAndRenamesAreWhiteoutsNotLeaks) {
  FileSystem base;
  base.write_file("/a/one", "1");
  base.write_file("/a/two", "2");
  base.write_file("/a/three", "3");

  FileSystem child = base.fork();
  child.remove("/a/two");
  child.rename("/a/three", "/b/three");
  EXPECT_FALSE(child.exists("/a/two"));
  EXPECT_FALSE(child.exists("/a/three"));
  EXPECT_EQ(child.peek("/b/three")->bytes, "3");
  EXPECT_EQ(child.list_dir("/a"), (std::vector<std::string>{"one"}));
  // Whiteouts are private to the fork.
  EXPECT_EQ(base.list_dir("/a"),
            (std::vector<std::string>{"one", "two", "three"}));
  EXPECT_FALSE(base.exists("/b"));
}

TEST(FsForkTest, ForkIsO1AndLayerDepthTracksGenerations) {
  FileSystem base;
  for (int i = 0; i < 200; ++i) {
    base.write_file("/data/file" + std::to_string(i),
                    std::string(256, 'a' + (i % 26)));
  }
  EXPECT_EQ(base.layer_depth(), 1u);

  const FileSystem deep(base);
  FileSystem child = base.fork();
  EXPECT_EQ(base.layer_depth(), 2u);
  EXPECT_EQ(child.layer_depth(), 2u);
  EXPECT_EQ(deep.layer_depth(), 1u);
  // A fresh fork owns nothing; the deep copy owns the whole world.
  EXPECT_EQ(child.owned_bytes(), 0u);
  EXPECT_GT(deep.owned_bytes(), 200u * 256u);

  FileSystem grandchild = child.fork();
  EXPECT_EQ(grandchild.layer_depth(), 2u);  // child had no private writes
  child.write_file("/data/file0", "mutated");
  FileSystem after_write = child.fork();
  EXPECT_EQ(after_write.layer_depth(), 3u);
}

TEST(FsForkTest, ForkCopiesLatencyModelPerView) {
  FileSystem base;
  base.set_latency_model(LatencyModel::nfs());
  base.write_file("/f", "x");
  FileSystem child = base.fork();
  ASSERT_NE(child.latency_model(), nullptr);
  EXPECT_NE(child.latency_model(), base.latency_model());
  // Fresh per-view counters.
  base.stat("/f");
  EXPECT_EQ(base.stats().stat_calls, 1u);
  EXPECT_EQ(child.stats().stat_calls, 0u);
}

// ----------------------------------------- fork vs deep copy, propertywise

/// Apply `op` to both filesystems; they must agree on success or on the
/// exact error.
template <typename F>
void apply_both(FileSystem& a, FileSystem& b, F&& op) {
  std::string err_a = "(ok)", err_b = "(ok)";
  try {
    op(a);
  } catch (const FsError& e) {
    err_a = e.what();
  }
  try {
    op(b);
  } catch (const FsError& e) {
    err_b = e.what();
  }
  ASSERT_EQ(err_a, err_b);
}

TEST(FsForkTest, PropertyForkedMutationsMatchDeepCopiedMutations) {
  for (const std::uint64_t seed : {1ull, 42ull, 0xc0ffeeull}) {
    support::Rng rng(seed);

    // A seeded base world with depth, links, and clutter.
    FileSystem base;
    std::vector<std::string> pool;
    for (int i = 0; i < 40; ++i) {
      const std::string dir = "/d" + std::to_string(rng.below(6));
      const std::string file =
          dir + "/f" + std::to_string(rng.below(30));
      base.write_file(file, "seed" + std::to_string(i));
      pool.push_back(file);
      pool.push_back(dir);
    }
    for (int i = 0; i < 8; ++i) {
      const std::string link = "/links/l" + std::to_string(i);
      try {
        base.symlink(pool[rng.below(pool.size())], link);
        pool.push_back(link);
      } catch (const FsError&) {
      }
    }

    FileSystem deep(base);
    FileSystem forked = base.fork();
    const std::string base_before = fingerprint(base);

    // Identical random mutation traffic against both views.
    for (int step = 0; step < 120; ++step) {
      const std::string fresh =
          "/d" + std::to_string(rng.below(8)) + "/n" +
          std::to_string(rng.below(40));
      const std::string victim = pool[rng.below(pool.size())];
      const std::string target = pool[rng.below(pool.size())];
      switch (rng.below(6)) {
        case 0:
          apply_both(deep, forked, [&](FileSystem& fs) {
            fs.write_file(fresh, "step" + std::to_string(step));
          });
          pool.push_back(fresh);
          break;
        case 1:
          apply_both(deep, forked, [&](FileSystem& fs) {
            fs.write_file(victim, "over" + std::to_string(step));
          });
          break;
        case 2:
          apply_both(deep, forked,
                     [&](FileSystem& fs) { fs.mkdir_p(fresh + "/sub"); });
          pool.push_back(fresh + "/sub");
          break;
        case 3:
          apply_both(deep, forked,
                     [&](FileSystem& fs) { fs.symlink(target, fresh); });
          pool.push_back(fresh);
          break;
        case 4:
          apply_both(deep, forked, [&](FileSystem& fs) {
            fs.remove(victim, /*recursive=*/true);
          });
          break;
        case 5:
          apply_both(deep, forked,
                     [&](FileSystem& fs) { fs.rename(victim, fresh); });
          pool.push_back(fresh);
          break;
      }
    }

    // Every read path agrees — paths, types, sizes, bytes, link targets,
    // readdir ordering, AND inode numbers.
    EXPECT_EQ(fingerprint(deep), fingerprint(forked)) << "seed " << seed;
    // The shared base never moved.
    EXPECT_EQ(fingerprint(base), base_before) << "seed " << seed;
  }
}

// ------------------------------------------- sealed forks == legacy forks

TEST(FsForkTest, PropertySealedForkMatchesLegacyForkByteForByte) {
  // fork() is seal() + fork_sealed() by construction; this pins the
  // contract observably: children stamped from a sealed view are
  // byte-identical to legacy forks — inode numbers, readdir order, file
  // bytes, link targets, AND syscall counters under identical traffic.
  for (const std::uint64_t seed : {5ull, 99ull, 0xfeedull}) {
    support::Rng rng(seed);
    FileSystem world;
    std::vector<std::string> pool;
    for (int i = 0; i < 40; ++i) {
      const std::string file = "/d" + std::to_string(rng.below(6)) + "/f" +
                               std::to_string(rng.below(25));
      world.write_file(file, "seed" + std::to_string(i));
      pool.push_back(file);
    }
    for (int i = 0; i < 8; ++i) {
      try {
        const std::string link = "/links/l" + std::to_string(i);
        world.symlink(pool[rng.below(pool.size())], link);
        pool.push_back(link);
      } catch (const FsError&) {
      }
    }
    // Warm the dentry memo so the seal's rotation moves real state.
    for (int i = 0; i < 100; ++i) {
      (void)world.exists(pool[rng.below(pool.size())]);
    }

    FileSystem twin(world);  // deep copy: identical inode numbering
    FileSystem legacy = world.fork();
    EXPECT_FALSE(twin.sealed());
    twin.seal();
    ASSERT_TRUE(twin.sealed());
    const FileSystem& sealed_view = twin;  // const stamp, no parent mutation
    FileSystem stamped = sealed_view.fork_sealed();
    EXPECT_TRUE(twin.sealed());  // still sealed after any number of stamps
    FileSystem sibling = sealed_view.fork_sealed();

    EXPECT_EQ(fingerprint(legacy), fingerprint(stamped)) << "seed " << seed;
    EXPECT_EQ(fingerprint(stamped), fingerprint(sibling)) << "seed " << seed;
    EXPECT_EQ(fingerprint(world), fingerprint(twin)) << "seed " << seed;

    // Identical probe traffic charges identical fresh counters.
    legacy.reset_stats();
    stamped.reset_stats();
    support::Rng probes_a(seed ^ 0x1234);
    support::Rng probes_b(seed ^ 0x1234);
    const auto storm = [&pool](FileSystem& fs, support::Rng& r) {
      for (int i = 0; i < 200; ++i) {
        const std::string& path = pool[r.below(pool.size())];
        switch (r.below(3)) {
          case 0:
            (void)fs.stat(path);
            break;
          case 1:
            (void)fs.exists(path);
            break;
          default:
            (void)fs.realpath(path);
            break;
        }
      }
    };
    storm(legacy, probes_a);
    storm(stamped, probes_b);
    EXPECT_EQ(legacy.stats().stat_calls, stamped.stats().stat_calls);
    EXPECT_EQ(legacy.stats().failed_probes, stamped.stats().failed_probes);

    // Divergence after the stamp behaves exactly like a legacy fork's.
    apply_both(legacy, stamped,
               [&](FileSystem& fs) { fs.write_file("/div/new", "x"); });
    apply_both(legacy, stamped,
               [&](FileSystem& fs) { fs.remove(pool.front()); });
    EXPECT_EQ(fingerprint(legacy), fingerprint(stamped)) << "seed " << seed;
    EXPECT_EQ(fingerprint(world), fingerprint(twin)) << "seed " << seed;

    // Any mutation clears the seal; fork_sealed refuses until resealed.
    twin.write_file("/unsealing/write", "x");
    EXPECT_FALSE(twin.sealed());
    EXPECT_THROW(twin.fork_sealed(), FsError);
    twin.seal();
    FileSystem resealed = twin.fork_sealed();
    EXPECT_TRUE(resealed.exists("/unsealing/write"));
  }
}

// ------------------------------------------------------ layer compaction

TEST(FsForkTest, CollapseFlattensPreservingObservables) {
  FileSystem base;
  base.write_file("/usr/lib/libx.so", "x");
  base.symlink("libx.so", "/usr/lib/libx.so.1");
  FileSystem child = base.fork();
  child.write_file("/usr/lib/liby.so", "y");
  child.remove("/usr/lib/libx.so.1");
  FileSystem grandchild = child.fork();
  grandchild.write_file("/etc/ld.so.conf", "/usr/lib");
  ASSERT_GE(grandchild.layer_depth(), 3u);

  const std::string before = fingerprint(grandchild);
  grandchild.collapse();
  EXPECT_EQ(grandchild.layer_depth(), 1u);
  // Same inodes, same bytes, same readdir order, same errors — collapse
  // changes where nodes live, never what resolution observes.
  EXPECT_EQ(fingerprint(grandchild), before);
  // A collapsed view owns its whole world.
  EXPECT_GT(grandchild.owned_bytes(), 0u);
  // Collapse is idempotent.
  grandchild.collapse();
  EXPECT_EQ(fingerprint(grandchild), before);
  // The rest of the family is untouched.
  EXPECT_TRUE(child.exists("/usr/lib/liby.so"));
  EXPECT_FALSE(child.exists("/etc/ld.so.conf"));
}

TEST(FsForkTest, AutoCollapseBoundsChainDepth) {
  // Each generation mutates (so fork really freezes a new layer) and
  // replaces the view with its child, the way long what-if chains do. A
  // never-forked twin takes the same writes.
  FileSystem fs;
  FileSystem flat;
  fs.write_file("/f", "seed");
  flat.write_file("/f", "seed");
  int collapses = 0;
  for (int generation = 0; generation < 70; ++generation) {
    const std::string path = "/g" + std::to_string(generation);
    fs.write_file(path, "x");
    flat.write_file(path, "x");
    const std::size_t depth = fs.layer_depth();
    fs = fs.fork();
    // A fork of a written view is one layer deeper, except where the
    // 64-layer bound flattens the child.
    if (depth < 64) {
      EXPECT_EQ(fs.layer_depth(), depth + 1) << "generation " << generation;
    } else {
      EXPECT_EQ(fs.layer_depth(), 1u) << "generation " << generation;
      ++collapses;
    }
  }
  EXPECT_EQ(collapses, 1);
  EXPECT_EQ(fingerprint(fs), fingerprint(flat));
}

TEST(FsForkTest, PropertyCollapseEquivalentToNoCollapse) {
  // The dentry cache and compaction interact (collapse preserves cached
  // inode numbers; fork freezes the memo into the shared snapshot), so the
  // equivalence is checked under randomized mutation traffic: `chained`
  // forks and replaces itself after each of 150 mutations, past the
  // 64-layer auto-collapse bound, with explicit collapse() calls sprinkled
  // in; `flat` is a never-forked twin given the same mutations.
  for (const std::uint64_t seed : {3ull, 77ull, 0xbeefull}) {
    support::Rng rng(seed);
    FileSystem base;
    std::vector<std::string> pool;
    for (int i = 0; i < 30; ++i) {
      const std::string file = "/d" + std::to_string(rng.below(5)) + "/f" +
                               std::to_string(rng.below(20));
      base.write_file(file, "seed" + std::to_string(i));
      pool.push_back(file);
    }
    for (int i = 0; i < 6; ++i) {
      try {
        const std::string link = "/links/l" + std::to_string(i);
        base.symlink(pool[rng.below(pool.size())], link);
        pool.push_back(link);
      } catch (const FsError&) {
      }
    }

    FileSystem flat(base);  // deep copy: identical inode numbering
    FileSystem chained = base.fork();
    int auto_collapses = 0;

    for (int step = 0; step < 150; ++step) {
      const std::string fresh = "/d" + std::to_string(rng.below(6)) + "/n" +
                                std::to_string(rng.below(30));
      const std::string victim = pool[rng.below(pool.size())];
      switch (rng.below(4)) {
        case 0:
          apply_both(flat, chained, [&](FileSystem& fs) {
            fs.write_file(fresh, "step" + std::to_string(step));
          });
          pool.push_back(fresh);
          break;
        case 1:
          apply_both(flat, chained, [&](FileSystem& fs) {
            fs.remove(victim, /*recursive=*/true);
          });
          break;
        case 2:
          apply_both(flat, chained,
                     [&](FileSystem& fs) { fs.rename(victim, fresh); });
          pool.push_back(fresh);
          break;
        case 3:
          apply_both(flat, chained,
                     [&](FileSystem& fs) { fs.symlink(victim, fresh); });
          pool.push_back(fresh);
          break;
      }
      // Only the 64-layer bound leaves a fresh fork flat: fork() freezes
      // at least one layer under the child, so depth 1 means it collapsed.
      chained = chained.fork();
      if (chained.layer_depth() == 1) ++auto_collapses;
      EXPECT_LE(chained.layer_depth(), 64u);
      if (rng.below(60) == 0) chained.collapse();
      if (step % 25 == 0) {
        ASSERT_EQ(fingerprint(flat), fingerprint(chained))
            << "seed " << seed << " step " << step;
      }
    }
    EXPECT_EQ(fingerprint(flat), fingerprint(chained)) << "seed " << seed;
    EXPECT_GE(auto_collapses, 1) << "seed " << seed;
  }
}

TEST(FsForkTest, SnapshotRoundTripCollapsesLayers) {
  FileSystem base;
  base.write_file("/usr/lib/libx.so", "x");
  base.symlink("libx.so", "/usr/lib/libx.so.1");
  FileSystem child = base.fork();
  child.write_file("/usr/lib/liby.so", "y");
  child.remove("/usr/lib/libx.so.1");
  FileSystem grandchild = child.fork();
  grandchild.write_file("/etc/ld.so.conf", "/usr/lib");
  ASSERT_GE(grandchild.layer_depth(), 3u);

  const std::string image = save_world(grandchild);
  FileSystem reloaded = load_world(image);
  EXPECT_EQ(reloaded.layer_depth(), 1u);  // flat again
  // Same observable world (inode numbers may legitimately differ after a
  // collapse — dead nodes are gone — so compare the path-addressed facts).
  EXPECT_EQ(save_world(reloaded), image);
  EXPECT_TRUE(reloaded.exists("/usr/lib/liby.so"));
  EXPECT_FALSE(reloaded.exists("/usr/lib/libx.so.1"));
}

}  // namespace
}  // namespace depchaos::vfs

// ------------------------------------------------------- Session::fork()

namespace depchaos::core {
namespace {

using elf::make_executable;
using elf::make_library;

void expect_reports_identical(const loader::LoadReport& a,
                              const loader::LoadReport& b) {
  EXPECT_EQ(a.success, b.success);
  ASSERT_EQ(a.load_order.size(), b.load_order.size());
  for (std::size_t i = 0; i < a.load_order.size(); ++i) {
    EXPECT_EQ(a.load_order[i].path, b.load_order[i].path);
    EXPECT_EQ(a.load_order[i].how, b.load_order[i].how);
  }
  EXPECT_EQ(a.stats.stat_calls, b.stats.stat_calls);
  EXPECT_EQ(a.stats.open_calls, b.stats.open_calls);
  EXPECT_EQ(a.stats.failed_probes, b.stats.failed_probes);
  EXPECT_DOUBLE_EQ(a.stats.sim_time_s, b.stats.sim_time_s);
}

WorldBuilder small_world() {
  WorldBuilder builder;
  workload::EmacsConfig config;
  config.num_deps = 12;
  config.num_dirs = 5;
  builder.emacs(config);
  return builder;
}

TEST(SessionForkTest, ChildLoadsMatchParentAndCountersStartFresh) {
  auto parent = small_world().build();
  const auto parent_report = parent.load();
  auto child = parent.fork();
  // One interner per fork family: forked fleets share one PathTable, so a
  // path probed anywhere is interned exactly once fleet-wide.
  EXPECT_EQ(child.fs().path_table().get(), parent.fs().path_table().get());
  EXPECT_EQ(child.default_exe(), parent.default_exe());
  EXPECT_EQ(child.fs().stats().stat_calls, 0u);
  EXPECT_EQ(child.fs().stats().open_calls, 0u);
  const auto child_report = child.load();
  expect_reports_identical(parent_report, child_report);
}

TEST(SessionForkTest, ChildMutationsNeverLeakIntoParent) {
  auto parent = small_world().build();
  const std::string before = parent.save();
  const auto unwrapped = parent.load();

  auto child = parent.fork();
  ASSERT_TRUE(child.shrinkwrap().ok());
  const auto wrapped = child.load();
  EXPECT_LT(wrapped.stats.metadata_calls(), unwrapped.stats.metadata_calls());

  // The parent's world bytes and load behaviour are untouched.
  EXPECT_EQ(parent.save(), before);
  const auto parent_again = parent.load();
  expect_reports_identical(unwrapped, parent_again);
}

TEST(SessionForkTest, SiblingForksAreMutuallyIsolated) {
  auto parent = small_world().build();
  auto a = parent.fork();
  auto b = parent.fork();
  a.fs().write_file("/only/in/a", "a");
  b.fs().write_file("/only/in/b", "b");
  EXPECT_TRUE(a.fs().exists("/only/in/a"));
  EXPECT_FALSE(a.fs().exists("/only/in/b"));
  EXPECT_TRUE(b.fs().exists("/only/in/b"));
  EXPECT_FALSE(b.fs().exists("/only/in/a"));
  EXPECT_FALSE(parent.fs().exists("/only/in/a"));
  EXPECT_FALSE(parent.fs().exists("/only/in/b"));
}

TEST(SessionForkTest, ForkCopiesStatefulLatencyModel) {
  auto parent = small_world().nfs().build();
  auto child = parent.fork();
  ASSERT_NE(child.fs().latency_model(), nullptr);
  EXPECT_NE(child.fs().latency_model(), parent.fs().latency_model());
  const auto report = child.load();
  EXPECT_GT(report.stats.sim_time_s, 0.0);
}

TEST(SessionForkTest, LoadManyAfterForkStaysByteIdentical) {
  WorldBuilder builder;
  builder.install("/usr/lib/libcommon.so", make_library("libcommon.so"));
  std::vector<std::string> exes;
  for (int i = 0; i < 6; ++i) {
    const std::string n = std::to_string(i);
    builder.install("/apps/a" + n + "/lib/libp" + n + ".so",
                    make_library("libp" + n + ".so", {"libcommon.so"}));
    builder.install(
        "/apps/a" + n + "/bin/app",
        make_executable({"libp" + n + ".so"}, {"/apps/a" + n + "/lib"}));
    exes.push_back("/apps/a" + n + "/bin/app");
  }
  auto session = builder.build();
  auto child = session.fork();  // load_many through a forked session

  std::vector<loader::LoadReport> serial;
  for (const auto& exe : exes) serial.push_back(session.load(exe));
  const auto parallel = child.load_many(exes);
  ASSERT_EQ(parallel.size(), exes.size());
  for (std::size_t i = 0; i < exes.size(); ++i) {
    expect_reports_identical(serial[i], parallel[i]);
  }
}

// ------------------------------------------------------------- what-if

TEST(WhatIfTest, ReportsWrapEffectWithoutMutatingTheWorld) {
  auto session = small_world().build();
  const std::string before = session.save();
  const auto report = session.whatif();
  EXPECT_TRUE(report.wrap.ok());
  EXPECT_LT(report.after.stats.metadata_calls(),
            report.before.stats.metadata_calls());
  EXPECT_NE(report.before_tree, report.after_tree);
  EXPECT_NE(report.tree_diff.find("+ "), std::string::npos);
  EXPECT_NE(report.tree_diff.find("- "), std::string::npos);
  // The session's world is byte-identical afterwards.
  EXPECT_EQ(session.save(), before);
  // And the wrap really did NOT apply here: loading is still search-based.
  const auto still_unwrapped = session.load();
  EXPECT_EQ(still_unwrapped.stats.metadata_calls(),
            report.before.stats.metadata_calls());
}

// -------------------------------------------- dentry warm start on fork

/// Random probe mix against pre-existing and never-probed paths.
std::string warm_storm(vfs::FileSystem& fs, std::uint64_t seed, int rounds) {
  support::Rng rng(seed);
  std::string out;
  for (int i = 0; i < rounds; ++i) {
    const std::string path = "/w/d" + std::to_string(rng.below(6)) + "/f" +
                             std::to_string(rng.below(20));
    switch (rng.below(3)) {
      case 0: {
        const auto st = fs.stat(path);
        out += st ? std::to_string(st->ino) : std::string("-");
        break;
      }
      case 1:
        out += fs.exists(path) ? "+" : "-";
        break;
      default:
        out += fs.realpath(path).value_or("-");
        break;
    }
    out += ';';
  }
  out += "stat=" + std::to_string(fs.stats().stat_calls) +
         " fail=" + std::to_string(fs.stats().failed_probes);
  return out;
}

TEST(DentryWarmStart, ForkedChildAnswersLikeAColdDeepCopy) {
  vfs::FileSystem parent;
  support::Rng rng(7);
  for (int d = 0; d < 6; ++d) {
    for (int f = 0; f < 12; ++f) {
      const std::string dir = "/w/d" + std::to_string(d);
      if (rng.chance(0.2)) {
        parent.symlink("f" + std::to_string((f + 1) % 12),
                       dir + "/f" + std::to_string(f));
      } else {
        parent.write_file(dir + "/f" + std::to_string(f), "data");
      }
    }
  }
  // Warm the parent's memo — positive and negative entries.
  warm_storm(parent, 1, 300);
  parent.reset_stats();

  // The property: a warm-started fork is OBSERVABLY identical to a cold
  // deep copy — same answers, same counters — for identical probes.
  vfs::FileSystem cold(parent);
  cold.reset_stats();
  vfs::FileSystem child = parent.fork();
  EXPECT_EQ(warm_storm(child, 2, 500), warm_storm(cold, 2, 500));

  // And the parent keeps its warmth across the fork with the same
  // transparency.
  vfs::FileSystem cold2(parent);
  parent.reset_stats();
  cold2.reset_stats();
  EXPECT_EQ(warm_storm(parent, 3, 500), warm_storm(cold2, 3, 500));
}

TEST(DentryWarmStart, CopyOnInvalidateIsPerView) {
  vfs::FileSystem parent;
  parent.write_file("/a/b/one", "1");
  parent.write_file("/a/b/two", "2");
  EXPECT_TRUE(parent.exists("/a/b/one"));  // warm
  vfs::FileSystem child = parent.fork();
  EXPECT_TRUE(child.exists("/a/b/one"));  // served warm

  // Child mutates: ITS snapshot reference drops; answers adjust.
  child.remove("/a/b/one");
  EXPECT_FALSE(child.exists("/a/b/one"));
  // Siblings and the parent keep the shared snapshot AND the old truth.
  EXPECT_TRUE(parent.exists("/a/b/one"));
  vfs::FileSystem sibling = parent.fork();
  EXPECT_TRUE(sibling.exists("/a/b/one"));
}

TEST(DentryWarmStart, SymlinkLoopHopsReplayThroughTheSnapshot) {
  vfs::FileSystem parent;
  parent.symlink("/loop/b", "/loop/a");
  parent.symlink("/loop/a", "/loop/b");
  parent.write_file("/ok/file", "x");
  EXPECT_FALSE(parent.exists("/loop/a"));  // ELOOP memoized as negative-ish
  EXPECT_TRUE(parent.exists("/ok/file"));
  vfs::FileSystem child = parent.fork();
  // Behaviour must replay identically through the warm snapshot.
  EXPECT_FALSE(child.exists("/loop/a"));
  EXPECT_THROW(child.list_dir("/loop/a"), FsError);
  EXPECT_TRUE(child.exists("/ok/file"));
}

TEST(DentryWarmStart, DisabledCacheStaysDisabledAcrossFork) {
  vfs::FileSystem parent;
  parent.write_file("/x/y", "z");
  parent.set_dentry_cache(false);
  EXPECT_TRUE(parent.exists("/x/y"));
  vfs::FileSystem child = parent.fork();
  EXPECT_FALSE(child.dentry_cache_enabled());
  EXPECT_TRUE(child.exists("/x/y"));
}

/// One side's answer to a launch: the cold load a bare 64-rank launch
/// measures, run on the view under test so its counted probes stay there,
/// priced by the public storm formulas; or the error.
std::string launch_answer(vfs::FileSystem& fs, const std::string& exe) {
  try {
    fs.clear_caches();
    loader::Loader loader(fs);
    const loader::LoadReport report = loader.load(exe);
    std::uint64_t bytes = 0;
    for (const auto& obj : report.load_order) {
      if (const vfs::FileData* data = fs.peek(obj.path)) bytes += data->size();
    }
    const std::uint64_t meta = report.stats.metadata_calls();
    const launch::ClusterConfig cluster;
    const double t =
        cluster.init_s +
        launch::storm_data_seconds(static_cast<double>(bytes), 64, cluster) +
        launch::storm_meta_seconds(static_cast<double>(meta), 64, cluster);
    return std::to_string(report.success) + " meta=" + std::to_string(meta) +
           " bytes=" + std::to_string(bytes) + " t=" + std::to_string(t);
  } catch (const Error& e) {
    return e.what();
  }
}

/// One side's answer to a stat/lstat/open/realpath probe.
std::string probe_answer(vfs::FileSystem& fs, const std::string& path,
                         std::uint64_t kind) {
  switch (kind) {
    case 0: {
      const auto st = fs.stat(path);
      return st ? std::to_string(st->ino) + ":" + std::to_string(st->size)
                : "-";
    }
    case 1: {
      const auto st = fs.lstat(path);
      return st ? std::to_string(st->ino) : "-";
    }
    case 2: {
      const vfs::FileData* data = fs.open(path);
      return data ? std::to_string(data->size()) + ":" + data->bytes : "-";
    }
    default:
      return fs.realpath(path).value_or("-");
  }
}

TEST(DentryWarmStart, PropertyForkChainsMatchUncachedTwin) {
  // Randomized mutate / stat / negative-probe / fork-and-replace / launch
  // traffic against a view that rides its own fork chain, so the shared
  // snapshot answers most walks, positive and negative, and a deep-copied
  // twin with the dentry cache off. Ghost paths are probed while missing,
  // then created and removed, so a stale snapshot entry of either sign
  // would show. Every answer, inode, error and counter must match.
  for (const std::uint64_t seed : {11ull, 4242ull, 0xabadull}) {
    support::Rng rng(seed);
    workload::PynamicConfig config;
    config.num_modules = 18;
    config.exe_extra_bytes = 1u << 16;
    vfs::FileSystem cached;
    const auto app = workload::generate_pynamic(cached, config);
    vfs::FileSystem twin(cached);  // deep copy: identical inode numbering
    twin.set_dentry_cache(false);

    std::vector<std::string> pool = app.module_paths;
    pool.push_back(app.exe_path);
    std::vector<std::string> ghosts;
    for (int i = 0; i < 12; ++i) {
      ghosts.push_back("/scratch/d" + std::to_string(i % 3) + "/f" +
                       std::to_string(i));
    }
    vfs::SyscallStats counted;  // `cached`'s counters before its forks
    const auto pick = [&]() -> const std::string& {
      return rng.below(2) == 0 ? ghosts[rng.below(ghosts.size())]
                               : pool[rng.below(pool.size())];
    };
    for (int step = 0; step < 120; ++step) {
      switch (rng.below(6)) {
        case 0: {  // write: a ghost appears, or a pool file changes
          const std::string& path = pick();
          const std::string bytes = "s" + std::to_string(step);
          vfs::apply_both(cached, twin, [&](vfs::FileSystem& fs) {
            fs.write_file(path, bytes);
          });
          break;
        }
        case 1: {  // remove a path, or link a ghost to a pool file
          const std::string& path = pick();
          if (rng.below(3) == 0) {
            const std::string& target = pool[rng.below(pool.size())];
            vfs::apply_both(cached, twin, [&](vfs::FileSystem& fs) {
              fs.symlink(target, path);
            });
          } else {
            vfs::apply_both(cached, twin, [&](vfs::FileSystem& fs) {
              fs.remove(path);
            });
          }
          break;
        }
        case 2:  // probe storm over live and ghost paths
          for (int i = 0; i < 12; ++i) {
            const std::string& path = pick();
            const std::uint64_t kind = rng.below(4);
            ASSERT_EQ(probe_answer(cached, path, kind),
                      probe_answer(twin, path, kind))
                << path << " seed " << seed << " step " << step;
          }
          break;
        case 3:  // fork-and-replace: the snapshot boundary under test
          counted += cached.stats();  // a fork starts with zeroed counters
          cached = cached.fork();
          break;
        case 4:  // launch traffic: the loader's candidate storm
          ASSERT_EQ(launch_answer(cached, app.exe_path),
                    launch_answer(twin, app.exe_path))
              << "seed " << seed << " step " << step;
          break;
        default: {  // negative probes of never-existing paths
          const std::string ghost =
              "/ghost/d" + std::to_string(rng.below(3)) + "/g" +
              std::to_string(rng.below(8));
          EXPECT_FALSE(cached.stat(ghost).has_value()) << ghost;
          EXPECT_FALSE(twin.stat(ghost).has_value()) << ghost;
          break;
        }
      }
    }
    counted += cached.stats();
    const vfs::SyscallStats& want = twin.stats();
    EXPECT_EQ(counted.stat_calls, want.stat_calls) << "seed " << seed;
    EXPECT_EQ(counted.open_calls, want.open_calls) << "seed " << seed;
    EXPECT_EQ(counted.read_calls, want.read_calls) << "seed " << seed;
    EXPECT_EQ(counted.failed_probes, want.failed_probes) << "seed " << seed;
  }
}

TEST(WhatIfTest, TreeDiffMarksChangedLines) {
  const std::string diff = shrinkwrap::tree_diff("a\nb\nc\n", "a\nx\nc\n");
  EXPECT_EQ(diff, "  a\n- b\n+ x\n  c\n");
  EXPECT_EQ(shrinkwrap::tree_diff("same\n", "same\n"), "  same\n");
}

}  // namespace
}  // namespace depchaos::core
