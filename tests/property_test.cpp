// Property-style sweeps over randomized dependency worlds (parameterized
// gtest). For every (seed, size, link-style) combination we build a random
// store-model application and check the invariants the paper's tooling
// relies on:
//   * the loader resolves it (the generator wires search paths correctly);
//   * shrinkwrap resolves the same closure as the loader (Interp == what
//     actually loaded), rewrites to absolute paths, and verify() passes;
//   * wrapping never increases metadata syscalls and never changes the SET
//     of loaded files;
//   * wrapping is idempotent;
//   * a hostile LD_LIBRARY_PATH full of impostors cannot redirect a
//     wrapped binary.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "depchaos/elf/patcher.hpp"
#include "depchaos/loader/loader.hpp"
#include "depchaos/shrinkwrap/shrinkwrap.hpp"
#include "depchaos/support/rng.hpp"
#include "depchaos/vfs/vfs.hpp"

namespace depchaos {
namespace {

enum class Style { RpathOnExe, RunpathPerLib };

struct WorldParam {
  std::uint64_t seed;
  std::size_t num_libs;
  Style style;
};

std::string param_name(const ::testing::TestParamInfo<WorldParam>& info) {
  return "seed" + std::to_string(info.param.seed) + "_n" +
         std::to_string(info.param.num_libs) +
         (info.param.style == Style::RpathOnExe ? "_rpath" : "_runpath");
}

/// A random store-model world: libs 0..n-1, lib i may need any subset of
/// earlier libs (acyclic), each lib in its own directory.
struct World {
  vfs::FileSystem fs;
  std::string exe_path = "/world/bin/app";
  std::vector<std::string> lib_paths;
  std::set<std::string> all_sonames;

  explicit World(const WorldParam& param) {
    support::Rng rng(param.seed);
    std::vector<std::string> sonames;
    std::vector<std::string> dirs;
    for (std::size_t i = 0; i < param.num_libs; ++i) {
      sonames.push_back("librand" + std::to_string(i) + ".so");
      dirs.push_back("/world/pkg" + std::to_string(i) + "/lib");
      all_sonames.insert(sonames.back());
    }
    for (std::size_t i = 0; i < param.num_libs; ++i) {
      std::vector<std::string> needed;
      std::vector<std::string> dep_dirs;
      const std::size_t max_deps = std::min<std::size_t>(i, 4);
      const std::size_t num_deps =
          max_deps == 0 ? 0 : rng.below(max_deps + 1);
      std::set<std::size_t> chosen;
      for (std::size_t d = 0; d < num_deps; ++d) {
        const std::size_t target = rng.below(i);
        if (chosen.insert(target).second) {
          needed.push_back(sonames[target]);
          dep_dirs.push_back(dirs[target]);
        }
      }
      elf::Object lib =
          param.style == Style::RunpathPerLib
              ? elf::make_library(sonames[i], needed, dep_dirs)
              : elf::make_library(sonames[i], needed);
      elf::install_object(fs, dirs[i] + "/" + sonames[i], lib);
      lib_paths.push_back(dirs[i] + "/" + sonames[i]);
    }
    // The executable needs a random non-empty subset of libs.
    std::vector<std::string> exe_needed;
    std::vector<std::string> exe_dirs;
    for (std::size_t i = 0; i < param.num_libs; ++i) {
      if (rng.chance(0.5) || i == param.num_libs - 1) {
        exe_needed.push_back(sonames[i]);
      }
      exe_dirs.push_back(dirs[i]);
    }
    elf::Object exe =
        param.style == Style::RunpathPerLib
            ? elf::make_executable(exe_needed, exe_dirs)
            : elf::make_executable(exe_needed, {}, exe_dirs);
    elf::install_object(fs, exe_path, exe);
  }
};

std::set<std::string> loaded_realpaths(const loader::LoadReport& report) {
  std::set<std::string> out;
  for (std::size_t i = 1; i < report.load_order.size(); ++i) {
    out.insert(report.load_order[i].real_path);
  }
  return out;
}

class RandomWorldTest : public ::testing::TestWithParam<WorldParam> {};

TEST_P(RandomWorldTest, LoadsAsBuilt) {
  World world(GetParam());
  loader::Loader loader(world.fs);
  EXPECT_TRUE(loader.load(world.exe_path).success);
}

TEST_P(RandomWorldTest, ShrinkwrapPreservesLoadedSet) {
  World world(GetParam());
  loader::Loader loader(world.fs);
  const auto before = loader.load(world.exe_path);
  ASSERT_TRUE(before.success);
  const auto before_set = loaded_realpaths(before);

  const auto wrap = shrinkwrap::shrinkwrap(world.fs, loader, world.exe_path);
  ASSERT_TRUE(wrap.ok());
  const auto after = loader.load(world.exe_path);
  ASSERT_TRUE(after.success);
  EXPECT_EQ(loaded_realpaths(after), before_set);
}

TEST_P(RandomWorldTest, ShrinkwrapNeverIncreasesSyscalls) {
  World world(GetParam());
  loader::Loader loader(world.fs);
  const auto before = loader.load(world.exe_path);
  ASSERT_TRUE(before.success);
  ASSERT_TRUE(shrinkwrap::shrinkwrap(world.fs, loader, world.exe_path).ok());
  const auto after = loader.load(world.exe_path);
  EXPECT_LE(after.stats.metadata_calls(), before.stats.metadata_calls());
  EXPECT_EQ(after.stats.failed_probes, 0u);
}

TEST_P(RandomWorldTest, ShrinkwrapIdempotent) {
  World world(GetParam());
  loader::Loader loader(world.fs);
  const auto first = shrinkwrap::shrinkwrap(world.fs, loader, world.exe_path);
  ASSERT_TRUE(first.ok());
  const auto second =
      shrinkwrap::shrinkwrap(world.fs, loader, world.exe_path);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.new_needed, second.new_needed);
  EXPECT_FALSE(second.changed);
}

TEST_P(RandomWorldTest, VerifyPassesAfterWrap) {
  World world(GetParam());
  loader::Loader loader(world.fs);
  ASSERT_TRUE(shrinkwrap::shrinkwrap(world.fs, loader, world.exe_path).ok());
  EXPECT_TRUE(shrinkwrap::verify(world.fs, loader, world.exe_path).ok);
}

TEST_P(RandomWorldTest, WrappedResistsImpostorEnvironment) {
  World world(GetParam());
  loader::Loader loader(world.fs);
  const auto before = loader.load(world.exe_path);
  ASSERT_TRUE(before.success);
  ASSERT_TRUE(shrinkwrap::shrinkwrap(world.fs, loader, world.exe_path).ok());
  // Impostors for every soname.
  for (const auto& soname : world.all_sonames) {
    elf::install_object(world.fs, "/impostors/" + soname,
                        elf::make_library(soname));
  }
  const auto hostile = loader.load(
      world.exe_path, loader::Environment::with_library_path({"/impostors"}));
  ASSERT_TRUE(hostile.success);
  for (const auto& path : loaded_realpaths(hostile)) {
    EXPECT_FALSE(path.starts_with("/impostors/")) << path;
  }
}

TEST_P(RandomWorldTest, InterpAndNativeStrategiesAgree) {
  const auto param = GetParam();
  World interp_world(param);
  World native_world(param);  // identical by construction (same seed)
  loader::Loader interp_loader(interp_world.fs);
  loader::Loader native_loader(native_world.fs);
  const auto interp =
      shrinkwrap::shrinkwrap(interp_world.fs, interp_loader,
                             interp_world.exe_path);
  shrinkwrap::Options options;
  options.strategy = shrinkwrap::Strategy::Native;
  const auto native = shrinkwrap::shrinkwrap(
      native_world.fs, native_loader, native_world.exe_path, options);
  ASSERT_TRUE(interp.ok());
  ASSERT_TRUE(native.ok());
  EXPECT_EQ(interp.new_needed, native.new_needed);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomWorldTest,
    ::testing::Values(
        WorldParam{1, 3, Style::RpathOnExe},
        WorldParam{2, 8, Style::RpathOnExe},
        WorldParam{3, 20, Style::RpathOnExe},
        WorldParam{4, 50, Style::RpathOnExe},
        WorldParam{5, 8, Style::RunpathPerLib},
        WorldParam{6, 20, Style::RunpathPerLib},
        WorldParam{7, 50, Style::RunpathPerLib},
        WorldParam{8, 120, Style::RpathOnExe},
        WorldParam{9, 120, Style::RunpathPerLib}),
    param_name);

// ------------------------------------------------------- path properties

class PathNormalizeTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PathNormalizeTest, NormalizeIsIdempotent) {
  support::Rng rng(GetParam());
  static const char* kComponents[] = {"usr", "lib", ".", "..", "a", "b5",
                                      "store", "x-y_z"};
  for (int trial = 0; trial < 200; ++trial) {
    std::string path = "/";
    const std::size_t parts = 1 + rng.below(8);
    for (std::size_t i = 0; i < parts; ++i) {
      path += kComponents[rng.below(std::size(kComponents))];
      if (rng.chance(0.3)) path += "/";
      path += "/";
    }
    const std::string once = vfs::normalize_path(path);
    EXPECT_EQ(vfs::normalize_path(once), once) << path;
    EXPECT_TRUE(once == "/" || !once.ends_with('/')) << once;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PathNormalizeTest,
                         ::testing::Values(11, 22, 33, 44));

// ------------------------------------------------ serialization property

class SelfRoundTripTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SelfRoundTripTest, RandomObjectsRoundTrip) {
  support::Rng rng(GetParam());
  for (int trial = 0; trial < 100; ++trial) {
    elf::Object object;
    object.kind = rng.chance(0.5) ? elf::ObjectKind::Executable
                                  : elf::ObjectKind::SharedObject;
    const elf::Machine machines[] = {elf::Machine::X86, elf::Machine::X86_64,
                                     elf::Machine::PPC64LE,
                                     elf::Machine::AArch64};
    object.machine = machines[rng.below(4)];
    if (rng.chance(0.7)) object.dyn.soname = "lib" + std::to_string(trial) + ".so";
    for (std::size_t i = 0; i < rng.below(6); ++i) {
      object.dyn.needed.push_back("libdep" + std::to_string(i) + ".so");
    }
    for (std::size_t i = 0; i < rng.below(4); ++i) {
      object.dyn.rpath.push_back("/r" + std::to_string(i));
    }
    for (std::size_t i = 0; i < rng.below(4); ++i) {
      object.dyn.runpath.push_back("$ORIGIN/../l" + std::to_string(i));
    }
    for (std::size_t i = 0; i < rng.below(5); ++i) {
      const elf::SymbolBinding bindings[] = {elf::SymbolBinding::Local,
                                             elf::SymbolBinding::Global,
                                             elf::SymbolBinding::Weak};
      object.symbols.push_back(elf::Symbol{"sym_" + std::to_string(i),
                                           bindings[rng.below(3)],
                                           rng.chance(0.6)});
    }
    for (std::size_t i = 0; i < rng.below(3); ++i) {
      object.dlopen_names.push_back("libplug" + std::to_string(i) + ".so");
    }
    object.extra_size = rng.below(1 << 20);
    EXPECT_EQ(elf::parse(elf::serialize(object)), object);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SelfRoundTripTest,
                         ::testing::Values(101, 202, 303));

}  // namespace
}  // namespace depchaos
