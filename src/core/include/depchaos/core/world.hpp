// core::WorldBuilder — compose a scenario world, then open a Session on it.
//
// One fluent object replaces the hand-wired FileSystem + generator +
// SearchConfig + Loader + Environment boilerplate that every consumer used
// to repeat. Generators for the paper's worlds (pynamic, emacs, samba,
// rocm, paradox, debian) compose with custom objects, snapshot
// load/save, and the session knobs (dialect, search config, environment,
// latency model):
//
//   auto session = core::WorldBuilder()
//                      .pynamic({.num_modules = 300})
//                      .nfs()
//                      .build();
//   auto sweep = session.launch_sweep("", {64, 256, 1024});
//
// The scenario structs the generators return stay accessible (rocm_info()
// etc.) so walkthrough code can reach their environments and markers
// without re-wiring anything.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "depchaos/core/session.hpp"
#include "depchaos/elf/object.hpp"
#include "depchaos/workload/debian.hpp"
#include "depchaos/workload/emacs.hpp"
#include "depchaos/workload/pynamic.hpp"
#include "depchaos/workload/scenarios.hpp"

namespace depchaos::core {

class WorldBuilder {
 public:
  WorldBuilder() = default;

  // ---- scenario generators (each sets the default target) -----------------
  WorldBuilder& pynamic(const workload::PynamicConfig& config = {});
  WorldBuilder& emacs(const workload::EmacsConfig& config = {});
  WorldBuilder& samba();
  WorldBuilder& rocm();
  WorldBuilder& paradox();
  /// Fig 4 installed system, materialized as an FHS tree.
  WorldBuilder& debian(const workload::InstalledSystemConfig& config = {});

  /// CLI-style dispatch over the generator names above. Throws
  /// depchaos::Error on an unknown name.
  WorldBuilder& scenario(std::string_view name);

  // ---- custom content ------------------------------------------------------
  WorldBuilder& install(std::string_view path, const elf::Object& object);
  WorldBuilder& file(std::string_view path, std::string bytes);

  // ---- snapshots -----------------------------------------------------------
  /// Replace the world with a DCWORLD1 image (vfs::save_world output).
  WorldBuilder& snapshot(std::string_view image);
  /// Serialize the current world.
  std::string save() const;

  // ---- session knobs -------------------------------------------------------
  WorldBuilder& dialect(loader::Dialect dialect);
  WorldBuilder& search(loader::SearchConfig config);
  WorldBuilder& environment(loader::Environment env);
  WorldBuilder& cluster(launch::ClusterConfig config);
  /// The latency model build() installs on the world (build_image() does
  /// not).
  WorldBuilder& latency(vfs::LatencyModel model);
  WorldBuilder& nfs() { return latency(vfs::LatencyModel::nfs()); }
  WorldBuilder& local_disk() {
    return latency(vfs::LatencyModel::local_disk());
  }
  WorldBuilder& threads(std::size_t n);
  /// Override the default target executable.
  WorldBuilder& target(std::string exe);

  // ---- introspection -------------------------------------------------------
  vfs::FileSystem& fs() { return fs_; }
  const std::string& default_exe() const { return default_exe_; }
  /// Human-readable description of the last generated scenario.
  const std::string& note() const { return note_; }
  const std::optional<workload::PynamicApp>& pynamic_info() const {
    return pynamic_;
  }
  const std::optional<workload::EmacsApp>& emacs_info() const {
    return emacs_;
  }
  const std::optional<workload::RocmScenario>& rocm_info() const {
    return rocm_;
  }
  const std::optional<workload::ParadoxScenario>& paradox_info() const {
    return paradox_;
  }

  /// Open a Session on the composed world (consumes the builder's world).
  Session build();

  /// Freeze the composed world into a shared read-only application image
  /// (consumes the builder's world) for vfs::FileSystem::mount_image /
  /// Session::sandbox. Paths inside the image are image-root relative;
  /// use $ORIGIN-style search paths so the image works at any mountpoint.
  std::shared_ptr<vfs::FileSystem> build_image();

 private:
  vfs::FileSystem fs_;
  SessionConfig config_;
  std::optional<vfs::LatencyModel> latency_;
  std::string default_exe_;
  std::string note_;
  std::optional<workload::PynamicApp> pynamic_;
  std::optional<workload::EmacsApp> emacs_;
  std::optional<workload::RocmScenario> rocm_;
  std::optional<workload::ParadoxScenario> paradox_;
};

}  // namespace depchaos::core
