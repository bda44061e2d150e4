#include "depchaos/core/world.hpp"

#include <utility>

#include "depchaos/elf/patcher.hpp"
#include "depchaos/vfs/snapshot.hpp"

namespace depchaos::core {

WorldBuilder& WorldBuilder::pynamic(const workload::PynamicConfig& config) {
  pynamic_ = workload::generate_pynamic(fs_, config);
  default_exe_ = pynamic_->exe_path;
  note_ = "executable: " + pynamic_->exe_path;
  return *this;
}

WorldBuilder& WorldBuilder::emacs(const workload::EmacsConfig& config) {
  emacs_ = workload::generate_emacs_like(fs_, config);
  default_exe_ = emacs_->exe_path;
  note_ = "executable: " + emacs_->exe_path;
  return *this;
}

WorldBuilder& WorldBuilder::samba() {
  default_exe_ = workload::make_samba_scenario(fs_).exe_path;
  note_ = "executable: " + default_exe_;
  return *this;
}

WorldBuilder& WorldBuilder::rocm() {
  rocm_ = workload::make_rocm_scenario(fs_);
  default_exe_ = rocm_->exe_path;
  note_ = "executable: " + rocm_->exe_path +
          "  (wrong env: LD_LIBRARY_PATH=" + rocm_->bad_lib_dir + ")";
  return *this;
}

WorldBuilder& WorldBuilder::paradox() {
  paradox_ = workload::make_runpath_paradox(fs_);
  default_exe_ = paradox_->exe_path;
  note_ = "executable: " + paradox_->exe_path;
  return *this;
}

WorldBuilder& WorldBuilder::debian(
    const workload::InstalledSystemConfig& config) {
  const workload::InstalledSystem system =
      workload::generate_installed_system(config);
  workload::materialize_installed_system(fs_, system);
  default_exe_ = "/usr/bin/bin0";
  note_ = "installed system: " + std::to_string(system.binary_deps.size()) +
          " binaries, " + std::to_string(system.num_shared_objects) +
          " shared objects";
  return *this;
}

WorldBuilder& WorldBuilder::scenario(std::string_view name) {
  if (name == "pynamic") return pynamic();
  if (name == "emacs") return emacs();
  if (name == "samba") return samba();
  if (name == "rocm") return rocm();
  if (name == "paradox") return paradox();
  if (name == "debian") return debian();
  throw Error("unknown scenario: " + std::string(name));
}

WorldBuilder& WorldBuilder::install(std::string_view path,
                                    const elf::Object& object) {
  elf::install_object(fs_, path, object);
  if (object.kind == elf::ObjectKind::Executable && default_exe_.empty()) {
    default_exe_ = std::string(path);
  }
  return *this;
}

WorldBuilder& WorldBuilder::file(std::string_view path, std::string bytes) {
  fs_.write_file(path, std::move(bytes));
  return *this;
}

WorldBuilder& WorldBuilder::snapshot(std::string_view image) {
  fs_ = vfs::load_world(image);
  return *this;
}

std::string WorldBuilder::save() const { return vfs::save_world(fs_); }

WorldBuilder& WorldBuilder::dialect(loader::Dialect dialect) {
  config_.dialect = dialect;
  return *this;
}

WorldBuilder& WorldBuilder::search(loader::SearchConfig config) {
  config_.search = std::move(config);
  return *this;
}

WorldBuilder& WorldBuilder::environment(loader::Environment env) {
  config_.env = std::move(env);
  return *this;
}

WorldBuilder& WorldBuilder::cluster(launch::ClusterConfig config) {
  config_.cluster = config;
  return *this;
}

WorldBuilder& WorldBuilder::latency(vfs::LatencyModel model) {
  latency_ = std::move(model);
  return *this;
}

WorldBuilder& WorldBuilder::threads(std::size_t n) {
  config_.threads = n;
  return *this;
}

WorldBuilder& WorldBuilder::target(std::string exe) {
  default_exe_ = std::move(exe);
  return *this;
}

Session WorldBuilder::build() {
  if (latency_) fs_.set_latency_model(std::move(latency_));
  return Session(std::move(fs_), std::move(config_), std::move(default_exe_));
}

std::shared_ptr<vfs::FileSystem> WorldBuilder::build_image() {
  return std::make_shared<vfs::FileSystem>(std::move(fs_));
}

}  // namespace depchaos::core
