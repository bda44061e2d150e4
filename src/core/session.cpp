#include "depchaos/core/session.hpp"

#include <algorithm>
#include <exception>
#include <thread>
#include <utility>

#include "depchaos/support/thread_pool.hpp"
#include "depchaos/vfs/snapshot.hpp"

namespace depchaos::core {

Session::Session(vfs::FileSystem fs, SessionConfig config,
                 std::string default_exe)
    : config_(std::move(config)),
      fs_(std::make_unique<vfs::FileSystem>(std::move(fs))),
      default_exe_(std::move(default_exe)) {
  if (config_.latency) fs_->set_latency_model(config_.latency);
  loader_ = std::make_unique<loader::Loader>(*fs_, config_.search,
                                             config_.dialect);
}

Session Session::from_snapshot(std::string_view image, SessionConfig config) {
  if (vfs::is_fleet_image(image)) {
    auto fleet = vfs::load_fleet(image);
    vfs::FileSystem fs = fleet.views.empty()
                             ? std::move(fleet.base)
                             : std::move(fleet.views.front());
    return Session(std::move(fs), std::move(config));
  }
  return Session(vfs::load_world(image), std::move(config));
}

Session Session::sandbox(const SandboxSpec& spec) {
  // No cache adoption: the namespace surgery below would stale the host's
  // parsed-object / ld.so caches, so the sandbox starts cold and rebuilds
  // its own lazily — resolving against the HOST's ld.so.cache is precisely
  // the class of bug the container scenarios model.
  seal();
  Session child = stamp_cold();
  vfs::FileSystem& cfs = child.fs();
  if (spec.image) {
    if (spec.writable_image_overlay) {
      cfs.mount_overlay(spec.image_mount, spec.image);
    } else {
      cfs.mount_image(spec.image_mount, spec.image);
    }
  }
  for (const auto& dir : spec.mask) {
    cfs.mount_tmpfs(dir, /*read_only=*/true);
  }
  for (const auto& dir : spec.scratch) {
    cfs.mount_tmpfs(dir, /*read_only=*/false);
  }
  if (!spec.exe.empty()) child.set_default_exe(spec.exe);
  return child;
}

Session Session::fork() {
  seal();
  return fork_sealed();
}

Session Session::fork_sealed() const {
  Session child = stamp_cold();
  // Adoption reads the sealed parent's caches const-ly (plain map copies
  // of immutable parsed objects) — safe under concurrent fork_sealed().
  child.loader_->adopt_caches(*loader_);
  return child;
}

Session Session::stamp_cold() const {
  SessionConfig config = config_;
  // The stamped filesystem carries its own per-view latency model (cloned
  // by FileSystem::fork_sealed); a non-null config.latency would overwrite
  // it in the constructor with the parent's shared instance.
  config.latency.reset();
  return Session(fs_->fork_sealed(), std::move(config), default_exe_);
}

Session::WhatIfReport Session::whatif(std::string_view exe,
                                      WrapOptions options, TreeOptions tree) {
  const std::string target = resolve_exe(exe);
  WhatIfReport report;
  // libtree() is load() + render_tree(); render from the reports we keep
  // anyway instead of resolving each closure twice.
  report.before = load(target);
  report.before_tree =
      ::depchaos::shrinkwrap::render_tree(report.before, tree, fs_->paths());
  Session sandbox = fork();
  report.wrap = sandbox.shrinkwrap(target, std::move(options));
  report.after = sandbox.load(target);
  report.after_tree =
      ::depchaos::shrinkwrap::render_tree(report.after, tree, fs_->paths());
  report.tree_diff =
      ::depchaos::shrinkwrap::tree_diff(report.before_tree, report.after_tree);
  return report;
}

std::string Session::resolve_exe(std::string_view exe) const {
  if (!exe.empty()) return std::string(exe);
  if (default_exe_.empty()) {
    throw Error("session has no default executable; pass a path");
  }
  return default_exe_;
}

Session::LoadReport Session::load(std::string_view exe) {
  return load(exe, config_.env);
}

Session::LoadReport Session::load(std::string_view exe,
                                  const loader::Environment& env) {
  return loader_->load(resolve_exe(exe), env);
}

std::vector<Session::LoadReport> Session::load_many(
    std::span<const std::string> exes) {
  std::vector<LoadReport> reports(exes.size());
  if (exes.empty()) return reports;

  // Resolve "" entries against the default target up front, on this
  // thread, so a bad entry throws before any worker runs.
  std::vector<std::string> paths;
  paths.reserve(exes.size());
  for (const auto& exe : exes) paths.push_back(resolve_exe(exe));

  const std::size_t hardware = std::max<std::size_t>(
      1, config_.threads ? config_.threads
                         : std::thread::hardware_concurrency());
  const std::size_t workers = std::min(hardware, paths.size());

  // One isolated world FORK per worker (not per entry): an O(1)
  // copy-on-write view with private syscall counters, a private
  // parsed-object cache, and private latency-model state cloned from
  // batch start by fork(). Loads never write, so no worker pays a single
  // byte of world copy; each load's stats are a delta on its own counters,
  // and report content does not depend on cache warmth, so every report
  // matches a sequential load() byte for byte — see the header for the
  // stateful-latency caveat. Forks are taken on this thread (fork mutates
  // the parent once, freezing its overlay) before any worker runs.
  std::vector<vfs::FileSystem> worlds;
  worlds.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) worlds.push_back(fs_->fork());

  support::ThreadPool pool(workers);
  std::vector<std::exception_ptr> errors(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.submit([this, &paths, &reports, &errors, &worlds, w, workers] {
      try {
        loader::Loader worker(worlds[w], config_.search, config_.dialect);
        // Adopt the parent loader's parsed-object and ld.so caches instead
        // of rescanning ld.so.cache per worker: the forked world is
        // byte-identical at this point, parsed objects are immutable, and
        // cache warmth never shows in counters (a load charges the open and
        // read either way) — so reports stay byte-identical to sequential
        // loads while the per-worker warmup cost drops to a map copy.
        worker.adopt_caches(*loader_);
        for (std::size_t i = w; i < paths.size(); i += workers) {
          reports[i] = worker.load(paths[i], config_.env);
        }
      } catch (...) {
        errors[w] = std::current_exception();
      }
    });
  }
  pool.wait_idle();

  for (auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  // Aggregate the per-load stat deltas into the session's accounting, the
  // way sequential loads would have charged it — after the join, so no
  // counter interleaving is possible.
  for (const auto& report : reports) {
    fs_->stats() += report.stats;
  }
  return reports;
}

loader::LoadedObject Session::dlopen(LoadReport& report,
                                     const std::string& caller_path,
                                     const std::string& name) {
  return loader_->dlopen(report, caller_path, name, config_.env);
}

Session::WrapReport Session::shrinkwrap(std::string_view exe) {
  return shrinkwrap(exe, WrapOptions{});
}

Session::WrapReport Session::shrinkwrap(std::string_view exe,
                                        WrapOptions options,
                                        const RecordedLoad* recorded) {
  // An unset env (both vectors empty) inherits the session environment,
  // matching every other verb; pass a non-empty env to override.
  if (options.env.ld_library_path.empty() && options.env.ld_preload.empty()) {
    options.env = config_.env;
  }
  return ::depchaos::shrinkwrap::shrinkwrap(*fs_, *loader_, resolve_exe(exe),
                                            options, recorded);
}

Session::VerifyReport Session::verify(std::string_view exe) {
  return verify(exe, config_.env);
}

Session::VerifyReport Session::verify(std::string_view exe,
                                      const loader::Environment& env) {
  return ::depchaos::shrinkwrap::verify(*fs_, *loader_, resolve_exe(exe), env);
}

std::string Session::libtree(std::string_view exe, TreeOptions options) {
  return ::depchaos::shrinkwrap::libtree(*fs_, *loader_, resolve_exe(exe),
                                         config_.env, options);
}

Session::LaunchResult Session::launch(std::string_view exe, int ranks) {
  return launch(exe, ranks, config_.cluster);
}

Session::LaunchResult Session::launch(std::string_view exe, int ranks,
                                      const launch::ClusterConfig& cluster) {
  return launch::scaling_sweep(*fs_, *loader_, resolve_exe(exe), config_.env,
                               {ranks}, cluster)
      .front();
}

std::vector<Session::LaunchResult> Session::launch_sweep(
    std::string_view exe, const std::vector<int>& rank_counts) {
  return launch::scaling_sweep(*fs_, *loader_, resolve_exe(exe), config_.env,
                               rank_counts, config_.cluster);
}

Session::LaunchResult Session::launch_fleet(const SandboxSpec& spec,
                                            int ranks) {
  launch::FleetConfig config;
  config.cluster = config_.cluster;
  return launch_fleet(spec, {}, ranks, config);
}

Session::LaunchResult Session::launch_fleet(const SandboxSpec& spec,
                                            std::string_view exe, int ranks,
                                            const launch::FleetConfig& config) {
  return launch::simulate_fleet_launch(*this, spec, std::string(exe), ranks,
                                       config);
}

std::string Session::save() const { return vfs::save_world(*fs_); }

}  // namespace depchaos::core
