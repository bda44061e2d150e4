// core::Session — the unified entry point to a simulated world.
//
// Every experiment in the paper stands on the same four-piece rig: a
// vfs::FileSystem holding a world, a loader::Loader with a SearchConfig and
// a loader::Dialect, and a loader::Environment. Session owns that rig and
// exposes the verbs the paper's tooling performs against it — load (ldd),
// dlopen, shrinkwrap, verify, libtree, launch — plus batched parallel
// resolution (load_many) for corpus-scale sweeps. Build one with
// core::WorldBuilder (world.hpp) or from a DCWORLD1 snapshot.
//
//   auto session = core::WorldBuilder().emacs().build();
//   auto before  = session.load();
//   session.shrinkwrap();
//   auto after   = session.load();   // deps+1 opens, Table II's right column
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "depchaos/launch/launch.hpp"
#include "depchaos/loader/loader.hpp"
#include "depchaos/shrinkwrap/libtree.hpp"
#include "depchaos/shrinkwrap/shrinkwrap.hpp"
#include "depchaos/vfs/vfs.hpp"

namespace depchaos::core {

/// What Session::sandbox assembles on top of a fork — a container-style
/// per-job view: the app image bound read-only (optionally behind a
/// writable per-job overlay), host directories masked away, fresh
/// scratch space. The host world is never touched; a fleet of sandboxes
/// shares the host AND the image, so each one costs O(delta). Lives at
/// namespace scope (not nested in Session) so launch::simulate_fleet_launch
/// can take it with only a forward declaration; Session::SandboxSpec
/// remains a valid spelling.
struct SandboxSpec {
  /// Read-only squashfs-style application image (see
  /// WorldBuilder::build_image), mounted at `image_mount`. Null = no
  /// image (mask/scratch-only sandbox).
  std::shared_ptr<vfs::FileSystem> image;
  /// Mountpoint; "/" mounts the image as the container's own rootfs.
  std::string image_mount = "/app";
  /// Mount the image behind a writable per-job overlay (overlayfs upper
  /// layer) instead of read-only; divergence stays in this sandbox.
  bool writable_image_overlay = false;
  /// Host directories hidden behind empty read-only tmpfs — the
  /// container "mask" idiom that keeps host libraries from leaking into
  /// the job's library search.
  std::vector<std::string> mask;
  /// Fresh writable scratch mounts (per-job /tmp and friends).
  std::vector<std::string> scratch;
  /// Default executable inside the sandbox ("" keeps the parent's).
  std::string exe;
};

/// Everything configurable about a Session, in one aggregate.
struct SessionConfig {
  loader::SearchConfig search;
  /// The loader dialect of this session and of every fork, sandbox and
  /// load_many worker derived from it.
  loader::Dialect dialect = loader::Dialect::Glibc;
  /// Default process environment for every load issued by the session.
  loader::Environment env;
  /// Default cluster model for launch().
  launch::ClusterConfig cluster;
  /// Worker threads for load_many (0 = hardware concurrency).
  std::size_t threads = 0;
};

class Session {
 public:
  // Aliases so member names below can shadow the library namespaces.
  using LoadReport = loader::LoadReport;
  using WrapOptions = shrinkwrap::Options;
  using RecordedLoad = shrinkwrap::RecordedLoad;
  using WrapReport = shrinkwrap::WrapReport;
  using VerifyReport = shrinkwrap::VerifyReport;
  using TreeOptions = shrinkwrap::TreeOptions;
  using LaunchResult = launch::LaunchResult;

  /// Take ownership of a prepared world. `default_exe` (optional) is the
  /// target every exe-taking method falls back to when passed "".
  explicit Session(vfs::FileSystem fs, SessionConfig config = {},
                   std::string default_exe = {});

  /// Rebuild a session from a DCWORLD1 snapshot (vfs::save_world image) or
  /// a DCWORLD2 fleet image (first view when present, else the base).
  static Session from_snapshot(std::string_view image,
                               SessionConfig config = {});

  Session(Session&&) = default;
  Session& operator=(Session&&) = default;

  /// O(1) copy-on-write fork: a child session over a forked world
  /// (vfs::FileSystem::fork — shared immutable base, private overlay),
  /// with the same search config, dialect, environment, and default
  /// target; a per-view latency model (copied at fork time); FRESH
  /// syscall counters; and the fork family's one parsed-object cache and
  /// the parent's ld.so.cache, shared by pointer (loader::Loader::Join:
  /// nothing copied; an entry is reused only for the bytes it was parsed
  /// from, so what one fork parses every other reuses and a rewrite
  /// costs a re-parse, never a stale object). The support::PathTable is
  /// inherited too — append-only with lock-free id reads, so a forked
  /// fleet interns every probed path exactly once fleet-wide. Mutations
  /// on either side — installs, patches, shrinkwrap — never leak across
  /// the boundary, which makes forks the primitive for what-if
  /// experiments and per-worker isolation in load_many.
  Session fork();

  /// Perform fork()'s parent-side mutations once (vfs::FileSystem::seal):
  /// freeze the overlay, rotate the dentry memo into the shared snapshot,
  /// seal writable mount backings. Until the next mutation of this world,
  /// fork_sealed() is then a const, lock-free stamp — any number of
  /// threads may fork one sealed session concurrently (the
  /// svc::SessionPool admission path). Idempotent.
  void seal() { fs_->seal(); }
  bool sealed() const { return fs_->sealed(); }

  /// Lock-free fork of a seal()ed session: byte-identical to fork() —
  /// same world view, config, caches shared, fresh counters — but const
  /// on the parent, so concurrent callers need no serialization. Throws
  /// when the session is not sealed (vfs::FsError).
  Session fork_sealed() const;

  /// Compatibility spelling for the namespace-scope SandboxSpec above.
  using SandboxSpec = core::SandboxSpec;

  /// Build a per-job container view: fork this session (sealing it, as
  /// fork() does) and assemble the mount namespace from `spec`; an empty
  /// spec is a plain fork. The sandbox shares the family's parsed-object
  /// cache (each entry is reused only for the bytes it was parsed from)
  /// but not this session's ld.so.cache, which must be rebuilt from the
  /// sandbox namespace: resolving against the host's cache is precisely
  /// the class of bug the container scenarios model. Loads, shrinkwraps,
  /// and patches inside the sandbox never leak into this session's world.
  Session sandbox(const SandboxSpec& spec);

  // ---- the rig ------------------------------------------------------------
  vfs::FileSystem& fs() { return *fs_; }
  const vfs::FileSystem& fs() const { return *fs_; }
  loader::Loader& loader() { return *loader_; }
  const loader::Loader& loader() const { return *loader_; }
  /// The fork-family shared path interner (svc::SessionPool reads it to
  /// report interned-path counts across every client of a shared base).
  /// Id-keyed reads are lock-free; inserts are internally synchronized —
  /// safe to read while forks of this session resolve concurrently.
  const support::PathTable& path_table() const { return fs_->paths(); }
  loader::Environment& env() { return config_.env; }
  const loader::Environment& env() const { return config_.env; }
  const SessionConfig& config() const { return config_; }
  const std::string& default_exe() const { return default_exe_; }
  void set_default_exe(std::string exe) { default_exe_ = std::move(exe); }

  // ---- the verbs ----------------------------------------------------------

  /// Simulate process startup of `exe` ("" = default target) under the
  /// session environment, or an explicit override.
  LoadReport load(std::string_view exe = {});
  LoadReport load(std::string_view exe, const loader::Environment& env);

  /// Resolve many independent closures in parallel on a support::ThreadPool.
  /// Each worker runs against an isolated O(1) copy-on-write fork of the
  /// world (own syscall counters, latency model copied at batch start, the
  /// family's one parsed-object cache shared by pointer) — per-worker
  /// setup cost is independent of world size, and reports are
  /// byte-identical to sequential load() calls; the per-load VFS stat
  /// deltas are aggregated into this session's filesystem counters after
  /// the batch completes. Caveat: under
  /// LatencyModel::nfs(), whose attribute cache warms as it prices, every
  /// batch entry observes the cache state as of batch start — back-to-back
  /// sequential load() calls would instead warm one shared cache, so
  /// sim_time_s can differ there; all other report fields are identical
  /// either way.
  std::vector<LoadReport> load_many(std::span<const std::string> exes);

  /// dlopen `name` from code in `caller_path`, continuing `report`.
  loader::LoadedObject dlopen(LoadReport& report,
                              const std::string& caller_path,
                              const std::string& name);

  /// Freeze the resolved closure into absolute DT_NEEDED entries (§IV).
  /// Resolves under the session environment unless `options.env` is set,
  /// or takes the resolving load from `recorded` (shrinkwrap::shrinkwrap).
  WrapReport shrinkwrap(std::string_view exe = {});
  WrapReport shrinkwrap(std::string_view exe, WrapOptions options,
                        const RecordedLoad* recorded = nullptr);

  /// Audit that a wrapped binary loads by direct open / dedup only.
  VerifyReport verify(std::string_view exe = {});
  VerifyReport verify(std::string_view exe, const loader::Environment& env);

  /// Render the annotated dependency tree (Listing 1).
  std::string libtree(std::string_view exe = {}, TreeOptions options = {});

  /// What-if shrinkwrap (§IV workflow without commitment): wrap `exe`
  /// inside a fork and report the effect — before/after trees, their diff,
  /// and before/after load reports — WITHOUT mutating this session's
  /// world. Only this session's syscall counters move (the baseline load
  /// is charged here like any other load() verb).
  struct WhatIfReport {
    WrapReport wrap;          // the wrap as applied inside the fork
    LoadReport before;        // load in the untouched base world
    LoadReport after;         // load in the wrapped fork
    std::string before_tree;  // libtree of the base
    std::string after_tree;   // libtree of the fork
    std::string tree_diff;    // line diff base -> fork
  };
  WhatIfReport whatif(std::string_view exe = {}, WrapOptions options = {},
                      TreeOptions tree = {});

  /// A bare MPI launch of `ranks` processes (Fig 6): launch::sweep over
  /// an empty SandboxSpec, so the cold load is measured in a fork and this
  /// session's counters and caches stay as they were (the session is
  /// sealed, as fork() seals it). launch_sweep measures once for every
  /// entry of `rank_counts`.
  LaunchResult launch(int ranks) { return launch({}, ranks); }
  LaunchResult launch(std::string_view exe, int ranks);
  LaunchResult launch(std::string_view exe, int ranks,
                      const launch::ClusterConfig& cluster);
  std::vector<LaunchResult> launch_sweep(std::string_view exe,
                                         const std::vector<int>& rank_counts);

  /// Containerized launch (launch::simulate_fleet_launch): assemble a
  /// per-rank sandbox from `spec` over this session's world, measure the
  /// op stream a rank issues inside it — shared-image vs per-rank overlay
  /// metadata split — and extrapolate the P-rank fleet. The two-argument
  /// form uses the session's cluster model and no rank_setup hook (one
  /// rank class: one sandboxed rank measured, replicated across the
  /// fleet).
  LaunchResult launch_fleet(const SandboxSpec& spec, int ranks);
  LaunchResult launch_fleet(const SandboxSpec& spec, std::string_view exe,
                            int ranks, const launch::FleetConfig& config);

  /// Serialize the world to a DCWORLD1 snapshot.
  std::string save() const;

 private:
  /// A child of `parent` over `fs`, a fork of parent's world: parent's
  /// config and default target, and a loader that joins parent's family.
  Session(vfs::FileSystem fs, const Session& parent, loader::Loader::Join join);

  std::string resolve_exe(std::string_view exe) const;

  SessionConfig config_;
  // Heap-held so Session stays movable while Loader keeps a stable
  // reference to the filesystem.
  std::unique_ptr<vfs::FileSystem> fs_;
  std::unique_ptr<loader::Loader> loader_;
  std::string default_exe_;
};

}  // namespace depchaos::core
