// Latency models for the simulated filesystem.
//
// The paper's evaluation is, at heart, about the cost of metadata syscalls
// (stat/openat) issued by the dynamic loader: cheap on a warm local
// filesystem, ruinous on cold NFS at scale (§V, Fig 6, Table II). These
// models attach a cost in simulated seconds to each VFS operation.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "depchaos/support/path_table.hpp"

namespace depchaos::vfs {

/// The metadata operations the loader issues while searching for libraries.
enum class OpKind : std::uint8_t {
  Stat,      // stat/access-style existence probe
  Open,      // openat of a candidate (or final) file
  Read,      // reading file contents after a successful open
  Readlink,  // symlink traversal
};

/// One recorded counted operation (stat, open or read). `path` is a dense
/// per-trace key assigned in first-appearance order, so a replayed trace is
/// deterministic and a simulator can key client-side caches without
/// carrying strings; OpTrace::id maps it back to the interned path.
struct OpRecord {
  OpKind kind = OpKind::Stat;
  bool hit = false;         // the path existed
  bool shared = false;      // stat/open served by fleet-wide substrate
                            // (read-only mounts, below-fork content, failed
                            // probes); always false for reads
  bool node_local = false;  // served by a MountLatency::NodeLocal mount
                            // (pre-staged image on node-local storage)
  std::uint32_t path = 0;   // dense path key, stable within one trace
};

/// Append-only record of every counted operation a view issues while the
/// trace is installed (FileSystem::TraceScope). It is the one record the
/// fleet's shared/overlay split, the depchaos::mds launch-storm simulator
/// (which replays the stat/open stream against a modelled metadata
/// server) and svc's memo hits (FileSystem::replay, which charges the
/// recorded operations to the hitting client's fork) read: the op
/// sequence is MEASURED, only op -> seconds is simulated.
class OpTrace {
 public:
  void record(OpKind kind, bool hit, bool shared, bool node_local,
              support::PathId path) {
    const auto [it, inserted] =
        keys_.try_emplace(path, static_cast<std::uint32_t>(ids_.size()));
    if (inserted) ids_.push_back(path);
    ops_.push_back({kind, hit, shared, node_local, it->second});
  }

  const std::vector<OpRecord>& ops() const { return ops_; }
  std::size_t distinct_paths() const { return ids_.size(); }
  /// The interned path of dense key `key` (valid in the recording view's
  /// fork family).
  support::PathId id(std::uint32_t key) const { return ids_[key]; }

 private:
  std::vector<OpRecord> ops_;
  std::vector<support::PathId> ids_;  // dense key -> PathId
  std::unordered_map<support::PathId, std::uint32_t> keys_;
};

/// Cost model interface. Implementations may keep client-side cache state;
/// `clear_client_cache` models a cold start (fresh node, dropped caches).
class LatencyModel {
 public:
  virtual ~LatencyModel() = default;

  /// Cost, in simulated seconds, of one operation on `path`.
  /// `hit` is whether the path existed.
  virtual double cost(OpKind op, bool hit, const std::string& path) = 0;

  virtual void clear_client_cache() {}

  /// Duplicate this model (parameters AND current client-cache state) for
  /// a forked view — what lets batched parallel loads charge latency
  /// without sharing mutable cache state across threads.
  virtual std::shared_ptr<LatencyModel> clone() const = 0;

  virtual std::string name() const = 0;
};

/// Local disk / warm page cache: every metadata op is cheap and uniform.
class LocalDiskModel final : public LatencyModel {
 public:
  struct Params {
    double stat_us = 1.2;
    double open_us = 2.5;
    double read_us = 8.0;
    double readlink_us = 1.0;
  };

  LocalDiskModel() = default;
  explicit LocalDiskModel(Params params) : params_(params) {}

  double cost(OpKind op, bool hit, const std::string& path) override;
  std::shared_ptr<LatencyModel> clone() const override {
    return std::make_shared<LocalDiskModel>(*this);
  }
  std::string name() const override { return "local-disk"; }

 private:
  Params params_;
};

/// NFS with a client-side attribute cache.
///
/// First touch of a path pays a full round trip to the metadata server;
/// subsequent touches hit the attribute cache. Negative caching (caching
/// the *absence* of a file) is disabled by default, matching the LLNL
/// configuration described in §V-A: every failed probe of a nonexistent
/// path pays the full round trip, every time. This is precisely what makes
/// long RPATH searches so expensive on shared filesystems.
class NfsModel final : public LatencyModel {
 public:
  struct Params {
    double rtt_us = 180.0;        // cold metadata round trip
    double cached_us = 1.5;       // client attribute-cache hit
    double read_us = 60.0;        // data read round trip
    bool negative_caching = false;
  };

  NfsModel() = default;
  explicit NfsModel(Params params) : params_(params) {}

  double cost(OpKind op, bool hit, const std::string& path) override;
  void clear_client_cache() override;
  std::shared_ptr<LatencyModel> clone() const override {
    return std::make_shared<NfsModel>(*this);
  }
  std::string name() const override { return "nfs"; }

  const Params& params() const { return params_; }

  /// Number of operations that had to go to the server (cache misses).
  std::uint64_t server_round_trips() const { return server_round_trips_; }

 private:
  Params params_;
  std::unordered_set<std::string> attr_cache_;
  std::unordered_set<std::string> negative_cache_;
  std::uint64_t server_round_trips_ = 0;
};

}  // namespace depchaos::vfs
