// The latency model of the simulated filesystem.
//
// The paper's evaluation is, at heart, about the cost of metadata syscalls
// (stat/openat) issued by the dynamic loader: cheap on a warm local
// filesystem, ruinous on cold NFS at scale (§V, Fig 6, Table II). The
// model attaches a cost in simulated seconds to each VFS operation.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "depchaos/support/path_table.hpp"

namespace depchaos::vfs {

/// The metadata operations the loader issues while searching for libraries.
enum class OpKind : std::uint8_t {
  Stat,  // stat/access-style existence probe
  Open,  // openat of a candidate (or final) file
  Read,  // reading file contents after a successful open
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

/// What one counted operation costs, in simulated seconds: a cold cost per
/// OpKind, a cached-hit cost, and whether the model keeps a client
/// attribute cache of the paths it has seen. A copy carries the cache
/// (FileSystem::fork and the deep copy copy the model), so every view warms
/// its own. The two presets are the only models:
///  * local_disk(): local disk or a warm page cache; every operation pays
///    its fixed cost and nothing is cached.
///  * nfs(): NFS as configured at LLNL (§V-A). The first touch of an
///    existing path pays a round trip to the metadata server, later touches
///    hit the attribute cache, and data reads always go to the server.
///    There is no negative caching: every probe of a missing path pays the
///    round trip, every time, which is precisely what makes long RPATH
///    searches so expensive on shared filesystems.
class LatencyModel {
 public:
  static LatencyModel local_disk();
  static LatencyModel nfs();

  /// Cost of one operation on `path`; `hit` is whether the path existed.
  /// Caches the path when it existed and the model keeps a cache.
  double cost(OpKind op, bool hit, support::PathId path);

  /// local_disk()'s fixed cost of `op`: what every operation served by a
  /// node-local mount costs, whatever the view's model.
  static double local_disk_cost(OpKind op);

  /// Forget every cached path (a cold start: fresh node, dropped caches).
  void clear_client_cache() { cache_.clear(); }

  /// Operations that paid the cold cost: under nfs(), the ones that had to
  /// go to the server.
  std::uint64_t server_round_trips() const { return server_round_trips_; }

 private:
  LatencyModel(const std::array<double, 3>& cold_us, double cached_us,
               bool caches)
      : cold_us_(cold_us), cached_us_(cached_us), caches_(caches) {}

  std::array<double, 3> cold_us_;  // per OpKind, in microseconds
  double cached_us_;               // an attribute-cache hit
  bool caches_;                    // keeps an attribute cache
  std::unordered_set<support::PathId> cache_;
  std::uint64_t server_round_trips_ = 0;
};

}  // namespace depchaos::vfs
