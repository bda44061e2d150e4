#include "depchaos/vfs/latency.hpp"

namespace depchaos::vfs {
namespace {
constexpr double kMicro = 1e-6;
// Cold costs in microseconds, indexed by OpKind (stat, open, read). An
// NFS read is one data round trip, never cached.
constexpr std::array<double, 3> kLocalDiskUs = {1.2, 2.5, 8.0};
constexpr std::array<double, 3> kNfsUs = {180.0, 180.0, 60.0};
}  // namespace

LatencyModel LatencyModel::local_disk() {
  return LatencyModel(kLocalDiskUs, /*cached_us=*/0, /*caches=*/false);
}

LatencyModel LatencyModel::nfs() {
  return LatencyModel(kNfsUs, /*cached_us=*/1.5, /*caches=*/true);
}

double LatencyModel::cost(OpKind op, bool hit, support::PathId path) {
  // Only the metadata of existing paths is cached: reads always go to the
  // server, and without negative caching so does every failed probe.
  if (caches_ && hit && op != OpKind::Read && !cache_.insert(path).second) {
    return cached_us_ * kMicro;
  }
  ++server_round_trips_;
  return cold_us_[static_cast<std::size_t>(op)] * kMicro;
}

double LatencyModel::local_disk_cost(OpKind op) {
  return kLocalDiskUs[static_cast<std::size_t>(op)] * kMicro;
}

}  // namespace depchaos::vfs
