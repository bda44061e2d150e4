// Per-rank fleet measurement: the reference model for launch's rank
// classes.
//
// launch::simulate_fleet_launch measures one representative per rank
// equivalence class and replicates it. This model measures EVERY rank in
// its own sandbox with its own loader replay — no class keys, no
// replicated streams — and re-derives the op -> seconds conversion from
// the public storm formulas. It is O(nprocs) loader replays and
// obviously right, which makes it the oracle the class loop is held to:
// every counter, split, fleet total and modelled time must match it byte
// for byte (tests/hetero_fleet_property_test.cpp, bench/hetero_fleet.cpp).
//
// Header-only and test-side: nothing in src/ depends on it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "depchaos/core/session.hpp"
#include "depchaos/launch/launch.hpp"
#include "depchaos/mds/sim.hpp"
#include "depchaos/vfs/vfs.hpp"

namespace depchaos::reference {

/// One rank's measured cold load, split by substrate.
struct RankMeasurement {
  bool load_succeeded = false;
  std::uint64_t meta_ops = 0;
  std::uint64_t bytes = 0;
  std::uint64_t shared_meta_ops = 0;
  std::uint64_t overlay_meta_ops = 0;
  std::uint64_t shared_bytes = 0;
  std::uint64_t overlay_bytes = 0;
};

/// One rank's cold load inside its sandbox, recorded into `trace`, with
/// every stat/open attributed to the shared substrate or the rank's
/// overlay, and every staged byte likewise.
inline RankMeasurement measure_rank_in_sandbox(
    core::Session& sandbox, const std::string& exe, vfs::OpTrace& trace) {
  vfs::FileSystem& fs = sandbox.fs();
  fs.clear_caches();
  loader::LoadReport report;
  {
    vfs::FileSystem::TraceScope scope(fs, trace);
    report = sandbox.load(exe);
  }

  RankMeasurement rank;
  rank.load_succeeded = report.success;
  rank.meta_ops = report.stats.metadata_calls();
  for (const vfs::OpRecord& op : trace.ops()) {
    if (op.kind == vfs::OpKind::Read) continue;
    ++(op.shared ? rank.shared_meta_ops : rank.overlay_meta_ops);
  }
  for (const auto& obj : report.load_order) {
    const vfs::FileData* data = fs.peek(obj.path);
    if (data == nullptr) continue;
    rank.bytes += data->size();
    if (fs.served_shared(obj.path).value_or(true)) {
      rank.shared_bytes += data->size();
    } else {
      rank.overlay_bytes += data->size();
    }
  }
  return rank;
}

/// The analytic fleet launch with every rank measured independently:
/// ranks_measured == nprocs, classes_measured == 0, class_sizes empty.
/// With `traces`, rank r's op stream lands in (*traces)[r] and a
/// pre-staged image mount is marked NodeLocal before each measurement, as
/// the queueing engine does.
inline launch::LaunchResult per_rank_fleet_launch(
    core::Session& session, const core::SandboxSpec& spec,
    const std::string& exe, int nprocs, const launch::FleetConfig& config,
    std::vector<vfs::OpTrace>* traces = nullptr) {
  launch::validate(config);
  launch::LaunchResult result;
  result.nprocs = nprocs;
  result.sandboxed =
      spec.image != nullptr || !spec.mask.empty() || !spec.scratch.empty();
  result.load_succeeded = true;
  result.ranks_measured = nprocs;
  if (traces != nullptr) traces->clear();
  std::uint64_t shared_bytes = 0, overlay_bytes = 0;
  for (int r = 0; r < nprocs; ++r) {
    core::Session sandbox = session.sandbox(spec);
    if (config.rank_setup) config.rank_setup(sandbox, r);
    if (traces != nullptr && config.prestaged_image && spec.image) {
      sandbox.fs().set_mount_latency(spec.image_mount,
                                     vfs::MountLatency::NodeLocal);
    }
    vfs::OpTrace trace;
    const RankMeasurement m = measure_rank_in_sandbox(sandbox, exe, trace);
    if (traces != nullptr) traces->push_back(std::move(trace));
    result.load_succeeded = result.load_succeeded && m.load_succeeded;
    result.fleet_meta_ops += m.meta_ops;
    result.fleet_bytes += m.bytes;
    result.fleet_shared_meta_ops += m.shared_meta_ops;
    result.fleet_overlay_meta_ops += m.overlay_meta_ops;
    shared_bytes += m.shared_bytes;
    overlay_bytes += m.overlay_bytes;
  }

  // Per-rank fields: floor-averages of the split, summed so that
  // shared + overlay == total.
  const auto ranks = static_cast<std::uint64_t>(nprocs);
  result.shared_meta_ops_per_rank = result.fleet_shared_meta_ops / ranks;
  result.overlay_meta_ops_per_rank = result.fleet_overlay_meta_ops / ranks;
  result.meta_ops_per_rank =
      result.shared_meta_ops_per_rank + result.overlay_meta_ops_per_rank;
  result.shared_bytes_per_rank = shared_bytes / ranks;
  result.overlay_bytes_per_rank = overlay_bytes / ranks;
  result.bytes_per_rank =
      result.shared_bytes_per_rank + result.overlay_bytes_per_rank;

  // Times from the mean rank. The shared part is served node-locally
  // (pre-staged), by one resolver and a relay tree (Spindle), or by the
  // storm; the overlay part always storms.
  const launch::ClusterConfig& cluster = config.cluster;
  const double n = static_cast<double>(nprocs);
  const double shared_ops =
      static_cast<double>(result.fleet_shared_meta_ops) / n;
  const double overlay_ops =
      static_cast<double>(result.fleet_overlay_meta_ops) / n;
  const double shared_b = static_cast<double>(shared_bytes) / n;
  const double overlay_b = static_cast<double>(overlay_bytes) / n;
  double shared_data_s =
      launch::storm_data_seconds(shared_b, nprocs, cluster);
  double shared_meta_s =
      launch::storm_meta_seconds(shared_ops, nprocs, cluster);
  if (config.prestaged_image) {
    shared_data_s = shared_b / cluster.local_stage_bandwidth_bytes_s;
    shared_meta_s = shared_ops * cluster.local_meta_op_cost_s;
  } else if (cluster.spindle_broadcast) {
    shared_meta_s = launch::spindle_meta_seconds(shared_ops, nprocs, cluster);
  }
  result.data_time_s =
      shared_data_s + launch::storm_data_seconds(overlay_b, nprocs, cluster);
  result.meta_time_s =
      shared_meta_s + launch::storm_meta_seconds(overlay_ops, nprocs, cluster);
  result.total_time_s =
      cluster.init_s + result.data_time_s + result.meta_time_s;
  return result;
}

/// The queueing engine over per-rank streams: every rank replays its OWN
/// captured stream, `sim_waves` times against one simulator; the launch
/// headline is the first wave, the sim statistics the last.
inline launch::SimOutcome per_rank_fleet_launch_sim(
    core::Session& session, const core::SandboxSpec& spec,
    const std::string& exe, int nprocs, const launch::FleetConfig& config) {
  std::vector<vfs::OpTrace> traces;
  launch::SimOutcome out;
  out.launch =
      per_rank_fleet_launch(session, spec, exe, nprocs, config, &traces);
  mds::MdsConfig sim_config = launch::mds_config_for(
      config.cluster, config.prestaged_image, config.service, config.cache);
  sim_config.start_delays = config.start_delays;
  mds::MdsSimulator sim(sim_config);
  std::vector<std::vector<vfs::OpRecord>> streams;
  for (const vfs::OpTrace& trace : traces) streams.push_back(trace.ops());
  for (int wave = 0; wave < config.sim_waves; ++wave) {
    out.sim = sim.run(streams);
    out.wave_makespans.push_back(out.sim.makespan_s);
  }
  out.launch.meta_time_s = out.wave_makespans.front();
  out.launch.total_time_s =
      config.cluster.init_s + out.launch.data_time_s + out.launch.meta_time_s;
  return out;
}

}  // namespace depchaos::reference
