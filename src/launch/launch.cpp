#include "depchaos/launch/launch.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

namespace depchaos::launch {

namespace {

void reject(const char* what) { throw std::invalid_argument(what); }

void check_nprocs(int nprocs) {
  if (nprocs < 1) reject("launch: nprocs must be >= 1");
}

/// Queueing-engine counterpart of extrapolate: replay the measured bare
/// stream through the simulator at P ranks.
SimOutcome extrapolate_queueing(const RankMeasurement& rank,
                                const vfs::OpTrace& trace, int nprocs,
                                const ClusterConfig& config,
                                const mds::ServiceModel& service,
                                const mds::CachePolicy& cache) {
  SimOutcome out;
  // The analytic extrapolation fills the counters and the data phase;
  // only the metadata phase is replaced by the simulated makespan.
  out.launch = extrapolate(rank, nprocs, config);
  // Bare glue: a flat never-forked world classifies every inode as
  // view-private, but a bare fleet is homogeneous by construction — every
  // rank gets the same answer for every op, so the whole stream is
  // broadcast-amenable shared substrate.
  std::vector<vfs::OpRecord> stream = trace.ops();
  for (auto& op : stream) op.shared = true;
  mds::MdsSimulator sim(
      mds_config_for(config, /*prestaged=*/false, service, cache));
  out.sim = sim.run_homogeneous(stream, nprocs);
  out.wave_makespans = {out.sim.makespan_s};
  out.launch.meta_time_s = out.sim.makespan_s;
  out.launch.total_time_s =
      config.init_s + out.launch.data_time_s + out.launch.meta_time_s;
  return out;
}

}  // namespace

void validate(const ClusterConfig& config) {
  if (!(config.init_s >= 0) || !std::isfinite(config.init_s)) {
    reject("launch: init_s must be finite and >= 0");
  }
  if (!(config.stage_bandwidth_bytes_s > 0)) {
    reject("launch: stage_bandwidth_bytes_s must be > 0");
  }
  if (!(config.local_stage_bandwidth_bytes_s > 0)) {
    reject("launch: local_stage_bandwidth_bytes_s must be > 0");
  }
  if (!(config.data_exponent >= 0 && config.data_exponent <= 2)) {
    reject("launch: data_exponent must be finite in [0, 2]");
  }
  if (!(config.meta_exponent >= 0 && config.meta_exponent <= 2)) {
    reject("launch: meta_exponent must be finite in [0, 2]");
  }
  if (!(config.meta_op_cost_s > 0)) {
    reject("launch: meta_op_cost_s must be > 0");
  }
  if (!(config.local_meta_op_cost_s >= 0)) {
    reject("launch: local_meta_op_cost_s must be >= 0");
  }
}

void validate(const FleetConfig& config) {
  validate(config.cluster);
  // The simulator knobs are checked through the exact MdsConfig the
  // queueing engine would run, whichever engine is selected — a config
  // that cannot simulate is rejected up front.
  mds::MdsConfig sim = mds_config_for(config.cluster, config.prestaged_image,
                                      config.service, config.cache);
  sim.start_delays = config.start_delays;
  mds::validate(sim);
  if (config.sim_waves < 1) reject("launch: sim_waves must be >= 1");
}

mds::MdsConfig mds_config_for(const ClusterConfig& cluster, bool prestaged,
                              const mds::ServiceModel& service,
                              const mds::CachePolicy& cache) {
  mds::MdsConfig config;
  config.service = service;
  config.service.mean_s = cluster.meta_op_cost_s;
  config.cache = cache;
  config.contention_exponent = cluster.meta_exponent;
  if (prestaged) {
    config.topology = mds::Topology::prestaged();
  } else if (cluster.spindle_broadcast) {
    config.topology = mds::Topology::spindle();
  }
  config.topology.local_op_cost_s = cluster.local_meta_op_cost_s;
  return config;
}

RankMeasurement measure_rank(vfs::FileSystem& fs, loader::Loader& loader,
                             const std::string& exe_path,
                             const loader::Environment& env,
                             vfs::OpTrace* trace) {
  RankMeasurement rank;
  // Cold start: drop whatever the latency model cached client-side.
  fs.clear_caches();
  std::optional<vfs::FileSystem::TraceScope> scope;
  if (trace != nullptr) scope.emplace(fs, *trace);
  const loader::LoadReport report = loader.load(exe_path, env);
  rank.load_succeeded = report.success;
  rank.meta_ops = report.stats.metadata_calls();
  for (const auto& obj : report.load_order) {
    if (const auto* data = fs.peek(obj.path)) rank.bytes += data->size();
  }
  return rank;
}

double storm_meta_seconds(double ops, int nprocs,
                          const ClusterConfig& config) {
  return ops * config.meta_op_cost_s *
         std::pow(static_cast<double>(nprocs), config.meta_exponent);
}

double spindle_meta_seconds(double ops, int nprocs,
                            const ClusterConfig& config) {
  // One resolver rank + a log2(P) relay down the broadcast tree.
  return ops * config.meta_op_cost_s *
         (1.0 +
          std::log2(std::max(1.0, static_cast<double>(nprocs))) * 0.1);
}

double storm_data_seconds(double bytes, int nprocs,
                          const ClusterConfig& config) {
  return (bytes / config.stage_bandwidth_bytes_s) *
         std::pow(static_cast<double>(nprocs), config.data_exponent);
}

LaunchResult extrapolate(const RankMeasurement& rank, int nprocs,
                         const ClusterConfig& config) {
  validate(config);
  check_nprocs(nprocs);
  LaunchResult result;
  result.nprocs = nprocs;
  result.load_succeeded = rank.load_succeeded;
  result.meta_ops_per_rank = rank.meta_ops;
  result.bytes_per_rank = rank.bytes;
  result.ranks_measured = 1;

  result.data_time_s =
      storm_data_seconds(static_cast<double>(rank.bytes), nprocs, config);
  result.meta_time_s =
      config.spindle_broadcast
          ? spindle_meta_seconds(static_cast<double>(rank.meta_ops), nprocs,
                                 config)
          : storm_meta_seconds(static_cast<double>(rank.meta_ops), nprocs,
                               config);
  result.total_time_s = config.init_s + result.data_time_s + result.meta_time_s;
  return result;
}

std::vector<LaunchResult> scaling_sweep(vfs::FileSystem& fs,
                                        loader::Loader& loader,
                                        const std::string& exe_path,
                                        const loader::Environment& env,
                                        const std::vector<int>& rank_counts,
                                        const ClusterConfig& config) {
  validate(config);
  std::vector<LaunchResult> out;
  out.reserve(rank_counts.size());
  if (rank_counts.empty()) return out;
  // The measured op stream is rank-count independent (and load counters do
  // not depend on cache warmth), so one loader replay serves every entry.
  const RankMeasurement rank = measure_rank(fs, loader, exe_path, env);
  for (const int ranks : rank_counts) {
    out.push_back(extrapolate(rank, ranks, config));
  }
  return out;
}

std::vector<SimOutcome> scaling_sweep_queueing(
    vfs::FileSystem& fs, loader::Loader& loader, const std::string& exe_path,
    const loader::Environment& env, const std::vector<int>& rank_counts,
    const ClusterConfig& config, const mds::ServiceModel& service,
    const mds::CachePolicy& cache) {
  validate(config);
  std::vector<SimOutcome> out;
  out.reserve(rank_counts.size());
  if (rank_counts.empty()) return out;
  vfs::OpTrace trace;
  const RankMeasurement rank =
      measure_rank(fs, loader, exe_path, env, &trace);
  for (const int ranks : rank_counts) {
    out.push_back(
        extrapolate_queueing(rank, trace, ranks, config, service, cache));
  }
  return out;
}

}  // namespace depchaos::launch
