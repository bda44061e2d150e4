#include "depchaos/launch/launch.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace depchaos::launch {

namespace {
void reject(const char* what) { throw std::invalid_argument(what); }
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

}  // namespace depchaos::launch
