// Parallel time-to-launch simulation (§V-A, Fig 6).
//
// An MPI job of P ranks starts by having EVERY rank open the executable and
// resolve its dynamic dependencies against a shared network filesystem.
// The cost decomposes into:
//
//   T(P) = t_init + T_data(P) + T_meta(P)
//
//   T_data — reading the executable + libraries (bytes are identical for
//            normal and shrinkwrapped binaries; this is the floor both
//            curves share);
//   T_meta — the metadata storm: every rank replays the loader's
//            stat/openat stream against the NFS metadata server.
//
// Both phases scale sublinearly with P (client-side caching, server
// queuing, staged start-up — the regime measured by Frings et al. [25]):
// we model them as power laws with calibrated exponents. The metadata op
// count and byte count are NOT modelled — they are measured by replaying
// the actual loader against the VFS; only the op -> seconds conversion is
// the analytic part. That is exactly the paper's causal chain: Shrinkwrap
// wins Fig 6 because it shrinks the measured per-rank op count ~450×, not
// because the model treats it specially.
//
// Every launch runs one pipeline (launch::sweep): the rank op stream is
// measured INSIDE a per-rank sandbox over the host world and split into
// shared-substrate metadata (identical across ranks, servable once, the
// part a Spindle-style broadcast or image pre-staging can absorb) and
// per-rank overlay metadata (rank-private divergence that every rank must
// resolve itself). A bare-host launch is the empty sandbox: a plain fork
// of the host, where every op is shared substrate. A container launch
// mounts the app image behind a per-rank CoW overlay and masks host dirs;
// mounts, overlays, and masks change *which* ops a rank issues, not just
// how many — that is the container cold-start regime.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "depchaos/mds/sim.hpp"

namespace depchaos::core {
class Session;
struct SandboxSpec;
}  // namespace depchaos::core

namespace depchaos::launch {

struct ClusterConfig {
  /// Fixed start-up overhead (job launch, MPI_Init) in seconds.
  double init_s = 1.0;
  /// Effective per-rank staging bandwidth at P=1 (bytes/s). Calibrated so a
  /// ~220 MiB Pynamic image stages in ~4 s at one rank.
  double stage_bandwidth_bytes_s = 57.0e6;
  /// Contention growth exponents (dimensionless, fitted to the Fig 6 regime).
  double data_exponent = 0.32;
  double meta_exponent = 0.55;
  /// Effective cost of one metadata operation at P=1, seconds.
  double meta_op_cost_s = 11.0e-6;
  /// Spindle-style broadcast (Frings et al. [25], mentioned in §V-A as a
  /// complement to Shrinkwrap): ONE rank performs the metadata resolution
  /// and broadcasts results over the interconnect tree, so the metadata
  /// phase stops scaling with P (log-factor relay cost instead). In a
  /// containerized launch only the SHARED-substrate ops broadcast; per-rank
  /// overlay ops are private state no other rank can relay.
  bool spindle_broadcast = false;
  /// Node-local rates for a pre-staged image (FleetConfig::prestaged_image):
  /// shared-substrate traffic served from node-local storage, no storm.
  double local_meta_op_cost_s = 0.2e-6;
  double local_stage_bandwidth_bytes_s = 500.0e6;
};

/// Which engine converts a measured op stream into launch seconds.
///  * Analytic — the closed-form power laws below (contention is an
///    exponent).
///  * Queueing — the depchaos::mds discrete-event simulator replays the
///    measured stream against a modelled metadata server (contention is a
///    mechanism: request batching, client caches, serving topologies).
enum class Engine : std::uint8_t { Analytic, Queueing };

/// Reject non-physical cluster parameters (negative or non-finite times
/// and exponents, non-positive bandwidths and op costs) with
/// std::invalid_argument instead of silently producing NaN/inf launch
/// times. Called at every model entry point.
void validate(const ClusterConfig& config);

struct LaunchResult {
  int nprocs = 0;
  bool load_succeeded = false;
  std::uint64_t meta_ops_per_rank = 0;
  std::uint64_t bytes_per_rank = 0;
  double data_time_s = 0;
  double meta_time_s = 0;
  double total_time_s = 0;

  // ---- shared/overlay breakdown (a bare launch is all shared) ----
  /// Ops/bytes served by substrate identical across the fleet (read-only
  /// image mounts, masks, content below the sandbox fork point): servable
  /// once, Spindle/broadcast-amenable. Failed probes count as shared — a
  /// negative answer is the same for every rank.
  std::uint64_t shared_meta_ops_per_rank = 0;
  std::uint64_t shared_bytes_per_rank = 0;
  /// Ops/bytes touching per-rank divergence (overlay upper writes, scratch
  /// tmpfs): inherently rank-private, immune to broadcast or pre-staging.
  std::uint64_t overlay_meta_ops_per_rank = 0;
  std::uint64_t overlay_bytes_per_rank = 0;
  /// Fleet totals: each rank class's measured counts × its size, summed.
  /// The *_per_rank fields above are floor-averages of the split, summed
  /// so shared + overlay == the per-rank total by construction; for a
  /// one-class fleet they are that class's counts exactly.
  std::uint64_t fleet_meta_ops = 0;
  std::uint64_t fleet_bytes = 0;
  std::uint64_t fleet_shared_meta_ops = 0;
  std::uint64_t fleet_overlay_meta_ops = 0;
  /// Loader replays: one per rank equivalence class (== classes_measured).
  int ranks_measured = 0;
  /// Rank equivalence classes (equal overlay key and environment) among
  /// the nprocs ranks, one loader replay each; 1 for a fleet without a
  /// rank_setup hook, bare launches included.
  int classes_measured = 0;
  /// Ranks per class, in first-appearance (rank) order; sums to nprocs.
  std::vector<int> class_sizes;
  /// The SandboxSpec mounted something (an image, a mask, or scratch);
  /// false for a bare launch.
  bool sandboxed = false;
};

/// The calibrated op/byte -> seconds conversions of the analytic engine.
double storm_meta_seconds(double ops, int nprocs, const ClusterConfig&);
double spindle_meta_seconds(double ops, int nprocs, const ClusterConfig&);
double storm_data_seconds(double bytes, int nprocs, const ClusterConfig&);

/// One launch of a sweep: the LaunchResult plus, under the queueing
/// engine, the full simulator output — queue depths, latency percentiles,
/// cache and topology accounting the formula cannot express.
struct SimOutcome {
  /// Counters and analytic data phase; under Engine::Queueing meta_time_s
  /// is the simulated FIRST-wave makespan (the cold launch Fig 6
  /// measures).
  LaunchResult launch;
  /// Full simulator statistics for the LAST wave run (== the only wave
  /// unless FleetConfig::sim_waves > 1, in which case it is the
  /// cache-warm steady state). Empty under Engine::Analytic.
  mds::SimResult sim;
  /// Makespan of every wave in order; size == sim_waves under
  /// Engine::Queueing, empty under Engine::Analytic.
  std::vector<double> wave_makespans;
};

/// Engine glue: the MdsConfig the queueing engine runs for a cluster.
/// The cluster ALWAYS overrides the service mean (meta_op_cost_s), the
/// contention exponent (meta_exponent), the topology (prestaged >
/// spindle_broadcast > direct, mirroring the analytic shared part), and
/// the node-local op cost — so the two engines model the same cluster and
/// can never drift. The ServiceModel's distribution/spread/alpha/seed and
/// the CachePolicy are simulator-only degrees of freedom.
mds::MdsConfig mds_config_for(const ClusterConfig& cluster, bool prestaged,
                              const mds::ServiceModel& service = {},
                              const mds::CachePolicy& cache = {});

/// Knobs for a launch (bare or containerized).
struct FleetConfig {
  ClusterConfig cluster;
  /// Per-rank divergence hook, applied to rank r's sandbox before its
  /// measurement (rank-private config writes, shadowing libraries, ...).
  /// Non-null = every rank gets its own sandbox, and ranks whose sandbox
  /// divergence (vfs::FileSystem::overlay_key) and loader environment are
  /// identical form one equivalence class with ONE measured load —
  /// O(#classes) loader replays instead of O(nprocs), byte-identical
  /// totals. Null = one class: rank 0's sandbox is measured for all
  /// nprocs ranks.
  std::function<void(core::Session&, int rank)> rank_setup;
  /// The image was broadcast/staged to node-local storage before launch:
  /// shared-substrate metadata and bytes are served at the cluster's
  /// node-local rates with no storm contention; only per-rank overlay
  /// traffic still hits the shared filesystem. (Takes precedence over
  /// spindle_broadcast for the shared part — local beats relayed.)
  bool prestaged_image = false;
  /// Engine::Queueing routes the measured streams through the mds
  /// simulator instead of the closed-form extrapolation; with
  /// prestaged_image the image mount is marked MountLatency::NodeLocal
  /// inside each rank sandbox BEFORE measurement, so node-local costs are
  /// charged inside the measured load.
  Engine engine = Engine::Analytic;
  /// Simulator-only knobs (service distribution/seed, client caching);
  /// the mean, exponent, and topology always come from `cluster` /
  /// `prestaged_image` via mds_config_for. Ignored by the analytic engine.
  mds::ServiceModel service;
  mds::CachePolicy cache;
  /// Straggler injection (queueing engine only): per-rank start offsets in
  /// seconds; shorter than the fleet means the rest start at 0.
  std::vector<double> start_delays;
  /// Launch waves (queueing engine only): the fleet launches `sim_waves`
  /// times against ONE simulator, so client caches carry across waves —
  /// the repeat-launch scenario (SimOutcome::wave_makespans).
  int sim_waves = 1;
};

/// Reject non-physical fleet parameters: the cluster checks plus the
/// simulator knobs (distribution spread/shape, fanout, cache costs).
void validate(const FleetConfig& config);

/// Fig 6 across a rank sweep, the one launch pipeline. Each rank's
/// sandbox is assembled from `spec` over `host`'s world (Session::sandbox:
/// O(1) CoW fork, no image copies) and `rank_setup` runs in it; ranks
/// cluster into equivalence classes and ONE cold load per class is
/// measured, once, for the largest count. An entry of `rank_counts` keeps
/// the classes that have a rank below it, with only those ranks, and is
/// projected through the storm formulas (Engine::Analytic) or replayed,
/// rank r from its class's op stream, through a fresh mds simulator for
/// `sim_waves` waves with `start_delays` (Engine::Queueing; the data
/// phase stays analytic, bytes do not queue at the MDS). `exe_path` ""
/// falls back to the sandbox default (SandboxSpec::exe, then the host's).
/// A bare launch is the sweep over an empty SandboxSpec: a plain fork of
/// the host, whose counters and caches the launch never touches.
std::vector<SimOutcome> sweep(core::Session& host,
                              const core::SandboxSpec& spec,
                              const std::string& exe_path,
                              const std::vector<int>& rank_counts,
                              const FleetConfig& config = {});

/// One launch of `nprocs` ranks: sweep(..., {nprocs}).front().launch.
LaunchResult simulate_fleet_launch(core::Session& session,
                                   const core::SandboxSpec& spec,
                                   const std::string& exe_path, int nprocs,
                                   const FleetConfig& config = {});

/// One launch of `nprocs` ranks on the queueing engine, whatever
/// `config.engine` says: sweep(..., {nprocs}).front().
SimOutcome simulate_fleet_launch_sim(core::Session& session,
                                     const core::SandboxSpec& spec,
                                     const std::string& exe_path, int nprocs,
                                     const FleetConfig& config = {});

}  // namespace depchaos::launch
