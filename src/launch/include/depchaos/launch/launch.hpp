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
// Containerized launches (simulate_fleet_launch) run the same measurement
// INSIDE a per-rank sandbox — the app image mounted behind a per-rank CoW
// overlay, host dirs masked — and split the measured stream into
// shared-image metadata (identical across ranks, servable once, the part a
// Spindle-style broadcast or image pre-staging can absorb) and per-rank
// overlay metadata (rank-private divergence that every rank must resolve
// itself). Mounts, overlays, and masks change *which* ops a rank issues,
// not just how many — that is the container cold-start regime.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "depchaos/loader/loader.hpp"
#include "depchaos/mds/sim.hpp"
#include "depchaos/vfs/vfs.hpp"

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

  // ---- containerized breakdown (simulate_fleet_launch; zero for bare) ----
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
  /// Loader replays: 1 for bare launches; for a fleet, one per rank
  /// equivalence class (== classes_measured).
  int ranks_measured = 0;
  /// Rank equivalence classes (equal overlay key and environment), one
  /// loader replay each; 1 for a fleet without a rank_setup hook. 0 for
  /// bare launches.
  int classes_measured = 0;
  /// Ranks per class, in first-appearance (rank) order; sums to nprocs.
  /// Empty for bare launches.
  std::vector<int> class_sizes;
  bool sandboxed = false;
};

/// One rank's measured cold-cache load — independent of the rank count, so
/// a sweep measures once and extrapolates (scaling_sweep).
struct RankMeasurement {
  bool load_succeeded = false;
  std::uint64_t meta_ops = 0;
  std::uint64_t bytes = 0;
  /// Shared/overlay attribution (sandboxed measurement only; zero for
  /// bare-host measurements, where the split is not meaningful).
  std::uint64_t shared_meta_ops = 0;
  std::uint64_t overlay_meta_ops = 0;
  std::uint64_t shared_bytes = 0;
  std::uint64_t overlay_bytes = 0;
};

/// Replay one rank's load (cold client caches) against the filesystem and
/// record its metadata op count and staged bytes. When `trace` is
/// non-null the load's op stream is recorded into it — the queueing
/// engine's input.
RankMeasurement measure_rank(vfs::FileSystem& fs, loader::Loader& loader,
                             const std::string& exe_path,
                             const loader::Environment& env,
                             vfs::OpTrace* trace = nullptr);

/// The calibrated op/byte -> seconds conversions, shared by the bare
/// (extrapolate) and containerized (simulate_fleet_launch) models so the
/// two can never drift apart.
double storm_meta_seconds(double ops, int nprocs, const ClusterConfig&);
double spindle_meta_seconds(double ops, int nprocs, const ClusterConfig&);
double storm_data_seconds(double bytes, int nprocs, const ClusterConfig&);

/// Convert a measured rank into the P-rank analytic extrapolation. Pure
/// arithmetic — extrapolating one measurement across a sweep is
/// byte-identical to re-measuring at every rank count.
LaunchResult extrapolate(const RankMeasurement& rank, int nprocs,
                         const ClusterConfig& config);

/// Bare launch of the same binary across a rank sweep (Fig 6); a single
/// launch is the one-entry sweep, `scaling_sweep(..., {n}).front()`. The
/// rank-1 op stream is measured ONCE and extrapolated to every entry (the
/// counters a load produces do not depend on cache warmth, so this is
/// byte-identical to re-measuring per entry — asserted in
/// tests/launch_test.cpp).
std::vector<LaunchResult> scaling_sweep(vfs::FileSystem& fs,
                                        loader::Loader& loader,
                                        const std::string& exe_path,
                                        const loader::Environment& env,
                                        const std::vector<int>& rank_counts,
                                        const ClusterConfig& config = {});

/// A queueing-engine launch: the analytic-compatible LaunchResult (same
/// counters and data phase; meta_time_s and total_time_s come from the
/// simulated makespan) plus the full simulator output — queue depths,
/// latency percentiles, cache and topology accounting the formula cannot
/// express.
struct SimOutcome {
  /// Analytic counters/data phase with meta_time_s replaced by the
  /// simulated FIRST-wave makespan (the cold launch Fig 6 measures).
  LaunchResult launch;
  /// Full simulator statistics for the LAST wave run (== the only wave
  /// unless FleetConfig::sim_waves > 1, in which case it is the
  /// cache-warm steady state).
  mds::SimResult sim;
  /// Makespan of every wave in order; size == sim_waves (1 for bare
  /// launches, which always run a single wave).
  std::vector<double> wave_makespans;
};

/// Engine glue: the MdsConfig the queueing engine runs for a cluster.
/// The cluster ALWAYS overrides the service mean (meta_op_cost_s), the
/// contention exponent (meta_exponent), the topology (prestaged >
/// spindle_broadcast > direct, mirroring extrapolate_fleet), and the
/// node-local op cost — so the two engines model the same cluster and can
/// never drift. The ServiceModel's distribution/spread/alpha/seed and the
/// CachePolicy are simulator-only degrees of freedom.
mds::MdsConfig mds_config_for(const ClusterConfig& cluster, bool prestaged,
                              const mds::ServiceModel& service = {},
                              const mds::CachePolicy& cache = {});

/// scaling_sweep's queueing column: one measured stream, one simulator run
/// per rank count (cold caches per entry). A bare fleet is homogeneous by
/// construction, so every op is marked broadcast-amenable (a flat world
/// has no fork boundary to classify against).
std::vector<SimOutcome> scaling_sweep_queueing(
    vfs::FileSystem& fs, loader::Loader& loader, const std::string& exe_path,
    const loader::Environment& env, const std::vector<int>& rank_counts,
    const ClusterConfig& config = {}, const mds::ServiceModel& service = {},
    const mds::CachePolicy& cache = {});

/// Knobs for a containerized fleet launch.
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
  /// simulator instead of the closed-form extrapolation (see
  /// simulate_fleet_launch_sim for the full simulator output).
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

/// Containerized Fig 6: assemble a per-rank sandbox from `spec` (image
/// mount + per-rank CoW overlay + masks) over `session`'s world, measure
/// the op stream a rank issues INSIDE it, split shared-image vs per-rank
/// overlay metadata, and extrapolate the P-rank launch. `exe_path` ""
/// falls back to the sandbox default (SandboxSpec::exe, then the
/// session's). Sandbox setup is O(1) per rank via CoW fork — no image
/// copies (gated by bench/fig6_container.cpp).
LaunchResult simulate_fleet_launch(core::Session& session,
                                   const core::SandboxSpec& spec,
                                   const std::string& exe_path, int nprocs,
                                   const FleetConfig& config = {});

/// Queueing-engine fleet launch: the same per-class sandboxed measurement,
/// but each class's full op stream is captured and every rank replays its
/// class's stream through the mds simulator (a fleet without a rank_setup
/// hook replicates ONE measured stream across P simulated clients).
/// With prestaged_image the image mount is marked MountLatency::NodeLocal
/// inside each rank sandbox BEFORE measurement, so node-local costs are
/// charged inside the measured load rather than patched in afterwards.
/// The data phase stays analytic (bytes do not queue at the MDS).
SimOutcome simulate_fleet_launch_sim(core::Session& session,
                                     const core::SandboxSpec& spec,
                                     const std::string& exe_path, int nprocs,
                                     const FleetConfig& config = {});

}  // namespace depchaos::launch
