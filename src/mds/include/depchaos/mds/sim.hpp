// Discrete-event metadata-server contention simulator (§V-A, Fig 6).
//
// The analytic model in depchaos::launch converts a measured op count into
// seconds with a power law: contention is an *exponent*. This subsystem
// makes it a *mechanism*: N client ranks replay their measured op streams
// (vfs::OpTrace; Read records are the data phase, which stays analytic,
// and are skipped) against a simulated shared metadata service — a request
// queue with a configurable service-time distribution, client-side
// metadata caches with hit/miss accounting, and pluggable serving
// topologies. Spindle broadcast and image pre-staging stop being
// special-cased formulas and become topologies the same event loop routes
// through.
//
// The server mechanism that reproduces the paper's sublinear storm: an
// idle server drains every queued request whose arrival time has passed as
// ONE batch of size b, and the batch takes (Σ sampled service times) ×
// b^(γ−1) — per-op amortization from request coalescing, γ the calibrated
// contention exponent. With homogeneous lockstep clients (no cache, fixed
// service, DirectMds) every wave is a batch of P costing mean·P^γ, so the
// makespan is EXACTLY ops · mean · P^γ — the analytic storm_meta_seconds.
// The two engines agree by construction on what the formula can express;
// the simulator additionally expresses what it cannot (cache-warm second
// waves, straggler ranks, queue-depth and latency percentiles).
//
// Determinism: a seeded PRNG (support::Rng) and a (time, sequence) event
// heap — same config + same streams ⇒ bit-identical SimResult.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "depchaos/vfs/latency.hpp"

namespace depchaos::mds {

/// Service-time distribution for one metadata request at the server.
enum class Dist : std::uint8_t {
  Fixed,    // exactly mean_s
  Uniform,  // mean_s * [1-spread, 1+spread]
  Pareto,   // heavy tail, shape pareto_alpha, scaled to mean mean_s
};

struct ServiceModel {
  Dist dist = Dist::Fixed;
  /// Mean per-request service time, seconds (the engine glue overrides
  /// this with ClusterConfig::meta_op_cost_s so the engines cannot drift).
  double mean_s = 11.0e-6;
  /// Uniform half-width as a fraction of the mean, in [0, 1].
  double uniform_spread = 0.5;
  /// Pareto shape; must be > 1 for a finite mean.
  double pareto_alpha = 2.5;
  std::uint64_t seed = 42;
};

/// Client-side metadata cache (attribute cache). Off by default so the
/// cold first wave matches the analytic model; enable it for warm
/// second-wave scenarios. Caches persist across MdsSimulator::run calls
/// until reset_caches().
struct CachePolicy {
  bool enabled = false;
  /// Cache the *absence* of a path (negative dentry). Off matches the NFS
  /// configuration of §V-A, where every failed probe pays the round trip.
  bool negative_caching = false;
  double hit_cost_s = 0.5e-6;
};

/// How shared-substrate ops reach an answer. Per-rank (overlay) ops always
/// go direct to the MDS — rank-private state has no shortcut.
struct Topology {
  enum class Kind : std::uint8_t {
    DirectMds,           // every op is a server request
    SpindleTree,         // rank 0 resolves shared ops, relays down a tree
    PrestagedNodeLocal,  // shared ops served from node-local storage
  };
  Kind kind = Kind::DirectMds;
  /// Broadcast-tree fanout (SpindleTree); must be >= 2.
  int fanout = 2;
  /// Per-hop relay delay down the tree, as a fraction of the service mean.
  double relay_hop_factor = 0.1;
  /// Node-local serve cost (PrestagedNodeLocal), seconds.
  double local_op_cost_s = 0.2e-6;

  static Topology direct() { return {}; }
  static Topology spindle(int fanout = 2) {
    Topology t;
    t.kind = Kind::SpindleTree;
    t.fanout = fanout;
    return t;
  }
  static Topology prestaged() {
    Topology t;
    t.kind = Kind::PrestagedNodeLocal;
    return t;
  }
};

struct MdsConfig {
  ServiceModel service;
  CachePolicy cache;
  Topology topology;
  /// Batch-coalescing exponent γ: a batch of b requests costs
  /// (Σ service) · b^(γ−1). Matches ClusterConfig::meta_exponent.
  double contention_exponent = 0.55;
  /// Optional per-rank start offsets, seconds (straggler injection).
  /// Shorter than the fleet ⇒ remaining ranks start at 0.
  std::vector<double> start_delays;
};

/// Throws std::invalid_argument on non-physical parameters (non-positive
/// mean, spread outside [0,1], Pareto shape <= 1, fanout < 2, negative
/// costs/factors/delays, exponent outside [0, 2] or non-finite).
void validate(const MdsConfig& config);

struct RankOutcome {
  double finish_s = 0;          // includes the rank's start delay
  std::uint64_t server_ops = 0; // requests this rank sent to the MDS
  std::uint64_t cache_hits = 0;
  std::uint64_t local_ops = 0;  // served node-locally (pre-staged image)
  std::uint64_t relayed_ops = 0;  // answered via the Spindle tree
};

struct SimResult {
  double makespan_s = 0;  // last rank finish — the fleet metadata time
  std::uint64_t server_requests = 0;
  std::uint64_t batches = 0;
  std::uint64_t max_queue_depth = 0;  // deepest pending queue observed
  double mean_batch = 0;
  /// Per-request server latency (arrival -> completion): exact mean/max,
  /// p50/p99 from support::LogHistogram (within 1/16, inside [min, max]).
  double latency_mean_s = 0;
  double latency_p50_s = 0;
  double latency_p99_s = 0;
  double latency_max_s = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;  // cache consulted and empty (0 if off)
  std::uint64_t local_ops = 0;
  std::uint64_t relayed_ops = 0;
  std::vector<RankOutcome> ranks;
};

class MdsSimulator {
 public:
  explicit MdsSimulator(MdsConfig config);

  /// Replay per-rank op streams (streams.size() ranks), skipping Read
  /// records. Deterministic for a fixed config + streams. Client caches
  /// warm across calls.
  SimResult run(const std::vector<const std::vector<vfs::OpRecord>*>& streams);
  SimResult run(const std::vector<std::vector<vfs::OpRecord>>& streams);

  /// Homogeneous fleet: every rank replays the same measured stream
  /// (no per-rank copies).
  SimResult run_homogeneous(const std::vector<vfs::OpRecord>& stream,
                            int nprocs);

  /// Drop all client caches (cold fleet again).
  void reset_caches() { warm_.clear(); }

  const MdsConfig& config() const { return config_; }

 private:
  MdsConfig config_;
  /// Per-rank warm cache contents, persisted across run() calls so a
  /// second wave can model a repeat launch on warm nodes.
  std::vector<std::unordered_set<std::uint32_t>> warm_;
};

}  // namespace depchaos::mds
