// The launch pipeline (§V-A, Fig 6, on any substrate).
//
// A launch replays the loader inside a PER-RANK sandbox: the app image
// mounted (optionally behind a per-rank CoW overlay), host dirs masked,
// per-rank scratch — or, for a bare launch, nothing mounted at all: a
// plain fork of the host. The sandbox changes *which* metadata ops a rank
// issues — image mounts redirect probes, masks turn leaks into misses,
// overlays add rank-private paths — and the measurement splits the
// stream into shared-substrate ops (identical across ranks: servable
// once, amenable to a Spindle broadcast or image pre-staging) and
// per-rank overlay ops (divergence only that rank can resolve).
//
// Sandbox setup is O(1) per rank: Session::sandbox forks the host world
// copy-on-write and mounts the shared image without copying a byte of it
// (gated by bench/fig6_container.cpp). Measurement cost scales with the
// number of DISTINCT rank configurations, not the rank count: ranks are
// clustered into equivalence classes on an exact key (sandbox overlay key,
// loader environment) after rank_setup runs in every sandbox, and one
// representative per class is measured (gated by bench/hetero_fleet.cpp
// against the per-rank reference model in tests/reference/). A fleet
// without a rank_setup hook is the one-class case: rank 0's sandbox
// stands in for every rank, so a 2048-rank sweep stays a single loader
// replay.

#include <algorithm>
#include <numeric>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "depchaos/core/session.hpp"
#include "depchaos/launch/launch.hpp"

namespace depchaos::launch {

namespace {

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

/// Measure one sandboxed rank, recording its op stream into `trace` (the
/// queueing engine's input) and splitting its stat/open records into
/// shared-substrate and overlay ops.
RankMeasurement measure_sandboxed_rank(core::Session& rank_session,
                                       const std::string& exe_path,
                                       vfs::OpTrace& trace) {
  vfs::FileSystem& fs = rank_session.fs();
  fs.clear_caches();
  const loader::LoadReport report = [&] {
    vfs::FileSystem::TraceScope scope(fs, trace);
    return rank_session.load(exe_path);
  }();

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

/// The split-aware op -> seconds conversion. The shared part can be
/// absorbed (pre-staged image: node-local rates; Spindle: one resolver +
/// log-tree relay); the overlay part is rank-private and always pays the
/// storm exponent.
void extrapolate_fleet(LaunchResult& result, double shared_ops,
                       double overlay_ops, double shared_bytes,
                       double overlay_bytes, const FleetConfig& config) {
  const ClusterConfig& cluster = config.cluster;
  const int p = result.nprocs;

  double shared_data_s;
  double shared_meta_s;
  if (config.prestaged_image) {
    shared_data_s = shared_bytes / cluster.local_stage_bandwidth_bytes_s;
    shared_meta_s = shared_ops * cluster.local_meta_op_cost_s;
  } else if (cluster.spindle_broadcast) {
    shared_data_s = storm_data_seconds(shared_bytes, p, cluster);
    shared_meta_s = spindle_meta_seconds(shared_ops, p, cluster);
  } else {
    shared_data_s = storm_data_seconds(shared_bytes, p, cluster);
    shared_meta_s = storm_meta_seconds(shared_ops, p, cluster);
  }
  result.data_time_s =
      shared_data_s + storm_data_seconds(overlay_bytes, p, cluster);
  result.meta_time_s =
      shared_meta_s + storm_meta_seconds(overlay_ops, p, cluster);
  result.total_time_s =
      cluster.init_s + result.data_time_s + result.meta_time_s;
}

/// Loader-environment half of the equivalence-class key. '\0'-terminated
/// entries with a section marker keep the serialization injective.
std::string env_class_key(const loader::Environment& env) {
  std::string key;
  for (const std::string& dir : env.ld_library_path) {
    key += dir;
    key += '\0';
  }
  key += '\1';
  for (const std::string& preload : env.ld_preload) {
    key += preload;
    key += '\0';
  }
  return key;
}

/// One rank equivalence class. The representative's sandbox is kept
/// alive: a rank_setup hook may mount an image or bind source it creates
/// per rank, which the overlay key names by address, and a live address
/// cannot be reused by a later rank's different substrate.
struct RankClass {
  core::Session sandbox;
  RankMeasurement m;
  vfs::OpTrace trace;      // the representative's op stream
  std::vector<int> ranks;  // members, in rank order
};

/// The class loop over ranks 0..nprocs-1: one loader replay per
/// equivalence class, each recording its class's op stream. Under the
/// queueing engine prestaged_image marks the image mount NodeLocal inside
/// the sandbox BEFORE measurement, so the measured load itself charges
/// node-local latency and flags node-local ops in the trace.
std::vector<RankClass> measure_classes(core::Session& host,
                                       const core::SandboxSpec& spec,
                                       const std::string& exe_path,
                                       int nprocs, const FleetConfig& config) {
  auto prepare_rank = [&](int r) {
    core::Session rank_session = host.sandbox(spec);
    if (config.rank_setup) config.rank_setup(rank_session, r);
    if (config.engine == Engine::Queueing && config.prestaged_image &&
        spec.image) {
      rank_session.fs().set_mount_latency(spec.image_mount,
                                          vfs::MountLatency::NodeLocal);
    }
    return rank_session;
  };
  std::vector<RankClass> classes;
  auto add_class = [&](core::Session sandbox) {
    classes.push_back(RankClass{std::move(sandbox), {}, {}, {}});
    RankClass& cls = classes.back();
    cls.m = measure_sandboxed_rank(cls.sandbox, exe_path, cls.trace);
  };

  if (!config.rank_setup) {
    // Nothing can diverge: every rank's sandbox is rank 0's.
    add_class(prepare_rank(0));
    classes[0].ranks.resize(static_cast<std::size_t>(nprocs));
    std::iota(classes[0].ranks.begin(), classes[0].ranks.end(), 0);
    return classes;
  }
  // Run the (cheap) rank_setup hook in every rank's sandbox and key each
  // sandbox by its overlay key (self-delimiting) plus its loader
  // environment: both injective, so a rank joins a class on an exact hit.
  std::unordered_map<std::string, std::size_t> class_of;
  for (int r = 0; r < nprocs; ++r) {
    core::Session rank_session = prepare_rank(r);
    std::string key = rank_session.fs().overlay_key();
    key += env_class_key(rank_session.env());
    const auto [it, fresh] =
        class_of.try_emplace(std::move(key), classes.size());
    if (fresh) add_class(std::move(rank_session));
    classes[it->second].ranks.push_back(r);
  }
  return classes;
}

/// The members of `cls` among ranks 0..nprocs-1: a prefix of its sorted
/// member list. Rank r's sandbox and class do not depend on the fleet
/// size, so a class loop over the largest count serves every smaller one.
std::span<const int> members_below(const RankClass& cls, int nprocs) {
  return {cls.ranks.begin(),
          std::lower_bound(cls.ranks.begin(), cls.ranks.end(), nprocs)};
}

/// The one projection from classes to an nprocs-rank fleet. Totals are
/// exact sums; the *_per_rank fields are floor-averages of the SPLIT,
/// summed so the tiling invariant (shared + overlay == total) holds by
/// construction; timing uses the true (double) means. A one-class fleet
/// divides back to its class's own counts exactly (every total is far
/// below 2^53), and its shared + overlay ops are its metadata_calls(): the
/// op trace records every stat/open with exactly one side.
LaunchResult project(const std::vector<RankClass>& classes, int nprocs,
                     const FleetConfig& config) {
  LaunchResult result;
  result.nprocs = nprocs;
  result.load_succeeded = true;
  std::uint64_t shared_bytes = 0, overlay_bytes = 0;
  for (const RankClass& cls : classes) {
    const std::size_t members = members_below(cls, nprocs).size();
    if (members == 0) continue;
    const auto size = static_cast<std::uint64_t>(members);
    result.load_succeeded = result.load_succeeded && cls.m.load_succeeded;
    result.fleet_meta_ops += cls.m.meta_ops * size;
    result.fleet_bytes += cls.m.bytes * size;
    result.fleet_shared_meta_ops += cls.m.shared_meta_ops * size;
    result.fleet_overlay_meta_ops += cls.m.overlay_meta_ops * size;
    shared_bytes += cls.m.shared_bytes * size;
    overlay_bytes += cls.m.overlay_bytes * size;
    result.class_sizes.push_back(static_cast<int>(members));
  }
  result.classes_measured = static_cast<int>(result.class_sizes.size());
  result.ranks_measured = result.classes_measured;
  const auto ranks = static_cast<std::uint64_t>(nprocs);
  result.shared_meta_ops_per_rank = result.fleet_shared_meta_ops / ranks;
  result.overlay_meta_ops_per_rank = result.fleet_overlay_meta_ops / ranks;
  result.meta_ops_per_rank =
      result.shared_meta_ops_per_rank + result.overlay_meta_ops_per_rank;
  result.shared_bytes_per_rank = shared_bytes / ranks;
  result.overlay_bytes_per_rank = overlay_bytes / ranks;
  result.bytes_per_rank =
      result.shared_bytes_per_rank + result.overlay_bytes_per_rank;
  const double n = static_cast<double>(nprocs);
  extrapolate_fleet(result,
                    static_cast<double>(result.fleet_shared_meta_ops) / n,
                    static_cast<double>(result.fleet_overlay_meta_ops) / n,
                    static_cast<double>(shared_bytes) / n,
                    static_cast<double>(overlay_bytes) / n, config);
  return result;
}

/// The queueing engine for an nprocs-rank fleet: a fresh simulator in
/// which rank r replays its class's captured stream (pointer replication
/// — no copies), so per-rank alignment with start_delays and
/// SimResult::ranks is preserved exactly as if every rank had been
/// measured. The data phase stays analytic — bytes stream from the object
/// servers, not the metadata queue; the launch headline is the cold first
/// wave.
void simulate(SimOutcome& out, const std::vector<RankClass>& classes,
              int nprocs, const FleetConfig& config) {
  mds::MdsConfig sim_config = mds_config_for(
      config.cluster, config.prestaged_image, config.service, config.cache);
  sim_config.start_delays = config.start_delays;
  mds::MdsSimulator sim(sim_config);
  std::vector<const std::vector<vfs::OpRecord>*> streams(
      static_cast<std::size_t>(nprocs));
  for (const RankClass& cls : classes) {
    for (const int r : members_below(cls, nprocs)) {
      streams[static_cast<std::size_t>(r)] = &cls.trace.ops();
    }
  }
  // Waves share ONE simulator: client caches warm across them, so wave 2+
  // of a cache-enabled fleet is the repeat-launch scenario no closed-form
  // storm formula expresses.
  for (int wave = 0; wave < config.sim_waves; ++wave) {
    out.sim = sim.run(streams);
    out.wave_makespans.push_back(out.sim.makespan_s);
  }
  out.launch.meta_time_s = out.wave_makespans.front();
  out.launch.total_time_s =
      config.cluster.init_s + out.launch.data_time_s + out.launch.meta_time_s;
}

}  // namespace

std::vector<SimOutcome> sweep(core::Session& host,
                              const core::SandboxSpec& spec,
                              const std::string& exe_path,
                              const std::vector<int>& rank_counts,
                              const FleetConfig& config) {
  validate(config);
  for (const int nprocs : rank_counts) {
    if (nprocs < 1) throw std::invalid_argument("launch: nprocs must be >= 1");
  }
  std::vector<SimOutcome> out;
  if (rank_counts.empty()) return out;
  const std::vector<RankClass> classes = measure_classes(
      host, spec, exe_path,
      *std::max_element(rank_counts.begin(), rank_counts.end()), config);
  const bool sandboxed =
      spec.image != nullptr || !spec.mask.empty() || !spec.scratch.empty();
  out.reserve(rank_counts.size());
  for (const int nprocs : rank_counts) {
    SimOutcome& entry = out.emplace_back();
    entry.launch = project(classes, nprocs, config);
    entry.launch.sandboxed = sandboxed;
    if (config.engine == Engine::Queueing) {
      simulate(entry, classes, nprocs, config);
    }
  }
  return out;
}

LaunchResult simulate_fleet_launch(core::Session& session,
                                   const core::SandboxSpec& spec,
                                   const std::string& exe_path, int nprocs,
                                   const FleetConfig& config) {
  return sweep(session, spec, exe_path, {nprocs}, config).front().launch;
}

SimOutcome simulate_fleet_launch_sim(core::Session& session,
                                     const core::SandboxSpec& spec,
                                     const std::string& exe_path, int nprocs,
                                     const FleetConfig& config) {
  FleetConfig queueing = config;
  queueing.engine = Engine::Queueing;
  return sweep(session, spec, exe_path, {nprocs}, queueing).front();
}

}  // namespace depchaos::launch
