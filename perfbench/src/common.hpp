// The workload interface the benchmark runs, and the pieces the four
// workloads share: seeded request generation, the request/verb model the
// layer replay understands, and the per-window result.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "depchaos/core/session.hpp"
#include "depchaos/launch/launch.hpp"
#include "depchaos/support/rng.hpp"
#include "depchaos/svc/session_pool.hpp"
#include "depchaos/svc/wire.hpp"
#include "metrics.hpp"

namespace perfbench {

using namespace depchaos;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Load-generator connections/threads: min(4, vCPUs).
  std::size_t connections = 4;
};

/// Pool worker threads: fixed, never hardware_concurrency().
inline constexpr std::size_t kPoolWorkers = 2;

/// Time slice of the timed windows (fleet_storm, emacs_wrap), which is also
/// how long the process stays on one CPU before the next (CpuRotation).
inline constexpr double kSliceS = 1.0;

/// The pool every workload and every replay pass runs.
svc::PoolConfig pool_config();

/// A session-service verb as the workloads send it.
enum class Verb : std::uint8_t { Load, Shrinkwrap, Reset };

/// One generated client request. `exe` "" is the world's default target.
struct Request {
  svc::ClientId client = 0;
  Verb verb = Verb::Load;
  std::string exe;
};

svc::WireKind wire_kind(Verb verb);
const char* verb_name(Verb verb);

/// What one timed window produced. Latencies are kept per time slice of
/// `slice_s` seconds (0: the whole window is one slice), as floats, so the
/// client's own memory stays small next to the service's.
struct Window {
  explicit Window(double slice = 0) : slice_s(slice) {}

  double slice_s;
  std::vector<std::vector<float>> slices;  // latency_us by completion slice
  std::uint64_t completed = 0;             // requests that passed every check
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // errors, Overloaded, failed checks
  double elapsed_s = 0;
  std::vector<std::string> failures;  // first few messages

  /// A request that passed its checks, `done_s` into the window.
  void record(double done_s, double latency_us);
  void fail(std::string message);
  void merge(Window&& other);
  /// The better quarter of the full slices (the partial last slice is
  /// dropped); see SlicedSummary.
  SlicedSummary summary(double want_tail) const;
};

/// The inputs of the traced layer-at-a-time replay (layers.cpp): the same
/// seeded requests, replayed through each layer's public API in turn.
struct LayerInputs {
  /// Sealed world every replay forks (not owned).
  core::Session* world = nullptr;
  std::vector<Request> requests;
  /// Binary the shrinkwrap and vfs probes wrap ("" = default target).
  std::string wrap_exe;
  /// 1024-rank fleet launch measured by the launch and mds probes:
  /// `launch_host` is forked for every launch (not owned, sealed).
  core::Session* launch_host = nullptr;
  core::SandboxSpec launch_spec;
  std::string launch_exe;
  launch::FleetConfig launch_fleet;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// The highest tail percentile this workload reports; it falls back,
  /// labelled, when fewer than ten samples lie beyond it.
  virtual double tail_percentile() const { return 99; }
  /// Build the world, construct the pool and bind the server: everything
  /// until the first request can be served. Timed as setup_s; called
  /// several times, each call replacing the previous stack.
  virtual void setup() = 0;
  /// Untimed preparation after setup: the in-process oracle the replies
  /// are checked against, and a warm-up.
  virtual void prepare(Report& report) = 0;
  /// Run the load for `seconds`. With `trace`, one span per request (and
  /// per enclosing turn or pass) is recorded into it.
  virtual Window run(double seconds, SpanLog* trace) = 0;
  /// The pool serving the workload.
  virtual svc::SessionPool& pool() = 0;
  /// The server's IO thread, when the workload is served over the wire.
  virtual std::optional<pid_t> io_thread() const { return std::nullopt; }
  /// Inputs for the traced layer replay, `count` requests long.
  virtual LayerInputs layer_inputs(std::size_t count) = 0;
};

std::unique_ptr<Workload> make_fleet_storm(const Options& options);
std::unique_ptr<Workload> make_ldd_sweep(const Options& options);
std::unique_ptr<Workload> make_emacs_wrap(const Options& options);
std::unique_ptr<Workload> make_fleet_launch(const Options& options);

/// Traced run: replay `inputs` one layer at a time within about
/// `budget_s` and add every per-layer metric to `report`. `io_share` is
/// the server IO thread's CPU share measured by the caller (negative: the
/// replay measures it on its own wire pass).
void replay_layers(LayerInputs& inputs, double budget_s, double io_share,
                   SpanLog& trace, Report& report);

// ---- seeded generation -----------------------------------------------------

/// `count` distinct indices in [0, n), in the order drawn.
std::vector<std::size_t> seeded_sample(support::Rng& rng, std::size_t n,
                                       std::size_t count);
/// `count` distinct non-zero client ids.
std::vector<svc::ClientId> seeded_clients(support::Rng& rng, std::size_t count);
/// The binaries of the debian world, /usr/bin/bin<i>.
std::string debian_exe(std::size_t index);
inline constexpr std::size_t kDebianBinaries = 3287;

/// Server IO thread of a WireServer constructed between two thread_ids()
/// snapshots: the one thread that appeared.
std::optional<pid_t> new_thread(const std::vector<pid_t>& before,
                                const std::vector<pid_t>& after);

}  // namespace perfbench
