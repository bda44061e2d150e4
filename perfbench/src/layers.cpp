// The traced layer-at-a-time replay.
//
// The same seeded requests go through each layer's public API in turn,
// top-down, each pass on a fresh pool over a fresh fork:
//   svc.wire      WireClient round trips against a WireServer
//   svc.pool      SessionPool::submit_*().get() in-process
//   core.session  the Session verb the pool would execute (memo-served
//                 Loads and Resets execute none)
// Every replayed call is a span whose parent is the same request's span
// one layer up, so self_times() gives each layer's self time: its stack's
// time minus the stack below it. Probes below the session (fork, cold and
// warm loads, VFS stat/intern, shrinkwrap, fleet launch, mds) time single
// public calls on forks of the same world. Nothing inside the library is
// instrumented.
#include <algorithm>
#include <numeric>
#include <unordered_map>
#include <unordered_set>

#include "common.hpp"
#include "host.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kReplayIds = std::uint64_t{1} << 56;
constexpr int kLaunchRanks = 1024;

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

// Mean seconds per call of `body`, repeating it for at least `min_s`.
// `body` returns how many calls one invocation made.
template <typename Body>
double seconds_per_call(Body&& body, double min_s = 0.02) {
  std::size_t calls = 0;
  const auto start = Clock::now();
  double elapsed = 0;
  do {
    calls += body();
    elapsed = seconds_between(start, Clock::now());
  } while (elapsed < min_s);
  return calls ? elapsed / static_cast<double>(calls) : 0;
}

// The candidate paths a load probes, from an LD_DEBUG-style probe log
// recorded by a second loader over a fork (the session's own loader is
// left untouched).
std::vector<std::string> probe_corpus(core::Session& world,
                                      const std::vector<std::string>& exes) {
  core::Session fork = world.fork_sealed();
  loader::SearchConfig config = fork.loader().config();
  config.record_probes = true;
  loader::Loader probe(fork.fs(), config, fork.loader().dialect());
  std::unordered_set<std::string> seen;
  std::vector<std::string> corpus;
  auto add = [&](std::string path) {
    if (!path.empty() && seen.insert(path).second) corpus.push_back(std::move(path));
  };
  for (const std::string& exe : exes) {
    const loader::LoadReport report =
        probe.load(exe.empty() ? fork.default_exe() : exe, fork.env());
    for (const std::string& line : report.probe_log) {
      // "trying <path> ... <outcome>"
      const auto end = line.find(" ... ");
      if (line.rfind("trying ", 0) == 0 && end != std::string::npos) {
        add(line.substr(7, end - 7));
      }
    }
    for (const auto& object : report.load_order) add(object.path);
  }
  return corpus;
}

}  // namespace

void replay_layers(LayerInputs& in, double budget_s, double io_share,
                   SpanLog& trace, Report& report) {
  core::Session& world = *in.world;
  const auto replay_start = Clock::now();
  SpanLog spans(std::size_t{1} << 22, kReplayIds);
  auto fail = [&](const std::string& what) {
    ++report.failed;
    report.fail("trace replay: " + what);
  };

  // Intern every path the replayed loads probe before any pass is timed:
  // the interner is shared by the whole fork family, so otherwise the
  // first pass alone would pay for it.
  {
    core::Session prime = world.fork_sealed();
    std::unordered_set<std::string> primed;
    for (const Request& r : in.requests) {
      if (r.verb == Verb::Load && primed.insert(r.exe).second) prime.load(r.exe);
    }
  }

  // ---- svc.wire ------------------------------------------------------------
  // The wire pass sets how many requests every pass replays: it stops once
  // it has used a fifth of the budget.
  std::size_t n = in.requests.size();
  std::vector<std::uint64_t> wire_span(n);
  std::vector<std::string> replies(n);
  svc::WireStats wire_stats;
  {
    svc::SessionPool pool(world.fork_sealed(), pool_config());
    const std::vector<pid_t> before = thread_ids();
    svc::WireServer server(pool);
    const std::optional<pid_t> io = new_thread(before, thread_ids());
    svc::WireClient client("127.0.0.1", server.port());
    const double cpu_start = io ? thread_cpu_seconds(*io) : 0;
    const auto start = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      const Request& r = in.requests[i];
      const auto t0 = Clock::now();
      svc::WireResponse response = client.call(wire_kind(r.verb), r.client, r.exe);
      const auto t1 = Clock::now();
      ++report.attempted;
      if (response.status != svc::WireStatus::Ok) fail("wire request failed");
      wire_span[i] = spans.record("svc.wire", 0, kReplayIds + i, t0, t1);
      replies[i] = std::move(response.payload);
      if (seconds_between(start, t1) > 0.2 * budget_s) {
        n = i + 1;
        break;
      }
    }
    const double wall = seconds_between(start, Clock::now());
    if (io_share < 0 && io) io_share = (thread_cpu_seconds(*io) - cpu_start) / wall;
    wire_stats = server.stats();
  }
  wire_span.resize(n);
  replies.resize(n);

  // ---- codecs over the replies -----------------------------------------------
  std::vector<loader::LoadReport> loads;
  std::vector<shrinkwrap::WrapReport> wraps;
  std::vector<const std::string*> load_bytes;
  std::vector<const std::string*> wrap_bytes;
  for (std::size_t i = 0; i < n; ++i) {
    if (in.requests[i].verb == Verb::Load) load_bytes.push_back(&replies[i]);
    if (in.requests[i].verb == Verb::Shrinkwrap) wrap_bytes.push_back(&replies[i]);
  }
  const double decode_s = seconds_per_call([&] {
    loads.clear();
    wraps.clear();
    for (const std::string* b : load_bytes) loads.push_back(svc::decode_load_report(*b));
    for (const std::string* b : wrap_bytes) wraps.push_back(svc::decode_wrap_report(*b));
    return load_bytes.size() + wrap_bytes.size();
  });
  std::size_t codec_mismatch = 0;
  const double encode_s = seconds_per_call([&] {
    codec_mismatch = 0;
    for (std::size_t i = 0; i < loads.size(); ++i) {
      codec_mismatch += svc::encode_load_report(loads[i]) != *load_bytes[i];
    }
    for (std::size_t i = 0; i < wraps.size(); ++i) {
      codec_mismatch += svc::encode_wrap_report(wraps[i]) != *wrap_bytes[i];
    }
    return loads.size() + wraps.size();
  });
  if (codec_mismatch != 0) fail("encode(decode(reply)) differs from the reply");

  // ---- svc.pool ------------------------------------------------------------
  std::vector<std::uint64_t> pool_span(n);
  svc::PoolStats pool_stats;
  std::uint64_t meta_ops = 0;
  std::uint64_t failed_probes = 0;
  std::uint64_t load_count = 0;
  {
    svc::SessionPool pool(world.fork_sealed(), pool_config());
    for (std::size_t i = 0; i < n; ++i) {
      const Request& r = in.requests[i];
      const auto t0 = Clock::now();
      ++report.attempted;
      try {
        switch (r.verb) {
          case Verb::Load: {
            const loader::LoadReport loaded = pool.submit_load(r.client, r.exe).get();
            if (!loaded.success) fail("pool load failed");
            meta_ops += loaded.stats.metadata_calls();
            failed_probes += loaded.stats.failed_probes;
            ++load_count;
            break;
          }
          case Verb::Shrinkwrap:
            if (!pool.submit_shrinkwrap(r.client, r.exe).get().ok()) {
              fail("pool shrinkwrap left names unresolved");
            }
            break;
          case Verb::Reset:
            pool.reset(r.client).get();
            break;
        }
      } catch (const std::exception& e) {
        fail(std::string("pool request threw: ") + e.what());
      }
      pool_span[i] = spans.record("svc.pool", wire_span[i], kReplayIds + i, t0,
                                  Clock::now());
    }
    pool.drain();
    pool_stats = pool.stats();
  }

  // ---- core.session --------------------------------------------------------
  // The verbs the pool executes: it serves a Load from its memo when the
  // client's fork is pristine and the closure was resolved before, and a
  // Reset only drops the client's fork.
  std::uint64_t predicted_hits = 0;
  {
    std::unordered_map<svc::ClientId, std::optional<core::Session>> forks;
    std::unordered_set<svc::ClientId> diverged;
    std::unordered_set<std::string> memo;
    for (std::size_t i = 0; i < n; ++i) {
      const Request& r = in.requests[i];
      if (r.verb == Verb::Reset) {
        forks.erase(r.client);
        diverged.erase(r.client);
        continue;
      }
      const std::string key = r.exe.empty() ? world.default_exe() : r.exe;
      const bool pristine = !diverged.contains(r.client);
      if (r.verb == Verb::Load && pristine && !memo.insert(key).second) {
        ++predicted_hits;
        continue;
      }
      const auto t0 = Clock::now();
      std::optional<core::Session>& fork = forks[r.client];
      if (!fork) fork.emplace(world.fork_sealed());
      if (r.verb == Verb::Load) {
        if (!fork->load(r.exe).success) fail("session load failed");
      } else {
        if (!fork->shrinkwrap(r.exe).ok()) fail("session shrinkwrap failed");
        diverged.insert(r.client);
      }
      spans.record("core.session", pool_span[i], kReplayIds + i, t0, Clock::now());
    }
  }
  if (predicted_hits != pool_stats.memo_hits) {
    fail("memo hits " + std::to_string(pool_stats.memo_hits) +
         " differ from the replay's prediction " + std::to_string(predicted_hits));
  }

  // ---- self times ----------------------------------------------------------
  const std::vector<double> self = self_times(spans.spans());
  std::vector<double> wire_self, pool_self, wire_total;
  double core_total = 0;
  for (std::size_t i = 0; i < spans.spans().size(); ++i) {
    const Span& s = spans.spans()[i];
    const std::string_view name = s.name;
    const double duration = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    if (name == "svc.wire") {
      wire_self.push_back(self[i]);
      wire_total.push_back(duration);
    } else if (name == "svc.pool") {
      pool_self.push_back(self[i]);
    } else if (name == "core.session") {
      core_total += duration;
    }
  }

  // ---- core / loader probes --------------------------------------------------
  std::vector<std::string> exes;
  for (std::size_t i = 0; i < n && exes.size() < 32; ++i) {
    const Request& r = in.requests[i];
    if (r.verb == Verb::Load && std::find(exes.begin(), exes.end(), r.exe) == exes.end()) {
      exes.push_back(r.exe);
    }
  }
  std::vector<double> fork_us;
  {
    std::vector<core::Session> forks;
    forks.reserve(200);
    for (int i = 0; i < 200; ++i) {
      const auto t0 = Clock::now();
      forks.push_back(world.fork_sealed());
      fork_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
    }
  }
  std::vector<double> cold_us, warm_us;
  for (const std::string& exe : exes) {
    core::Session fork = world.fork_sealed();
    auto t0 = Clock::now();
    const bool cold_ok = fork.load(exe).success;
    cold_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
    t0 = Clock::now();
    const bool warm_ok = fork.load(exe).success;
    warm_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
    if (!cold_ok || !warm_ok) fail("probe load failed");
  }

  // ---- vfs ------------------------------------------------------------------
  const std::vector<std::string> corpus = probe_corpus(world, exes);
  std::vector<vfs::PathId> ids;
  const double intern_s = seconds_per_call([&] {
    ids.clear();
    for (const std::string& path : corpus) ids.push_back(world.fs().intern(path));
    return corpus.size();
  });
  core::Session stat_fork = world.fork_sealed();
  std::size_t resolved = 0;
  const double stat_s = seconds_per_call([&] {
    resolved = 0;
    for (const vfs::PathId id : ids) resolved += stat_fork.fs().stat(id).has_value();
    return ids.size();
  });
  if (resolved == 0) fail("no probe path resolved");
  std::uint64_t owned_per_wrap = 0;
  {
    core::Session fork = world.fork_sealed();
    const std::uint64_t before = fork.fs().owned_bytes();
    if (!fork.shrinkwrap(in.wrap_exe).ok()) fail("shrinkwrap probe failed");
    owned_per_wrap = fork.fs().owned_bytes() - before;
  }

  // ---- shrinkwrap ------------------------------------------------------------
  std::vector<double> wrap_us, wrapped_load_us;
  for (int rep = 0; rep < 5; ++rep) {
    core::Session fork = world.fork_sealed();
    auto t0 = Clock::now();
    const bool wrapped = fork.shrinkwrap(in.wrap_exe).ok();
    wrap_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
    t0 = Clock::now();
    const bool loaded = fork.load(in.wrap_exe).success;
    wrapped_load_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
    if (!wrapped || !loaded) fail("shrinkwrap probe failed");
  }

  // ---- launch and mds ----------------------------------------------------------
  std::vector<double> analytic_ms, queueing_ms;
  int replays = 0;
  std::uint64_t server_requests = 0;
  for (int rep = 0; rep < 3; ++rep) {
    launch::FleetConfig fleet = in.launch_fleet;
    fleet.engine = launch::Engine::Analytic;
    core::Session host = in.launch_host->fork_sealed();
    auto t0 = Clock::now();
    const launch::LaunchResult analytic = launch::simulate_fleet_launch(
        host, in.launch_spec, in.launch_exe, kLaunchRanks, fleet);
    analytic_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
    fleet.engine = launch::Engine::Queueing;
    core::Session sim_host = in.launch_host->fork_sealed();
    t0 = Clock::now();
    const launch::SimOutcome sim = launch::simulate_fleet_launch_sim(
        sim_host, in.launch_spec, in.launch_exe, kLaunchRanks, fleet);
    queueing_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
    if (!analytic.load_succeeded || !sim.launch.load_succeeded) {
      fail("launch probe failed to load");
    }
    replays = analytic.ranks_measured;
    server_requests = sim.sim.server_requests;
  }
  const double measure_ms = median(analytic_ms);
  const double sim_ms = median(queueing_ms) - measure_ms;

  trace.append(spans);

  const double nreq = static_cast<double>(n);
  const auto& load_latency =
      pool_stats.latency[static_cast<std::size_t>(svc::RequestKind::Load)];
  const std::uint64_t memo_total = pool_stats.memo_hits + pool_stats.memo_misses;
  report.add("trace.replayed_requests", nreq, "count");
  report.add("wire.round_trip_us", mean(wire_total) * 1e6, "us");
  report.add("wire.overhead_us", mean(wire_self) * 1e6, "us");
  report.add("wire.encode_us", encode_s * 1e6, "us");
  report.add("wire.decode_us", decode_s * 1e6, "us");
  report.add("wire.bytes_per_reply",
             wire_stats.frames_out
                 ? static_cast<double>(wire_stats.bytes_out) /
                       static_cast<double>(wire_stats.frames_out)
                 : 0,
             "B");
  report.add("wire.io_cpu_share", io_share, "s/s");
  report.add("pool.overhead_us", mean(pool_self) * 1e6, "us");
  report.add("pool.load_p50_us", load_latency.p50_us, "us");
  report.add("pool.load_p99_us", load_latency.p99_us, "us");
  report.add("pool.memo_hit_ratio",
             memo_total ? static_cast<double>(pool_stats.memo_hits) /
                              static_cast<double>(memo_total)
                        : 0,
             "ratio");
  report.add("pool.batch_p50", pool_stats.drain_batch.p50, "count");
  report.add("pool.forks",
             static_cast<double>(pool_stats.forks_wait_free + pool_stats.forks_locked),
             "count");
  report.add("core.stack_us", core_total / nreq * 1e6, "us");
  report.add("core.fork_us", median(fork_us), "us");
  report.add("loader.warm_load_us", median(warm_us), "us");
  report.add("loader.cold_fork_load_us", median(cold_us), "us");
  report.add("loader.meta_ops_per_load",
             load_count ? static_cast<double>(meta_ops) / static_cast<double>(load_count)
                        : 0,
             "count");
  report.add("loader.failed_probe_ratio",
             meta_ops ? static_cast<double>(failed_probes) / static_cast<double>(meta_ops)
                      : 0,
             "ratio");
  report.add("vfs.stat_ns", stat_s * 1e9, "ns");
  report.add("vfs.intern_ns", intern_s * 1e9, "ns");
  report.add("vfs.paths_interned", static_cast<double>(world.path_table().size()),
             "count");
  report.add("vfs.owned_bytes_per_wrap", static_cast<double>(owned_per_wrap), "B");
  report.add("shrinkwrap.wrap_us", median(wrap_us), "us");
  report.add("shrinkwrap.wrapped_load_us", median(wrapped_load_us), "us");
  report.add("launch.measure_ms", measure_ms, "ms");
  report.add("launch.replays", replays, "count");
  report.add("mds.sim_ms", sim_ms, "ms");
  report.add("mds.requests_per_s",
             sim_ms > 0 ? static_cast<double>(server_requests) / (sim_ms * 1e-3) : 0,
             "1/s");
  report.add("trace.replay_s", seconds_between(replay_start, Clock::now()), "s");
}

}  // namespace perfbench
