// Session-service storm: sustained closures/s through svc::SessionPool at
// 1 / 64 / 1024 concurrent clients of one shared debian world.
//
// The workload is the paper's launch storm translated to the service shape:
// every client issues the SAME list of R distinct load requests (a fleet of
// identical ranks starting the same app mix). The single-client baseline
// runs closed-loop — one request in flight, each paying a full submit ->
// worker -> future round trip plus a real closure resolution. The fleet
// runs open-loop: requests from all clients interleave through the sharded
// admission queues, strands drain them in batches, and the pristine-fork
// Load memo serves every repeated (exe, env) resolution from one execution
// (the Spindle dedup insight — identical metadata requests from a fleet
// are resolved once). The executed-vs-memoized split is printed so the
// dedup share is explicit, not hidden in a throughput number.
//
// Gates (exit non-zero on failure; CI runs DEPCHAOS_SMOKE=1):
//   * byte-identity — every concurrent 64-client report is byte-identical
//     to the same request list run sequentially on a private fork of a
//     twin world (the svc_test property, at bench scale).
//   * throughput    — 64-client closures/s >= 8x the 1-client rate.
//   * multi-core    — with a T-worker pool (T = --threads or hardware
//     concurrency), cold mixed-op throughput >= 3x the 1-worker pool and
//     hot/memoized throughput >= 5x, measured with a latency model
//     installed (so the row also proves memoization stays ACTIVE under
//     re-pricing). Enforced only on hosts with >= 4 effective cores and
//     T >= 4; the 5x hot bar presumes >= 6 cores — a 4-core budget cannot
//     express a 5x speedup over an already-saturated single worker, so
//     below 6 cores the hot bar scales down to 3x (printed either way).
// The third acceptance gate (single-client loader_hotpath within 5% of
// its baseline) is enforced by bench/loader_hotpath.cpp itself, which CI
// runs alongside this binary.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "depchaos/core/world.hpp"
#include "depchaos/svc/session_pool.hpp"
#include "depchaos/svc/wire.hpp"
#include "depchaos/vfs/latency.hpp"

namespace {

using namespace depchaos;
using Clock = std::chrono::steady_clock;

bool smoke_mode() { return std::getenv("DEPCHAOS_SMOKE") != nullptr; }

// --threads=N override for the multi-core row (0 = hardware concurrency).
std::size_t g_threads = 0;

// Sanitizer runtimes (TSan especially) serialize enough of the schedule
// that a WORKER-count speedup ratio stops measuring the service: those
// legs keep the byte-identity / memo-active / wait-free gates and the
// race detection itself, while the speedup bars gate the plain builds.
constexpr bool sanitized_build() {
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  return true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

core::Session make_debian_session() {
  workload::InstalledSystemConfig config;
  if (smoke_mode()) {
    config.num_binaries = 200;
    config.num_shared_objects = 120;
  }
  return core::WorldBuilder().debian(config).build();
}

std::vector<std::string> request_list(std::size_t count) {
  std::vector<std::string> exes;
  exes.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    exes.push_back("/usr/bin/bin" + std::to_string(i));
  }
  return exes;
}

// Everything a service consumer can observe about a load, flattened for
// equality (mirrors tests/svc_test.cpp).
std::string digest(const loader::LoadReport& r) {
  std::ostringstream out;
  out << r.success;
  for (const auto& o : r.load_order) {
    out << '|' << o.name << ',' << o.path << ',' << o.real_path << ','
        << static_cast<int>(o.how) << ',' << o.depth;
  }
  out << '|' << r.requests.size() << ',' << r.missing.size() << ','
      << r.stats.stat_calls << ',' << r.stats.open_calls << ','
      << r.stats.read_calls << ',' << r.stats.failed_probes << ','
      << r.stats.sim_time_s;
  return out.str();
}

struct StormResult {
  double closures_per_s = 0;
  svc::PoolStats stats;
  std::uint64_t base_owned_bytes = 0;
  std::vector<std::string> digests;  // filled when `collect` is set
};

svc::PoolConfig storm_config() {
  svc::PoolConfig config;
  config.shards = 8;
  config.queue_high_water = std::size_t{1} << 22;  // open-loop: never reject
  return config;
}

/// Closed loop: the natural single-tenant rhythm — one request in flight.
StormResult run_single(const std::vector<std::string>& exes) {
  svc::SessionPool pool(make_debian_session(), storm_config());
  StormResult result;
  const auto start = Clock::now();
  for (const auto& exe : exes) {
    if (!pool.submit_load_shared(1, exe).get()->success) std::abort();
  }
  const double elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  result.closures_per_s = static_cast<double>(exes.size()) / elapsed;
  pool.drain();
  result.stats = pool.stats();
  result.base_owned_bytes = pool.base().fs().owned_bytes();
  return result;
}

/// Open loop: `clients` clients each submit the whole request list; the
/// clock covers submission through last result delivered.
StormResult run_storm(std::size_t clients, const std::vector<std::string>& exes,
                      bool collect) {
  svc::SessionPool pool(make_debian_session(), storm_config());
  StormResult result;
  std::vector<std::future<std::shared_ptr<const loader::LoadReport>>> futures;
  futures.reserve(clients * exes.size());
  std::vector<std::shared_ptr<const loader::LoadReport>> reports;
  reports.reserve(clients * exes.size());
  // The timed window is submission through last result delivered; digest
  // extraction (and report teardown) happen after the clock stops — they
  // are measurement artifacts, not service work.
  const auto start = Clock::now();
  for (const auto& exe : exes) {
    for (std::size_t c = 0; c < clients; ++c) {
      futures.push_back(
          pool.submit_load_shared(static_cast<svc::ClientId>(c + 1), exe));
    }
  }
  // One quiescence wait instead of blocking on each future in turn: the
  // collection loop below then never sleeps (every future is ready).
  pool.drain();
  for (auto& future : futures) reports.push_back(future.get());
  const double elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  result.closures_per_s = static_cast<double>(reports.size()) / elapsed;
  if (collect) result.digests.reserve(reports.size());
  for (const auto& report : reports) {
    if (!report->success) std::abort();
    if (collect) result.digests.push_back(digest(*report));
  }
  pool.drain();
  result.stats = pool.stats();
  result.base_owned_bytes = pool.base().fs().owned_bytes();
  return result;
}

// ---- loopback-socket rows --------------------------------------------------

struct WireRowResult {
  double closed_per_s = 0;  // one connection, one request in flight
  double storm_per_s = 0;   // C connections, full list pipelined per conn
  std::size_t payload_mismatches = 0;
  svc::WireStats wire;
};

/// The same storm through the wire: a WireServer over one pool on
/// loopback TCP, so the BENCH json tracks what framing + socket round
/// trips cost relative to in-process submits. Every response payload is
/// checked byte-for-byte against encoding the in-process result from a
/// twin pool — the wire must be invisible, not just fast.
WireRowResult run_wire_loopback(const std::vector<std::string>& exes,
                                std::size_t storm_clients) {
  svc::SessionPool oracle(make_debian_session(), storm_config());
  svc::SessionPool served(make_debian_session(), storm_config());
  svc::WireServer server(served);
  WireRowResult result;

  // Expected payload per exe: on pristine forks the report is a pure
  // function of the exe (the memo property the 64-client gate already
  // leans on), so one in-process pass is the oracle for every client.
  std::vector<std::string> expected;
  expected.reserve(exes.size());
  for (const auto& exe : exes) {
    expected.push_back(
        svc::encode_load_report(*oracle.submit_load_shared(1, exe).get()));
  }

  // Closed loop: the single-tenant rhythm, now paying encode + two socket
  // hops + decode per request. Payloads are kept and compared after the
  // clock stops.
  {
    svc::WireClient client("127.0.0.1", server.port());
    std::vector<std::string> payloads;
    payloads.reserve(exes.size());
    const auto start = Clock::now();
    for (const auto& exe : exes) {
      svc::WireResponse response =
          client.call(svc::WireKind::Load, 1, exe);
      if (response.status != svc::WireStatus::Ok) std::abort();
      payloads.push_back(std::move(response.payload));
    }
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    result.closed_per_s = static_cast<double>(exes.size()) / elapsed;
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      if (payloads[i] != expected[i]) ++result.payload_mismatches;
    }
  }

  // Storm: C connections, each pipelining the whole list (send all, then
  // collect out-of-order-tolerant by sequence number).
  {
    std::vector<std::thread> drivers;
    std::atomic<std::size_t> mismatches{0};
    drivers.reserve(storm_clients);
    const auto start = Clock::now();
    for (std::size_t c = 0; c < storm_clients; ++c) {
      drivers.emplace_back([&, c] {
        svc::WireClient client("127.0.0.1", server.port());
        const auto id = static_cast<svc::ClientId>(c + 2);  // 1 = closed loop
        std::vector<std::uint64_t> seqs;
        seqs.reserve(exes.size());
        for (const auto& exe : exes) {
          seqs.push_back(client.send(svc::WireKind::Load, id, exe));
        }
        for (std::size_t i = 0; i < seqs.size(); ++i) {
          svc::WireResponse response = client.recv_for(seqs[i]);
          if (response.status != svc::WireStatus::Ok) std::abort();
          if (response.payload != expected[i]) mismatches.fetch_add(1);
        }
      });
    }
    for (auto& driver : drivers) driver.join();
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    result.storm_per_s =
        static_cast<double>(storm_clients * exes.size()) / elapsed;
    result.payload_mismatches += mismatches.load();
  }

  result.wire = server.stats();
  server.stop();
  return result;
}

// ---- multi-core rows -------------------------------------------------------

struct MultiCoreResult {
  double cold_ops_per_s = 0;  // distinct-closure loads + queries (all misses)
  double hot_ops_per_s = 0;   // memo-served loads, re-priced per client
  svc::PoolStats stats;
  bool memo_active = false;
};

/// One pool at `workers` ThreadPool workers, with an nfs() model on the
/// base so every phase exercises memoization UNDER a latency model (hits
/// replay the recorded op trace through the client's own copied model). Two
/// timed phases against the same pool:
///   cold — every client resolves its own disjoint slice of closures
///          (every load a memo miss: sealed fork stamp, PathTable interning,
///          full resolution, memo insert) with a query mixed in per client;
///   hot  — every client re-loads a small shared set already in the memo
///          (shared-lock probe + per-client re-pricing, no resolution).
MultiCoreResult run_multicore(std::size_t workers, std::size_t clients,
                              std::size_t cold_per_client,
                              const std::vector<std::string>& cold_exes,
                              std::size_t hot_set, std::size_t hot_rounds) {
  svc::PoolConfig config = storm_config();
  config.threads = workers;
  core::Session base = make_debian_session();
  base.fs().set_latency_model(vfs::LatencyModel::nfs());
  svc::SessionPool pool(std::move(base), config);
  MultiCoreResult result;

  std::vector<std::future<std::shared_ptr<const loader::LoadReport>>> loads;
  loads.reserve(clients * cold_per_client);
  std::vector<std::future<svc::QueryResult>> queries;
  queries.reserve(clients);
  const auto cold_start = Clock::now();
  for (std::size_t c = 0; c < clients; ++c) {
    const auto client = static_cast<svc::ClientId>(c + 1);
    for (std::size_t r = 0; r < cold_per_client; ++r) {
      loads.push_back(
          pool.submit_load_shared(client, cold_exes[c * cold_per_client + r]));
    }
    queries.push_back(pool.submit_query(client));
  }
  pool.drain();
  const double cold_elapsed =
      std::chrono::duration<double>(Clock::now() - cold_start).count();
  for (auto& future : loads) {
    if (!future.get()->success) std::abort();
  }
  for (auto& future : queries) future.get();
  result.cold_ops_per_s =
      static_cast<double>(loads.size() + queries.size()) / cold_elapsed;

  // Hot phase: the first `hot_set` closures are in the memo and every
  // client already holds its fork — each op is a sharded-memo hit whose
  // sim_time_s is replayed against that client's model warmth.
  loads.clear();
  loads.reserve(clients * hot_set * hot_rounds);
  const auto hot_start = Clock::now();
  for (std::size_t round = 0; round < hot_rounds; ++round) {
    for (std::size_t c = 0; c < clients; ++c) {
      for (std::size_t i = 0; i < hot_set; ++i) {
        loads.push_back(pool.submit_load_shared(
            static_cast<svc::ClientId>(c + 1), cold_exes[i]));
      }
    }
  }
  pool.drain();
  const double hot_elapsed =
      std::chrono::duration<double>(Clock::now() - hot_start).count();
  for (auto& future : loads) {
    if (!future.get()->success) std::abort();
  }
  result.hot_ops_per_s = static_cast<double>(loads.size()) / hot_elapsed;

  result.stats = pool.stats();
  result.memo_active = pool.repricing_active() && result.stats.memo_hits > 0;
  return result;
}

void report_storm(const char* label, std::size_t clients,
                  const StormResult& result) {
  using bench::fmt;
  using bench::row;
  const svc::PoolStats& stats = result.stats;
  row(std::string(label) + " closures/s", fmt(result.closures_per_s, 0));
  row(std::string(label) + " executed / memoized",
      std::to_string(stats.executed - stats.memoized) + " / " +
          std::to_string(stats.memoized));
  const auto& load_latency =
      stats.latency[static_cast<std::size_t>(svc::RequestKind::Load)];
  row(std::string(label) + " load p50/p99 us",
      fmt(load_latency.p50_us, 0) + " / " + fmt(load_latency.p99_us, 0));
  // How much private divergence the whole fleet holds relative to one
  // shared world: pristine CoW forks should make this ~0.
  const double share =
      result.base_owned_bytes == 0
          ? 0.0
          : static_cast<double>(stats.fork_owned_bytes) /
                static_cast<double>(result.base_owned_bytes);
  row(std::string(label) + " copied-bytes share",
      fmt(100.0 * share, 3) + "% (" + std::to_string(clients) + " forks)");
}

int print_report() {
  using bench::fmt;
  using bench::heading;
  using bench::row;
  int failures = 0;

  const std::size_t requests = smoke_mode() ? 32 : 128;
  const auto exes = request_list(requests);

  heading("Session storm: closures/s vs concurrent clients (debian world)");
  row("requests per client", std::to_string(requests) + " distinct closures");

  const StormResult single = run_single(exes);
  report_storm("1 client (closed loop)", 1, single);

  const StormResult fleet64 = run_storm(64, exes, /*collect=*/true);
  report_storm("64 clients", 64, fleet64);

  const std::size_t big_requests = smoke_mode() ? 4 : 16;
  const StormResult fleet1024 =
      run_storm(1024, request_list(big_requests), /*collect=*/false);
  report_storm("1024 clients", 1024, fleet1024);

  // ---- loopback socket: the same service behind the wire protocol ---------
  heading("Loopback socket: wire protocol overhead vs in-process submits");
  const std::size_t wire_clients = smoke_mode() ? 8 : 32;
  const WireRowResult wire = run_wire_loopback(exes, wire_clients);
  row("wire closed-loop closures/s", fmt(wire.closed_per_s, 0));
  row("wire closed-loop vs in-process",
      fmt(100.0 * wire.closed_per_s / single.closures_per_s, 1) +
          "% of in-process rate");
  row("wire " + std::to_string(wire_clients) + "-conn storm closures/s",
      fmt(wire.storm_per_s, 0));
  row("wire frames in / out",
      std::to_string(wire.wire.frames_in) + " / " +
          std::to_string(wire.wire.frames_out));
  row("wire decode errors / timeouts",
      std::to_string(wire.wire.decode_errors) + " / " +
          std::to_string(wire.wire.timeouts));

  heading("Gates");

  // Wire byte-identity: every loopback payload must equal the canonical
  // encoding of the in-process result from a twin pool.
  row("wire payloads == in-process encodings",
      wire.payload_mismatches == 0
          ? "yes"
          : "NO - " + std::to_string(wire.payload_mismatches) + " mismatches");
  if (wire.payload_mismatches != 0) {
    std::printf("  GATE FAILED: wire payloads diverge from in-process "
                "results\n");
    ++failures;
  }
  if (wire.wire.decode_errors != 0) {
    std::printf("  GATE FAILED: loopback run produced %llu decode errors\n",
                static_cast<unsigned long long>(wire.wire.decode_errors));
    ++failures;
  }

  // Byte-identity: the 64-client concurrent reports vs the same request
  // list run sequentially on a fork of a twin world. Every client issued
  // the identical list, so one sequential pass is the reference for all.
  core::Session twin = make_debian_session();
  twin.seal();  // mirror the pool's ctor seal (what the priming fork did)
  core::Session reference = twin.fork_sealed();
  std::vector<std::string> expected;
  expected.reserve(exes.size());
  for (const auto& exe : exes) expected.push_back(digest(reference.load(exe)));
  std::size_t mismatches = 0;
  // run_storm submits request-major: digest index r*64 + c is request r.
  for (std::size_t i = 0; i < fleet64.digests.size(); ++i) {
    if (fleet64.digests[i] != expected[i / 64]) ++mismatches;
  }
  row("concurrent == sequential (64 clients)",
      mismatches == 0 ? "yes"
                      : "NO - " + std::to_string(mismatches) + " mismatches");
  if (mismatches != 0) {
    std::printf("  GATE FAILED: concurrent results diverge from sequential\n");
    ++failures;
  }

  const double speedup = fleet64.closures_per_s / single.closures_per_s;
  row("64-client speedup over 1 client (gate >= 8x)",
      fmt(speedup, 1) + "x");
  if (speedup < 8.0) {
    std::printf("  GATE FAILED: 64-client throughput below 8x single client\n");
    ++failures;
  }

  // ---- multi-core rows: T workers vs 1 worker, latency model installed ----
  const std::size_t cores =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t threads = g_threads ? g_threads : cores;
  const std::size_t mc_clients = smoke_mode() ? 32 : 64;
  const std::size_t cold_per_client = 4;
  const std::size_t hot_set = 8;
  const std::size_t hot_rounds = smoke_mode() ? 4 : 8;
  const auto mc_exes = request_list(mc_clients * cold_per_client);

  heading("Multi-core: T-worker pool vs 1-worker pool (NFS latency model)");
  row("workers (T)", std::to_string(threads) + " (" + std::to_string(cores) +
                         " effective cores)");
  const MultiCoreResult one = run_multicore(1, mc_clients, cold_per_client,
                                            mc_exes, hot_set, hot_rounds);
  const MultiCoreResult many = run_multicore(
      threads, mc_clients, cold_per_client, mc_exes, hot_set, hot_rounds);
  row("1 worker cold / hot ops/s",
      fmt(one.cold_ops_per_s, 0) + " / " + fmt(one.hot_ops_per_s, 0));
  row(std::to_string(threads) + " workers cold / hot ops/s",
      fmt(many.cold_ops_per_s, 0) + " / " + fmt(many.hot_ops_per_s, 0));
  const double cold_speedup = many.cold_ops_per_s / one.cold_ops_per_s;
  const double hot_speedup = many.hot_ops_per_s / one.hot_ops_per_s;
  row("cold / hot speedup", fmt(cold_speedup, 2) + "x / " +
                                fmt(hot_speedup, 2) + "x");
  row("T-worker forks wait-free / locked",
      std::to_string(many.stats.forks_wait_free) + " / " +
          std::to_string(many.stats.forks_locked));
  row("T-worker memo hits / misses",
      std::to_string(many.stats.memo_hits) + " / " +
          std::to_string(many.stats.memo_misses));
  row("memoization active under latency model",
      many.memo_active ? "yes" : "NO");
  if (!many.memo_active || !one.memo_active) {
    std::printf(
        "  GATE FAILED: memoization inactive under the latency model\n");
    ++failures;
  }
  if (many.stats.forks_locked != 0) {
    std::printf("  GATE FAILED: admission took the fork mutex %llu times "
                "(sealed stamp expected)\n",
                static_cast<unsigned long long>(many.stats.forks_locked));
    ++failures;
  }
  if (cores >= 4 && threads >= 4 && !sanitized_build()) {
    // A T-worker speedup is bounded by the core budget: 5x needs >= 6
    // cores' worth of headroom (T workers + submitter), so smaller hosts
    // gate hot at the cold bar instead of a bar they cannot express.
    const double hot_bar = cores >= 6 ? 5.0 : 3.0;
    if (cold_speedup < 3.0) {
      std::printf("  GATE FAILED: cold multi-core speedup %.2fx below 3x\n",
                  cold_speedup);
      ++failures;
    }
    if (hot_speedup < hot_bar) {
      std::printf("  GATE FAILED: hot multi-core speedup %.2fx below %.0fx\n",
                  hot_speedup, hot_bar);
      ++failures;
    }
  } else {
    row("multi-core speedup gates",
        sanitized_build()
            ? "reported, not enforced (sanitized build warps scheduling)"
            : "skipped (need >= 4 cores and T >= 4; have " +
                  std::to_string(cores) +
                  " cores, T=" + std::to_string(threads) + ")");
  }
  return failures;
}

void BM_PoolLoadClosedLoop(benchmark::State& state) {
  auto session = make_debian_session();
  svc::SessionPool pool(std::move(session), storm_config());
  const std::string exe = "/usr/bin/bin0";
  svc::ClientId client = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.submit_load(client, exe).get());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PoolLoadClosedLoop)->Unit(benchmark::kMicrosecond);

void BM_PoolLoadStorm64(benchmark::State& state) {
  auto session = make_debian_session();
  svc::SessionPool pool(std::move(session), storm_config());
  const std::string exe = "/usr/bin/bin0";
  for (auto _ : state) {
    std::vector<std::future<loader::LoadReport>> futures;
    futures.reserve(64);
    for (std::size_t c = 0; c < 64; ++c) {
      futures.push_back(pool.submit_load(static_cast<svc::ClientId>(c + 1), exe));
    }
    for (auto& future : futures) benchmark::DoNotOptimize(future.get());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_PoolLoadStorm64)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  // Peel off --threads=N (ours) before google-benchmark sees the argv.
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      g_threads = static_cast<std::size_t>(std::atoll(argv[i] + 10));
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  const int failures = print_report();
  const int bench_rc = depchaos::bench::run_benchmarks(argc, argv);
  return failures ? failures : bench_rc;
}
