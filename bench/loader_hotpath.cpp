// Loader hot path: resolves/sec through the interned-path resolution core.
//
// The PR-2 profile showed the loader's candidate storm dominated by string
// churn — every probe re-normalized and re-split its path, then walked the
// overlay chain component by component. The interned core replaces that
// with a PathTable id per candidate and a per-view dentry cache, so a
// repeated probe is a hash hit instead of a walk.
//
// This bench measures stat-probe throughput on the debian and pynamic
// worlds two ways:
//   interned+cached — the production path: PathId probes, dentry cache on.
//   string baseline — the pre-refactor cost model: dentry cache off, plus
//                     the exact per-probe normalize_path + split_nonempty
//                     work the old resolve() performed before walking.
// The acceptance gate requires >= 2x on the debian world and exits
// non-zero on regression, so CI runs it next to fork_scaling
// (DEPCHAOS_SMOKE=1 shrinks the worlds for the quick mode). Full load()
// closure throughput is reported for context.
//
// Warm forks: a session that already loaded every exe is sealed, so its
// fork-shared dentry snapshot holds the whole candidate storm, failed
// probes included. The bench times the first load on a fresh fork of it
// and a second load on that same fork, interleaved fork by fork. The
// snapshot answers positive and negative walks alike, so the first load
// should walk nothing; the second gate requires the pynamic first-load
// rate to be >= 0.85x the second-load rate.
//
// Wrapped loads: the Table II emacs world under the NFS model, as a tenant
// turn of the session pool runs it. Each fresh fork of the sealed world
// times its first and its warm (second) unwrapped load, is shrinkwrapped
// (untimed), then times its first and its warm wrapped load, fork by fork,
// so the four rows interleave. They print the median microseconds per load
// beside the exact metadata ops (1861 and 104, Table II); no gate reads
// them.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "depchaos/core/world.hpp"
#include "depchaos/support/strings.hpp"

namespace {

using namespace depchaos;

bool smoke_mode() { return std::getenv("DEPCHAOS_SMOKE") != nullptr; }

core::Session make_debian_session() {
  workload::InstalledSystemConfig config;
  if (smoke_mode()) {
    config.num_binaries = 200;
    config.num_shared_objects = 120;
  }
  return core::WorldBuilder().debian(config).build();
}

core::Session make_pynamic_session() {
  workload::PynamicConfig config;
  config.num_modules = smoke_mode() ? 40 : 300;
  config.exe_extra_bytes = 0;
  return core::WorldBuilder().pynamic(config).build();
}

std::vector<std::string> debian_exes(std::size_t count) {
  std::vector<std::string> exes;
  exes.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    exes.push_back("/usr/bin/bin" + std::to_string(i));
  }
  return exes;
}

/// A realistic probe mix for one world: every path the loader actually
/// resolved for `exes`, plus one guaranteed miss per closure directory
/// (the failed-probe side of the candidate storm).
std::vector<std::string> probe_corpus(core::Session& session,
                                      const std::vector<std::string>& exes) {
  std::vector<std::string> probes;
  for (const auto& exe : exes) {
    const auto report = session.load(exe);
    for (const auto& obj : report.load_order) {
      probes.push_back(obj.path);
      probes.push_back(vfs::dirname(obj.path) + "/libdoesnotexist.so.0");
    }
  }
  return probes;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Production path: candidates interned once (the loader holds ids), then
/// probed by id against the dentry-cached resolver.
double cached_resolves_per_sec(vfs::FileSystem& fs,
                               const std::vector<std::string>& probes,
                               int rounds) {
  std::vector<support::PathId> ids;
  ids.reserve(probes.size());
  for (const auto& probe : probes) ids.push_back(fs.intern(probe));
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t hits = 0;
  for (int round = 0; round < rounds; ++round) {
    for (const support::PathId id : ids) {
      if (fs.stat(id).has_value()) ++hits;
    }
  }
  benchmark::DoNotOptimize(hits);
  return static_cast<double>(probes.size()) * rounds / seconds_since(start);
}

/// Pre-refactor cost model: cache off, and every probe re-pays the
/// normalize + split string churn the old resolve() performed.
double baseline_resolves_per_sec(vfs::FileSystem& fs,
                                 const std::vector<std::string>& probes,
                                 int rounds) {
  fs.set_dentry_cache(false);
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t hits = 0;
  for (int round = 0; round < rounds; ++round) {
    for (const auto& probe : probes) {
      const std::string norm = vfs::normalize_path(probe);
      const auto comps = support::split_nonempty(norm, '/');
      benchmark::DoNotOptimize(comps.size());
      if (fs.stat(probe).has_value()) ++hits;
    }
  }
  benchmark::DoNotOptimize(hits);
  fs.set_dentry_cache(true);
  return static_cast<double>(probes.size()) * rounds / seconds_since(start);
}

/// Full-closure throughput for context: load() per exe, cache state as in
/// production.
double loads_per_sec(core::Session& session,
                     const std::vector<std::string>& exes, int rounds) {
  const auto start = std::chrono::steady_clock::now();
  for (int round = 0; round < rounds; ++round) {
    for (const auto& exe : exes) {
      benchmark::DoNotOptimize(session.load(exe).load_order.size());
    }
  }
  return static_cast<double>(exes.size()) * rounds / seconds_since(start);
}

struct WarmForkRates {
  double first = 0;   // loads/s, first load on a fresh fork
  double second = 0;  // loads/s, second load on the same fork
};

/// Loads every exe, seals `session`, then for each (round, exe) stamps a
/// fresh fork and times its first and its second load of that exe.
WarmForkRates warm_fork_loads_per_sec(core::Session& session,
                                      const std::vector<std::string>& exes,
                                      int rounds) {
  for (const auto& exe : exes) session.load(exe);
  session.seal();
  double first_s = 0;
  double second_s = 0;
  for (int round = 0; round < rounds; ++round) {
    for (const auto& exe : exes) {
      core::Session fork = session.fork_sealed();
      auto start = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(fork.load(exe).load_order.size());
      first_s += seconds_since(start);
      start = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(fork.load(exe).load_order.size());
      second_s += seconds_since(start);
    }
  }
  const double loads = static_cast<double>(exes.size()) * rounds;
  return {loads / first_s, loads / second_s};
}

/// Median of `samples`.
double median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  const auto mid =
      samples.begin() + static_cast<std::ptrdiff_t>(samples.size() / 2);
  std::nth_element(samples.begin(), mid, samples.end());
  return *mid;
}

/// The emacs rows: per fork, the unwrapped first and warm load, Shrinkwrap,
/// then the wrapped first and warm load (see the top of this file).
void report_emacs_wrap(int rounds) {
  using depchaos::bench::fmt;
  using depchaos::bench::row;

  core::Session base = core::WorldBuilder().nfs().emacs({}).build();
  base.seal();
  constexpr std::array<const char*, 4> kRows = {
      "emacs (NFS) unwrapped load, first on fork",
      "emacs (NFS) unwrapped load, warm",
      "emacs (NFS) wrapped load, first after wrap",
      "emacs (NFS) wrapped load, warm"};
  std::array<std::vector<double>, kRows.size()> micros;
  std::array<std::uint64_t, kRows.size()> meta_ops{};
  for (int round = 0; round < rounds; ++round) {
    core::Session fork = base.fork_sealed();
    const auto timed_load = [&](std::size_t k) {
      const auto start = std::chrono::steady_clock::now();
      const auto report = fork.load();
      micros[k].push_back(seconds_since(start) * 1e6);
      meta_ops[k] = report.stats.metadata_calls();
    };
    timed_load(0);
    timed_load(1);
    fork.shrinkwrap();
    timed_load(2);
    timed_load(3);
  }
  for (std::size_t k = 0; k < kRows.size(); ++k) {
    row(kRows[k], fmt(median(micros[k]), 0) + " us, " +
                      std::to_string(meta_ops[k]) + " metadata ops");
  }
}

/// Measure one world; returns the cached/baseline speedup and the
/// warm-fork first/second load-rate ratio.
std::pair<double, double> report_world(const char* world_name,
                                       core::Session& session,
                                       const std::vector<std::string>& exes,
                                       int fork_rounds) {
  using depchaos::bench::fmt;
  using depchaos::bench::row;

  const auto probes = probe_corpus(session, exes);
  const int rounds = smoke_mode() ? 10 : 40;

  vfs::FileSystem& fs = session.fs();
  fs.set_counting(false);  // throughput, not accounting
  const double baseline = baseline_resolves_per_sec(fs, probes, rounds);
  const double cached = cached_resolves_per_sec(fs, probes, rounds);
  fs.set_counting(true);
  const double speedup = baseline > 0 ? cached / baseline : 0.0;

  row(std::string(world_name) + " probe corpus", std::to_string(probes.size()));
  row(std::string(world_name) + " resolves/s (string baseline)",
      fmt(baseline / 1e6, 2) + " M/s");
  row(std::string(world_name) + " resolves/s (interned+cached)",
      fmt(cached / 1e6, 2) + " M/s");
  row(std::string(world_name) + " speedup", fmt(speedup, 2) + "x");
  row(std::string(world_name) + " load() closures/s",
      fmt(loads_per_sec(session, exes, smoke_mode() ? 2 : 4), 0));

  const WarmForkRates warm =
      warm_fork_loads_per_sec(session, exes, fork_rounds);
  const double warm_ratio = warm.second > 0 ? warm.first / warm.second : 0.0;
  row(std::string(world_name) + " warm fork: first load/s", fmt(warm.first, 0));
  row(std::string(world_name) + " warm fork: second load/s",
      fmt(warm.second, 0));
  row(std::string(world_name) + " warm fork: first/second",
      fmt(warm_ratio, 2) + "x");
  return {speedup, warm_ratio};
}

int print_report() {
  using depchaos::bench::heading;
  using depchaos::bench::row;

  heading("Loader hot path — interned resolution vs pre-refactor baseline");
  auto debian = make_debian_session();
  const auto debian_targets = debian_exes(smoke_mode() ? 24 : 64);
  const double debian_speedup =
      report_world("debian", debian, debian_targets, smoke_mode() ? 20 : 40)
          .first;

  auto pynamic = make_pynamic_session();
  const std::vector<std::string> pynamic_targets{pynamic.default_exe()};
  const double pynamic_warm_ratio =
      report_world("pynamic", pynamic, pynamic_targets,
                   smoke_mode() ? 400 : 100)
          .second;

  report_emacs_wrap(smoke_mode() ? 100 : 400);

  heading("acceptance gate");
  const bool speedup_ok = debian_speedup >= 2.0;
  row(">= 2x resolves/s over string baseline (debian)",
      speedup_ok ? "PASS" : "FAIL — hot-path regression");
  const bool warm_ok = pynamic_warm_ratio >= 0.85;
  row(">= 0.85x second-load rate for a warm fork's first load (pynamic)",
      warm_ok ? "PASS" : "FAIL — a fresh fork re-walks its parent's probes");
  return speedup_ok && warm_ok ? 0 : 1;
}

void BM_StatInternedCached(benchmark::State& state) {
  auto session = make_debian_session();
  const auto exes = debian_exes(8);
  const auto probes = probe_corpus(session, exes);
  vfs::FileSystem& fs = session.fs();
  fs.set_counting(false);
  std::vector<support::PathId> ids;
  for (const auto& probe : probes) ids.push_back(fs.intern(probe));
  for (auto _ : state) {
    for (const support::PathId id : ids) {
      benchmark::DoNotOptimize(fs.stat(id).has_value());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ids.size()));
}
BENCHMARK(BM_StatInternedCached)->Unit(benchmark::kMillisecond);

void BM_StatStringBaseline(benchmark::State& state) {
  auto session = make_debian_session();
  const auto exes = debian_exes(8);
  const auto probes = probe_corpus(session, exes);
  vfs::FileSystem& fs = session.fs();
  fs.set_counting(false);
  fs.set_dentry_cache(false);
  for (auto _ : state) {
    for (const auto& probe : probes) {
      const auto comps =
          depchaos::support::split_nonempty(vfs::normalize_path(probe), '/');
      benchmark::DoNotOptimize(comps.size());
      benchmark::DoNotOptimize(fs.stat(probe).has_value());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(probes.size()));
}
BENCHMARK(BM_StatStringBaseline)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const int failures = print_report();
  const int bench_rc = depchaos::bench::run_benchmarks(argc, argv);
  return failures ? failures : bench_rc;
}
