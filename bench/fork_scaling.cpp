// Fork scaling: the copy-on-write world fork behind core::Session.
//
// load_many used to deep-copy the whole simulated world per worker —
// O(world × workers) bytes before the first probe. With layered CoW
// storage a fork is O(1): workers share the frozen base and own only what
// they write (loads write nothing). This bench measures both per-worker
// setup paths on the pynamic and debian worlds, checks the acceptance
// gate (fork allocates <5% of the bytes a deep copy does on the debian
// world), verifies that load_many reports stay byte-identical to
// sequential loads, and times load_many throughput across worker counts.
//
// Exits non-zero when the CoW gate or the byte-identity check fails, so
// CI can run it as a regression tripwire (DEPCHAOS_SMOKE=1 shrinks the
// worlds for the quick mode).

#include <chrono>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "depchaos/core/world.hpp"

namespace {

using namespace depchaos;

bool smoke_mode() { return std::getenv("DEPCHAOS_SMOKE") != nullptr; }

core::Session make_pynamic_session() {
  workload::PynamicConfig config;
  config.num_modules = smoke_mode() ? 40 : 300;
  config.exe_extra_bytes = 0;
  return core::WorldBuilder().pynamic(config).build();
}

core::Session make_debian_session() {
  workload::InstalledSystemConfig config;
  if (smoke_mode()) {
    config.num_binaries = 200;
    config.num_shared_objects = 120;
  }
  return core::WorldBuilder().debian(config).build();
}

/// Exe corpus to resolve: one entry per debian binary (the pynamic world
/// instead repeats its one executable — independent closures either way).
std::vector<std::string> debian_exes(std::size_t count) {
  std::vector<std::string> exes;
  exes.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    exes.push_back("/usr/bin/bin" + std::to_string(i));
  }
  return exes;
}

bool reports_identical(const loader::LoadReport& a,
                       const loader::LoadReport& b) {
  if (a.success != b.success || a.load_order.size() != b.load_order.size() ||
      a.requests.size() != b.requests.size() ||
      a.missing.size() != b.missing.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.load_order.size(); ++i) {
    const auto& x = a.load_order[i];
    const auto& y = b.load_order[i];
    if (x.name != y.name || x.path != y.path || x.real_path != y.real_path ||
        x.requested_by != y.requested_by || x.how != y.how ||
        x.depth != y.depth || x.parent_index != y.parent_index) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    if (a.requests[i].name != b.requests[i].name ||
        a.requests[i].how != b.requests[i].how) {
      return false;
    }
  }
  return a.stats.stat_calls == b.stats.stat_calls &&
         a.stats.open_calls == b.stats.open_calls &&
         a.stats.read_calls == b.stats.read_calls &&
         a.stats.failed_probes == b.stats.failed_probes &&
         a.stats.sim_time_s == b.stats.sim_time_s &&
         a.probe_log == b.probe_log;
}

/// Per-worker setup bytes, deep-copy vs fork, on one world. Returns the
/// fork/deep ratio.
double report_setup_cost(const char* world_name, core::Session& session) {
  using depchaos::bench::fmt;
  using depchaos::bench::row;

  vfs::FileSystem& fs = session.fs();
  const vfs::FileSystem deep(fs);           // the old load_many path
  vfs::FileSystem forked = fs.fork();       // the new one
  const double deep_bytes = static_cast<double>(deep.owned_bytes());
  const double fork_bytes = static_cast<double>(forked.owned_bytes());
  const double ratio = deep_bytes > 0 ? fork_bytes / deep_bytes : 0.0;

  row(std::string(world_name) + " inodes", std::to_string(fs.inode_count()));
  row(std::string(world_name) + " deep-copy bytes/worker",
      fmt(deep_bytes / 1024.0, 1) + " KiB");
  row(std::string(world_name) + " fork bytes/worker",
      fmt(fork_bytes / 1024.0, 1) + " KiB");
  row(std::string(world_name) + " fork/deep ratio",
      fmt(ratio * 100.0, 3) + " %");
  return ratio;
}

/// load_many across worker counts; verifies byte-identity against
/// sequential loads once per world.
bool report_throughput(const char* world_name, const std::string& image,
                       const std::vector<std::string>& exes) {
  using depchaos::bench::fmt;
  using depchaos::bench::row;

  // Sequential ground truth from a pristine session over the same image.
  auto serial_session = core::Session::from_snapshot(image);
  std::vector<loader::LoadReport> serial;
  serial.reserve(exes.size());
  for (const auto& exe : exes) serial.push_back(serial_session.load(exe));

  bool identical = true;
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    core::SessionConfig config;
    config.threads = workers;
    auto session = core::Session::from_snapshot(image, std::move(config));
    const auto start = std::chrono::steady_clock::now();
    const auto reports = session.load_many(exes);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    for (std::size_t i = 0; i < exes.size(); ++i) {
      identical = identical && reports_identical(serial[i], reports[i]);
    }
    row(std::string(world_name) + " load_many x" + std::to_string(workers),
        fmt(exes.size() / seconds, 0) + " loads/s");
  }
  row(std::string(world_name) + " reports byte-identical to sequential",
      identical ? "yes" : "NO — REGRESSION");
  return identical;
}

int print_report() {
  using depchaos::bench::heading;
  using depchaos::bench::row;

  heading("Fork scaling — per-worker setup cost, deep copy vs CoW fork");
  auto pynamic = make_pynamic_session();
  report_setup_cost("pynamic", pynamic);
  auto debian = make_debian_session();
  const double debian_ratio = report_setup_cost("debian", debian);

  heading("load_many throughput (forked workers)");
  {
    const std::string image = pynamic.save();
    const std::vector<std::string> exes(smoke_mode() ? 8 : 16,
                                        pynamic.default_exe());
    if (!report_throughput("pynamic", image, exes)) return 1;
  }
  {
    const std::string image = debian.save();
    if (!report_throughput("debian", image,
                           debian_exes(smoke_mode() ? 16 : 64))) {
      return 1;
    }
  }

  heading("acceptance gate");
  const bool gate_ok = debian_ratio < 0.05;
  row("fork allocates <5% of deep-copy bytes (debian)",
      gate_ok ? "PASS" : "FAIL — CoW regression");
  return gate_ok ? 0 : 1;
}

void BM_DeepCopySetup(benchmark::State& state) {
  auto session = make_debian_session();
  for (auto _ : state) {
    const vfs::FileSystem copy(session.fs());
    benchmark::DoNotOptimize(copy.inode_count());
  }
}
BENCHMARK(BM_DeepCopySetup)->Unit(benchmark::kMillisecond);

void BM_ForkSetup(benchmark::State& state) {
  auto session = make_debian_session();
  for (auto _ : state) {
    vfs::FileSystem forked = session.fs().fork();
    benchmark::DoNotOptimize(forked.inode_count());
  }
}
BENCHMARK(BM_ForkSetup)->Unit(benchmark::kMicrosecond);

void BM_LoadManyForked(benchmark::State& state) {
  workload::InstalledSystemConfig world_config;
  world_config.num_binaries = 400;
  world_config.num_shared_objects = 200;
  core::WorldBuilder builder;
  builder.debian(world_config).threads(
      static_cast<std::size_t>(state.range(0)));
  auto session = builder.build();
  const auto exes = debian_exes(32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.load_many(exes).size());
  }
}
BENCHMARK(BM_LoadManyForked)->Arg(1)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const int failures = print_report();
  const int bench_rc = depchaos::bench::run_benchmarks(argc, argv);
  return failures ? failures : bench_rc;
}
