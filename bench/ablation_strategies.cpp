// Ablation: the three workarounds of §III-D and §IV, compared on the same
// store-model application:
//   Dependency Views  — one symlink-farm RPATH (fast, costs inodes,
//                       single-version restriction)
//   Needy Executables — closure on the link line (fast, breaks on dup
//                       strong symbols)
//   Shrinkwrap        — absolute DT_NEEDED (fast, env-independent)

#include "bench_util.hpp"
#include "depchaos/core/world.hpp"
#include "depchaos/elf/patcher.hpp"
#include "depchaos/shrinkwrap/ldcache.hpp"
#include "depchaos/shrinkwrap/needy.hpp"
#include "depchaos/shrinkwrap/views.hpp"

namespace {

using namespace depchaos;

core::Session make_session(std::size_t modules = 150, bool app_cache = false) {
  workload::PynamicConfig config;
  config.num_modules = modules;
  config.exe_extra_bytes = 0;
  loader::SearchConfig search;
  search.use_app_cache = app_cache;
  return core::WorldBuilder().search(search).pynamic(config).build();
}

struct Row {
  std::string name;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::size_t inode_cost = 0;
  bool env_immune = false;
};

Row measure(const std::string& name, core::Session& session) {
  Row result;
  result.name = name;
  const auto report = session.load();
  result.ops = report.stats.metadata_calls();
  result.failed = report.stats.failed_probes;
  // Environment immunity: plant an impostor first in LD_LIBRARY_PATH.
  elf::install_object(session.fs(), "/evil/libpynamic_module_0.so",
                      elf::make_library("libpynamic_module_0.so"));
  const auto hostile = session.load(
      "", loader::Environment::with_library_path({"/evil"}));
  const auto* module0 = hostile.find_loaded("libpynamic_module_0.so");
  result.env_immune =
      module0 != nullptr && !module0->path.starts_with("/evil");
  return result;
}

void print_report() {
  using depchaos::bench::heading;
  heading("Ablation — workaround strategies on a 150-module store app");

  std::vector<Row> rows;
  {
    auto session = make_session();
    rows.push_back(measure("as-built (rpath list)", session));
  }
  {
    auto session = make_session();
    const std::size_t inodes_before = session.fs().inode_count();
    const auto view = shrinkwrap::make_dependency_view(
        session.fs(), session.loader(), session.default_exe(),
        "/views/pynamic");
    auto row = measure("dependency view", session);
    row.inode_cost = session.fs().inode_count() - inodes_before;
    row.name += view.ok ? "" : " (CONFLICTS)";
    rows.push_back(row);
  }
  {
    auto session = make_session();
    const auto needy = shrinkwrap::make_needy(session.fs(), session.loader(),
                                              session.default_exe());
    auto row = measure(needy.ok ? "needy executable" : "needy (LINK FAIL)",
                       session);
    rows.push_back(row);
  }
  {
    auto session = make_session();
    (void)session.shrinkwrap();
    rows.push_back(measure("shrinkwrapped", session));
  }
  {
    auto session = make_session(150, /*app_cache=*/true);
    (void)shrinkwrap::make_loader_cache(session.fs(), session.loader(),
                                        session.default_exe());
    rows.push_back(measure("app loader cache (Guix)", session));
  }

  std::printf("  %-26s %10s %10s %8s %10s\n", "strategy", "meta ops",
              "failed", "inodes", "env-immune");
  for (const auto& row : rows) {
    std::printf("  %-26s %10llu %10llu %8zu %10s\n", row.name.c_str(),
                static_cast<unsigned long long>(row.ops),
                static_cast<unsigned long long>(row.failed), row.inode_cost,
                row.env_immune ? "yes" : "no");
    depchaos::bench::capture(
        row.name, std::to_string(row.ops) + " ops, " +
                      std::to_string(row.failed) + " failed, " +
                      std::to_string(row.inode_cost) + " inodes, env-immune=" +
                      (row.env_immune ? "yes" : "no"));
  }
}

void BM_StrategyLoad(benchmark::State& state) {
  auto session = make_session(100);
  switch (state.range(0)) {
    case 1:
      (void)shrinkwrap::make_dependency_view(session.fs(), session.loader(),
                                             session.default_exe(), "/v");
      break;
    case 2:
      (void)shrinkwrap::make_needy(session.fs(), session.loader(),
                                   session.default_exe());
      break;
    case 3:
      (void)session.shrinkwrap();
      break;
    default:
      break;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.load().success);
  }
}
BENCHMARK(BM_StrategyLoad)
    ->Arg(0)  // as built
    ->Arg(1)  // view
    ->Arg(2)  // needy
    ->Arg(3)  // shrinkwrap
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_report();
  return depchaos::bench::run_benchmarks(argc, argv);
}
