// Fig 3: "A paradoxical setup for RUNPATH where the desired libraries are
// dirA/liba.so and dirB/libb.so" — no ordering of a single directory-level
// search path can load both intended files; absolute needed entries
// (Shrinkwrap) resolve it trivially.

#include "bench_util.hpp"
#include "depchaos/core/world.hpp"
#include "depchaos/elf/patcher.hpp"

namespace {

using namespace depchaos;

void print_figure() {
  using depchaos::bench::heading;
  using depchaos::bench::row;

  core::WorldBuilder builder;
  auto session = builder.paradox().build();
  const auto& scenario = *builder.paradox_info();

  heading("Fig 3 — RUNPATH paradox (want dirA/liba.so AND dirB/libb.so)");
  const std::vector<std::pair<std::string, std::vector<std::string>>> orders =
      {
          {"[dirA, dirB]", {scenario.dir_a, scenario.dir_b}},
          {"[dirB, dirA]", {scenario.dir_b, scenario.dir_a}},
          {"[dirA]", {scenario.dir_a}},
          {"[dirB]", {scenario.dir_b}},
      };
  for (const auto& [label, dirs] : orders) {
    workload::set_paradox_search_order(session.fs(), scenario, dirs);
    const auto report = session.load();
    const auto* a = report.find_loaded("liba.so");
    const auto* b = report.find_loaded("libb.so");
    row("search order " + label,
        std::string("liba<-") + (a ? a->path : "MISSING") + "  libb<-" +
            (b ? b->path : "MISSING") +
            (workload::paradox_satisfied(report, scenario) ? "  OK"
                                                           : "  WRONG"));
  }

  // Shrinkwrap-style absolute entries.
  elf::Patcher patcher(session.fs());
  patcher.set_needed(scenario.exe_path,
                     {scenario.good_a_path, scenario.good_b_path});
  patcher.set_runpath(scenario.exe_path, {});
  const auto wrapped = session.load();
  row("absolute DT_NEEDED (shrinkwrapped)",
      workload::paradox_satisfied(wrapped, scenario) ? "OK — paradox resolved"
                                                     : "WRONG");
}

void BM_ParadoxLoad(benchmark::State& state) {
  auto session = core::WorldBuilder().paradox().build();
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.load().success);
  }
}
BENCHMARK(BM_ParadoxLoad)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  print_figure();
  return depchaos::bench::run_benchmarks(argc, argv);
}
