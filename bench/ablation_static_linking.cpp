// Ablation: static vs dynamic vs shrinkwrapped (§III-B "Questioning
// Dynamic Linking" + Fig 4 tie-in).
//
// Startup cost: a static image is one open; shrinkwrap gets dynamic
// loading to deps+1 opens; an as-built store binary pays the search storm.
// System cost: on a Fig 4-shaped installed system, static linking forfeits
// all cross-binary sharing — but Fig 4 says only ~4% of libraries are
// widely shared, so the blowup is bounded by the popular few (libc).

#include "bench_util.hpp"
#include "depchaos/core/world.hpp"
#include "depchaos/elf/patcher.hpp"
#include "depchaos/loader/static_link.hpp"
#include "depchaos/support/rng.hpp"

namespace {

using namespace depchaos;

void print_startup() {
  using depchaos::bench::heading;
  using depchaos::bench::row;
  heading("Ablation — startup metadata ops: dynamic vs shrinkwrap vs static");

  auto session = core::WorldBuilder().emacs({}).build();

  const auto normal = session.load();
  row("dynamic, as built", std::to_string(normal.stats.metadata_calls()) +
                               " ops (search storm)");

  std::vector<std::string> closure;
  for (std::size_t i = 1; i < normal.load_order.size(); ++i) {
    closure.push_back(normal.load_order[i].path);
  }
  const auto static_image =
      loader::static_link(session.fs(), session.default_exe(), closure);
  if (static_image.ok) {
    elf::install_object(session.fs(), "/bin/emacs-static",
                        static_image.merged);
    const auto report = session.load("/bin/emacs-static");
    row("static image",
        std::to_string(report.stats.metadata_calls()) + " ops (one open)");
  } else {
    row("static image", "LINK FAILED (duplicate symbols)");
  }

  (void)session.shrinkwrap();
  const auto wrapped = session.load();
  row("shrinkwrapped (still dynamic)",
      std::to_string(wrapped.stats.metadata_calls()) +
          " ops (deps+1 opens; LD_PRELOAD tools still work)");
}

void print_system_cost() {
  using depchaos::bench::fmt;
  using depchaos::bench::heading;
  using depchaos::bench::row;
  heading("Ablation — whole-system bytes if everything were static (Fig 4 "
          "system)");

  const auto system = workload::generate_installed_system({});
  // Library sizes: heavy head (libc-like), light tail.
  support::Rng rng(0x512e5);
  std::vector<std::uint64_t> lib_sizes;
  lib_sizes.reserve(system.num_shared_objects);
  for (std::size_t i = 0; i < system.num_shared_objects; ++i) {
    const std::uint64_t base = i == 0 ? (2u << 20) : (64u << 10);
    lib_sizes.push_back(base + rng.below(256u << 10));
  }
  std::vector<std::uint64_t> bin_sizes(system.binary_deps.size(), 128u << 10);

  const auto cost = loader::estimate_system_cost(bin_sizes,
                                                 system.binary_deps, lib_sizes);
  row("dynamic (shared) resident",
      fmt(static_cast<double>(cost.dynamic_bytes) / (1 << 30), 2) + " GiB");
  row("static (duplicated) resident",
      fmt(static_cast<double>(cost.static_bytes) / (1 << 30), 2) + " GiB");
  row("blowup", fmt(cost.blowup(), 1) + "x");
}

void BM_StaticLink(benchmark::State& state) {
  workload::EmacsConfig config;
  config.num_deps = static_cast<std::size_t>(state.range(0));
  auto session = core::WorldBuilder().emacs(config).build();
  const auto report = session.load();
  std::vector<std::string> closure;
  for (std::size_t i = 1; i < report.load_order.size(); ++i) {
    closure.push_back(report.load_order[i].path);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        loader::static_link(session.fs(), session.default_exe(), closure).ok);
  }
}
BENCHMARK(BM_StaticLink)->Arg(50)->Arg(200)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_startup();
  print_system_cost();
  return depchaos::bench::run_benchmarks(argc, argv);
}
