// Ablation: glibc vs musl loader dialects (§IV).
//
// The same shrinkwrapped binary loads under glibc (soname dedup satisfies
// the transitive bare-soname requests) and FAILS under musl (inode-keyed
// dedup, no soname cache) — the incompatibility raised on the musl mailing
// list. Also contrasts the melded musl search order. The same world is
// shared between the two dialect sessions via a snapshot round-trip.

#include "bench_util.hpp"
#include "depchaos/core/world.hpp"

namespace {

using namespace depchaos;

void print_report() {
  using depchaos::bench::heading;
  using depchaos::bench::row;

  heading("Ablation — dialects: glibc vs musl on a shrinkwrapped binary");

  workload::PynamicConfig config;
  config.num_modules = 60;
  config.avg_cross_deps = 2;  // cross-deps request bare sonames
  config.exe_extra_bytes = 0;

  core::WorldBuilder builder;
  auto glibc_session = builder.pynamic(config).build();
  const auto wrap = glibc_session.shrinkwrap();
  row("shrinkwrap (under glibc)", wrap.ok() ? "ok" : "failed");

  const auto glibc_report = glibc_session.load();
  row("glibc load of wrapped binary",
      glibc_report.success ? "SUCCESS (soname dedup, Fig 5)" : "failed");

  // Same (wrapped) world, musl dialect: snapshot round-trip into a second
  // session.
  core::SessionConfig musl_config;
  musl_config.dialect = loader::Dialect::Musl;
  auto musl_session =
      core::Session::from_snapshot(glibc_session.save(), musl_config);
  const auto musl_report = musl_session.load(glibc_session.default_exe());
  row("musl load of wrapped binary",
      musl_report.success
          ? "success (unexpected)"
          : "FAILS — " + std::to_string(musl_report.missing.size()) +
                " unresolved bare sonames (no soname dedup, §IV)");

  // Search-order contrast on an unwrapped app.
  const auto env = loader::Environment::with_library_path({"/env"});
  core::WorldBuilder contrast;
  contrast.install("/rp/libx.so", elf::make_library("libx.so"))
      .install("/env/libx.so", elf::make_library("libx.so"))
      .install("/bin/app",
               elf::make_executable({"libx.so"}, {}, {"/rp"}));  // RPATH
  const std::string image = contrast.save();
  auto g2 = contrast.build();
  core::SessionConfig m2_config;
  m2_config.dialect = loader::Dialect::Musl;
  auto m2 = core::Session::from_snapshot(image, m2_config);
  row("RPATH vs LD_LIBRARY_PATH, glibc picks",
      g2.load("/bin/app", env).load_order[1].path);
  row("RPATH vs LD_LIBRARY_PATH, musl picks",
      m2.load("/bin/app", env).load_order[1].path);
}

void BM_DialectLoad(benchmark::State& state) {
  core::WorldBuilder builder;
  builder.emacs({}).dialect(state.range(0) == 0 ? loader::Dialect::Glibc
                                                : loader::Dialect::Musl);
  auto session = builder.build();
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.load().success);
  }
}
BENCHMARK(BM_DialectLoad)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_report();
  return depchaos::bench::run_benchmarks(argc, argv);
}
