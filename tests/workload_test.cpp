#include <gtest/gtest.h>

#include <algorithm>

#include "depchaos/elf/patcher.hpp"
#include "depchaos/loader/symbols.hpp"
#include "depchaos/shrinkwrap/libtree.hpp"
#include "depchaos/shrinkwrap/shrinkwrap.hpp"
#include "depchaos/workload/debian.hpp"
#include "depchaos/workload/emacs.hpp"
#include "depchaos/workload/nixruby.hpp"
#include "depchaos/workload/pynamic.hpp"
#include "depchaos/workload/scenarios.hpp"

namespace depchaos::workload {
namespace {

// ---------------------------------------------------------------- pynamic

TEST(Pynamic, SmallInstanceLoads) {
  vfs::FileSystem fs;
  PynamicConfig config;
  config.num_modules = 40;
  config.exe_extra_bytes = 0;
  const auto app = generate_pynamic(fs, config);
  loader::Loader loader(fs);
  const auto report = loader.load(app.exe_path);
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.load_order.size(), 41u);
}

TEST(Pynamic, SearchCostIsQuadraticish) {
  vfs::FileSystem fs;
  PynamicConfig config;
  config.num_modules = 60;
  config.exe_extra_bytes = 0;
  const auto app = generate_pynamic(fs, config);
  loader::Loader loader(fs);
  const auto report = loader.load(app.exe_path);
  // Module i sits in directory i: resolving it probes i+1 directories.
  // Sum ~ n(n+1)/2; dedup'd cross-deps add nothing.
  const std::uint64_t expected_min = 60ull * 61 / 2;
  EXPECT_GE(report.stats.open_calls, expected_min);
  EXPECT_LE(report.stats.open_calls, expected_min + 61);
}

TEST(Pynamic, DeterministicForSeed) {
  vfs::FileSystem fs1, fs2;
  PynamicConfig config;
  config.num_modules = 30;
  const auto app1 = generate_pynamic(fs1, config);
  const auto app2 = generate_pynamic(fs2, config);
  EXPECT_EQ(elf::read_object(fs1, app1.exe_path),
            elf::read_object(fs2, app2.exe_path));
}

TEST(Pynamic, ShrinkwrapCutsSyscallsByOrdersOfMagnitude) {
  vfs::FileSystem fs;
  PynamicConfig config;
  config.num_modules = 100;
  config.exe_extra_bytes = 0;
  const auto app = generate_pynamic(fs, config);
  loader::Loader loader(fs);
  const auto before = loader.load(app.exe_path);
  ASSERT_TRUE(shrinkwrap::shrinkwrap(fs, loader, app.exe_path).ok());
  const auto after = loader.load(app.exe_path);
  ASSERT_TRUE(after.success);
  EXPECT_GT(before.stats.metadata_calls(),
            after.stats.metadata_calls() * 20);
}

// ------------------------------------------------------------------ emacs

TEST(Emacs, TableIIShape) {
  vfs::FileSystem fs;
  const auto app = generate_emacs_like(fs, {});
  loader::Loader loader(fs);
  const auto normal = loader.load(app.exe_path);
  ASSERT_TRUE(normal.success);
  // 103 deps across 36 dirs, avg position ~18: ~1800-1900 calls (paper: 1823).
  EXPECT_GT(normal.stats.metadata_calls(), 1200u);
  EXPECT_LT(normal.stats.metadata_calls(), 2600u);

  ASSERT_TRUE(shrinkwrap::shrinkwrap(fs, loader, app.exe_path).ok());
  const auto wrapped = loader.load(app.exe_path);
  ASSERT_TRUE(wrapped.success);
  // Paper: 104 (one open per dependency + the executable).
  EXPECT_EQ(wrapped.stats.metadata_calls(), 104u);

  const double ratio =
      static_cast<double>(normal.stats.metadata_calls()) /
      static_cast<double>(wrapped.stats.metadata_calls());
  EXPECT_GT(ratio, 12.0);  // paper's strace ratio is ~17.5x
}

TEST(Emacs, AllDepsDirect) {
  vfs::FileSystem fs;
  EmacsConfig config;
  config.num_deps = 10;
  config.num_dirs = 4;
  const auto app = generate_emacs_like(fs, config);
  loader::Loader loader(fs);
  const auto report = loader.load(app.exe_path);
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.load_order.size(), 11u);
}

// ----------------------------------------------------------------- debian

TEST(DebianCorpus, ProportionsMatchFig1) {
  DebianCorpusConfig config;
  config.num_packages = 20000;  // scaled-down for test speed
  const auto corpus = generate_debian_corpus(config);
  const auto counts = pkg::deb::classify(corpus);
  const double total = static_cast<double>(counts.total());
  EXPECT_NEAR(counts.unversioned / total, 0.735, 0.02);
  EXPECT_NEAR(counts.range / total, 0.248, 0.02);
  EXPECT_NEAR(counts.exact / total, 0.017, 0.01);
}

TEST(DebianCorpus, SurvivesControlRoundTrip) {
  DebianCorpusConfig config;
  config.num_packages = 500;
  const auto corpus = generate_debian_corpus(config);
  const auto reparsed =
      pkg::deb::parse_control(corpus_to_control_text(corpus));
  ASSERT_EQ(reparsed.size(), corpus.size());
  EXPECT_EQ(pkg::deb::classify(reparsed).total(),
            pkg::deb::classify(corpus).total());
}

TEST(InstalledSystem, Fig4ReuseShape) {
  const auto system = generate_installed_system({});
  const auto histogram = reuse_histogram(system);
  ASSERT_EQ(histogram.size(), 1400u);
  // "only 4% of shared object files are used by more than 5% of binaries"
  const auto threshold = static_cast<std::uint64_t>(0.05 * 3287);
  const double fraction = histogram.fraction_above(threshold);
  EXPECT_GT(fraction, 0.015);
  EXPECT_LT(fraction, 0.08);
  // rank 0 (libc) used by every binary.
  EXPECT_EQ(histogram.max(), 3287u);
}

TEST(InstalledSystem, MaterializedBinariesLoad) {
  InstalledSystemConfig config;
  config.num_binaries = 25;
  config.num_shared_objects = 40;
  const auto system = generate_installed_system(config);
  vfs::FileSystem fs;
  materialize_installed_system(fs, system);
  loader::Loader loader(fs);
  for (int b = 0; b < 25; ++b) {
    EXPECT_TRUE(loader.load("/usr/bin/bin" + std::to_string(b)).success);
  }
}

// ---------------------------------------------------------------- nixruby

TEST(NixRuby, ClosureHitsTargetSize) {
  const auto closure = generate_ruby_closure({});
  EXPECT_EQ(closure.drvs.closure(closure.root).size(), 453u);
}

TEST(NixRuby, StructureResemblesFig2) {
  const auto closure = generate_ruby_closure({});
  const auto stats = closure.drvs.stats(closure.root);
  EXPECT_EQ(stats.nodes, 453u);
  EXPECT_GT(stats.sources, 50u);     // tarballs + patches everywhere
  EXPECT_GT(stats.bootstrap, 15u);   // five stages of machinery
  EXPECT_GT(stats.max_depth, 3u);    // deep bootstrap chain
  EXPECT_GT(stats.edges, stats.nodes);  // denser than a tree: a "snarl"
}

TEST(NixRuby, DotExportContainsRoot) {
  const auto closure = generate_ruby_closure({});
  const auto graph = closure.drvs.closure_graph(closure.root);
  const auto dot = graph.to_dot("ruby");
  EXPECT_NE(dot.find("ruby-2.7.5.drv"), std::string::npos);
  EXPECT_EQ(graph.node_count(), 453u);
}

// --------------------------------------------------------------- scenarios

TEST(Rocm, WrongModuleMixesVersions) {
  vfs::FileSystem fs;
  const auto scenario = make_rocm_scenario(fs);
  loader::Loader loader(fs);

  const auto clean = loader.load(scenario.exe_path, scenario.clean_env);
  ASSERT_TRUE(clean.success);
  EXPECT_FALSE(rocm_versions_mixed(clean, scenario));

  const auto broken =
      loader.load(scenario.exe_path, scenario.wrong_module_env);
  ASSERT_TRUE(broken.success);  // it loads... the wrong thing (the segfault)
  EXPECT_TRUE(rocm_versions_mixed(broken, scenario));
}

TEST(Rocm, ShrinkwrapFixesTheMix) {
  vfs::FileSystem fs;
  const auto scenario = make_rocm_scenario(fs);
  loader::Loader loader(fs);
  ASSERT_TRUE(shrinkwrap::shrinkwrap(fs, loader, scenario.exe_path).ok());
  const auto report =
      loader.load(scenario.exe_path, scenario.wrong_module_env);
  ASSERT_TRUE(report.success);
  EXPECT_FALSE(rocm_versions_mixed(report, scenario));
}

TEST(Samba, RescuedLibraryIsCacheSatisfiedNotSearchable) {
  vfs::FileSystem fs;
  const auto scenario = make_samba_scenario(fs);
  loader::SearchConfig config;
  config.classify_cache_hits = true;
  loader::Loader loader(fs, config);
  const auto report = loader.load(scenario.exe_path);
  ASSERT_TRUE(report.success);

  // Find the request for the rescued soname issued by the runpath-less lib.
  bool found_rescue = false;
  for (const auto& request : report.requests) {
    if (request.name == scenario.rescued_soname &&
        request.requested_by == scenario.no_runpath_lib) {
      EXPECT_EQ(request.how, loader::HowFound::Cache);
      EXPECT_EQ(request.cache_search_how, loader::HowFound::NotFound);
      found_rescue = true;
    }
  }
  EXPECT_TRUE(found_rescue);
}

TEST(Samba, LibtreeShowsListingOneAnnotations) {
  vfs::FileSystem fs;
  const auto scenario = make_samba_scenario(fs);
  loader::SearchConfig config;
  config.classify_cache_hits = true;
  loader::Loader loader(fs, config);
  const auto tree = shrinkwrap::render_tree(loader.load(scenario.exe_path));
  EXPECT_NE(tree.find("[runpath]"), std::string::npos);
  EXPECT_NE(tree.find("[default path]"), std::string::npos);
  EXPECT_NE(tree.find("not found (satisfied by earlier load)"),
            std::string::npos);
}

TEST(Omp, LoadOrderDecidesWinner) {
  vfs::FileSystem fs;
  const auto real_first = make_ompstubs_scenario(fs, /*stubs_first=*/false);
  loader::Loader loader(fs);
  const auto bind1 = loader::bind_symbols(loader.load(real_first.exe_path));
  EXPECT_EQ(*bind1.provider_of("omp_get_num_threads"),
            real_first.libomp_path);

  vfs::FileSystem fs2;
  const auto stubs_first = make_ompstubs_scenario(fs2, /*stubs_first=*/true);
  loader::Loader loader2(fs2);
  const auto bind2 =
      loader::bind_symbols(loader2.load(stubs_first.exe_path));
  EXPECT_EQ(*bind2.provider_of("omp_get_num_threads"),
            stubs_first.stubs_path);
}

TEST(Paradox, NoSearchOrderSatisfiesBoth) {
  vfs::FileSystem fs;
  const auto scenario = make_runpath_paradox(fs);
  loader::Loader loader(fs);

  const std::vector<std::vector<std::string>> orders = {
      {scenario.dir_a, scenario.dir_b},
      {scenario.dir_b, scenario.dir_a},
      {scenario.dir_a},
      {scenario.dir_b},
  };
  for (const auto& order : orders) {
    set_paradox_search_order(fs, scenario, order);
    const auto report = loader.load(scenario.exe_path);
    EXPECT_FALSE(paradox_satisfied(report, scenario))
        << "order unexpectedly satisfied the paradox";
  }
}

TEST(Paradox, ShrinkwrapResolvesIt) {
  vfs::FileSystem fs;
  const auto scenario = make_runpath_paradox(fs);
  loader::Loader loader(fs);
  // Wrap with the intended libraries as explicit absolute entries.
  elf::Patcher patcher(fs);
  patcher.set_needed(scenario.exe_path,
                     {scenario.good_a_path, scenario.good_b_path});
  patcher.set_runpath(scenario.exe_path, {});
  const auto report = loader.load(scenario.exe_path);
  ASSERT_TRUE(report.success);
  EXPECT_TRUE(paradox_satisfied(report, scenario));
}

TEST(QtPlugin, RunpathTrapAndRpathRescue) {
  {
    vfs::FileSystem fs;
    const auto scenario = make_qt_plugin_scenario(fs, /*use_rpath=*/false);
    loader::Loader loader(fs);
    auto report = loader.load(scenario.exe_path);
    ASSERT_TRUE(report.success);
    const auto plug = loader.dlopen(report, scenario.gui_lib_path,
                                    scenario.plugin_soname);
    EXPECT_EQ(plug.how, loader::HowFound::NotFound);
  }
  {
    vfs::FileSystem fs;
    const auto scenario = make_qt_plugin_scenario(fs, /*use_rpath=*/true);
    loader::Loader loader(fs);
    auto report = loader.load(scenario.exe_path);
    ASSERT_TRUE(report.success);
    const auto plug = loader.dlopen(report, scenario.gui_lib_path,
                                    scenario.plugin_soname);
    EXPECT_EQ(plug.how, loader::HowFound::RpathAncestor);
  }
}

}  // namespace
}  // namespace depchaos::workload
