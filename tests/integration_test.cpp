// End-to-end pipelines across every layer of the library — the flows a
// downstream user would actually run.

#include <gtest/gtest.h>

#include "depchaos/core/session.hpp"
#include "depchaos/elf/patcher.hpp"
#include "depchaos/loader/symbols.hpp"
#include "depchaos/pkg/bundle.hpp"
#include "depchaos/pkg/fhs.hpp"
#include "depchaos/pkg/modules.hpp"
#include "depchaos/pkg/store.hpp"
#include "depchaos/shrinkwrap/libtree.hpp"
#include "depchaos/shrinkwrap/shrinkwrap.hpp"
#include "depchaos/shrinkwrap/views.hpp"
#include "depchaos/spack/concretizer.hpp"
#include "depchaos/spack/install.hpp"
#include "depchaos/workload/pynamic.hpp"

namespace depchaos {
namespace {

TEST(Integration, SpackToStoreToShrinkwrapToLaunch) {
  // DSL -> concretize -> store install -> NFS launch -> wrap -> faster.
  spack::Repo repo;
  repo.add_package_py(
      "class Zlib(Package):\n    version(\"1.2.12\")\n");
  repo.add_package_py(
      "class Hdf5(Package):\n    version(\"1.12.1\")\n"
      "    depends_on(\"zlib\")\n");
  repo.add_package_py(
      "class App(Package):\n    version(\"1.0\")\n"
      "    depends_on(\"hdf5\")\n");
  const spack::Concretizer concretizer(repo);
  const auto dag = concretizer.concretize("app");

  vfs::FileSystem fs;
  fs.set_latency_model(vfs::LatencyModel::nfs());
  pkg::store::Store store(fs, "/spack/store");
  const auto installed = spack::install_dag(store, dag);

  core::Session session(std::move(fs));
  const auto normal = session.launch(installed.exe_path, 256);
  ASSERT_TRUE(normal.load_succeeded);

  ASSERT_TRUE(session.shrinkwrap(installed.exe_path).ok());
  const auto wrapped = session.launch(installed.exe_path, 256);
  ASSERT_TRUE(wrapped.load_succeeded);
  EXPECT_LT(wrapped.meta_ops_per_rank, normal.meta_ops_per_rank);
  EXPECT_LE(wrapped.total_time_s, normal.total_time_s);
}

TEST(Integration, LayeredSystemLikeLassen) {
  // §II-E: FHS base + TCE-like module dir + user store, composed.
  vfs::FileSystem fs;

  // Base OS in the FHS.
  pkg::fhs::Installer base(fs);
  pkg::fhs::Package libc_pkg;
  libc_pkg.name = "glibc";
  libc_pkg.version = "2.33";
  libc_pkg.files.push_back(
      {"usr/lib/libc.so.6", "", elf::make_library("libc.so.6")});
  base.install(libc_pkg);

  // A TCE-style compiler runtime exposed via a module.
  elf::install_object(fs, "/usr/tce/gcc-12/lib/libstdcpp.so",
                      elf::make_library("libstdcpp.so", {"libc.so.6"}));
  pkg::modules::ModuleSystem modules;
  pkg::modules::Module gcc_module;
  gcc_module.name = "gcc/12";
  gcc_module.ld_library_path_prepend = {"/usr/tce/gcc-12/lib"};
  modules.add(gcc_module);
  modules.load("gcc/12");

  // A user application in a store, linking against both layers.
  pkg::store::Store store(fs, "/usr/workspace/store");
  pkg::store::PackageSpec app;
  app.name = "mycode";
  app.version = "1.0";
  app.files.push_back(
      {"lib/libmycode.so",
       elf::make_library("libmycode.so", {"libstdcpp.so", "libc.so.6"}), ""});
  app.files.push_back(
      {"bin/mycode", elf::make_executable({"libmycode.so"}), ""});
  const auto& installed = store.add(app);

  loader::Loader loader(fs);
  const auto report =
      loader.load(installed.prefix + "/bin/mycode", modules.environment());
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.find_loaded("libstdcpp.so")->how,
            loader::HowFound::LdLibraryPath);
  EXPECT_EQ(report.find_loaded("libc.so.6")->how,
            loader::HowFound::DefaultPath);

  // Without the module the app breaks — the composition fragility of §II-E.
  modules.unload("gcc/12");
  EXPECT_FALSE(
      loader.load(installed.prefix + "/bin/mycode", modules.environment())
          .success);

  // Shrinkwrap (resolved inside the working environment) removes the
  // module dependence entirely.
  modules.load("gcc/12");
  shrinkwrap::Options options;
  options.env = modules.environment();
  ASSERT_TRUE(shrinkwrap::shrinkwrap(fs, loader,
                                     installed.prefix + "/bin/mycode",
                                     options)
                  .ok());
  modules.unload("gcc/12");
  EXPECT_TRUE(
      loader.load(installed.prefix + "/bin/mycode", modules.environment())
          .success);
}

TEST(Integration, DlopenAuditLiftsPluginClosure) {
  // §IV future work: plugins reached only through dlopen get frozen too.
  vfs::FileSystem fs;
  elf::install_object(fs, "/plug/deps/libleaf.so",
                      elf::make_library("libleaf.so"));
  elf::Object plugin = elf::make_library("libplugin.so", {"libleaf.so"},
                                         {"/plug/deps"});
  elf::install_object(fs, "/plug/libplugin.so", plugin);

  elf::Object gui = elf::make_library("libgui.so", {}, {"/plug"});
  gui.dlopen_names = {"libplugin.so"};
  elf::install_object(fs, "/qt/libgui.so", gui);

  elf::install_object(fs, "/bin/app",
                      elf::make_executable({"libgui.so"}, {}, {"/qt"}));

  loader::Loader loader(fs);
  shrinkwrap::Options options;
  options.audit_dlopens = true;
  const auto wrap = shrinkwrap::shrinkwrap(fs, loader, "/bin/app", options);
  ASSERT_TRUE(wrap.ok());
  ASSERT_EQ(wrap.dlopen_lifted.size(), 2u);  // plugin + its leaf dep
  EXPECT_TRUE(wrap.dlopen_unresolved.empty());

  const auto exe = elf::read_object(fs, "/bin/app");
  EXPECT_NE(std::find(exe.dyn.needed.begin(), exe.dyn.needed.end(),
                      "/plug/libplugin.so"),
            exe.dyn.needed.end());
  EXPECT_NE(std::find(exe.dyn.needed.begin(), exe.dyn.needed.end(),
                      "/plug/deps/libleaf.so"),
            exe.dyn.needed.end());
}

TEST(Integration, DlopenAuditReportsMissingPlugins) {
  vfs::FileSystem fs;
  elf::Object gui = elf::make_library("libgui.so");
  gui.dlopen_names = {"libabsent_plugin.so"};
  elf::install_object(fs, "/qt/libgui.so", gui);
  elf::install_object(fs, "/bin/app",
                      elf::make_executable({"libgui.so"}, {}, {"/qt"}));
  loader::Loader loader(fs);
  shrinkwrap::Options options;
  options.audit_dlopens = true;
  const auto wrap = shrinkwrap::shrinkwrap(fs, loader, "/bin/app", options);
  EXPECT_TRUE(wrap.ok());  // missing plugins are non-fatal
  ASSERT_EQ(wrap.dlopen_unresolved.size(), 1u);
  EXPECT_EQ(wrap.dlopen_unresolved[0], "libabsent_plugin.so");
}

TEST(Integration, BundleVsStoreVsViewOnSameApp) {
  // The same logical app delivered three ways; all load, with different
  // resolution mechanics.
  // 1. Bundle.
  {
    vfs::FileSystem fs;
    pkg::bundle::BundleSpec spec;
    spec.name = "tool";
    spec.exe = elf::make_executable({"libcore.so"});
    spec.libs = {{"libcore.so", elf::make_library("libcore.so")}};
    const auto bundle = pkg::bundle::create_bundle(fs, spec);
    loader::Loader loader(fs);
    const auto report = loader.load(bundle.exe_path);
    ASSERT_TRUE(report.success);
    EXPECT_EQ(report.load_order[1].how, loader::HowFound::Runpath);
  }
  // 2. Store + shrinkwrap.
  {
    vfs::FileSystem fs;
    pkg::store::Store store(fs);
    pkg::store::PackageSpec core;
    core.name = "core";
    core.version = "1";
    core.files.push_back(
        {"lib/libcore.so", elf::make_library("libcore.so"), ""});
    const auto& core_installed = store.add(core);
    pkg::store::PackageSpec tool;
    tool.name = "tool";
    tool.version = "1";
    tool.deps = {core_installed.prefix};
    tool.files.push_back(
        {"bin/tool", elf::make_executable({"libcore.so"}), ""});
    const auto& tool_installed = store.add(tool);
    loader::Loader loader(fs);
    const auto exe_path = tool_installed.prefix + "/bin/tool";
    ASSERT_TRUE(loader.load(exe_path).success);
    ASSERT_TRUE(shrinkwrap::shrinkwrap(fs, loader, exe_path).ok());
    const auto wrapped = loader.load(exe_path);
    ASSERT_TRUE(wrapped.success);
    EXPECT_EQ(wrapped.load_order[1].how, loader::HowFound::AbsolutePath);
  }
  // 3. Store + dependency view.
  {
    vfs::FileSystem fs;
    elf::install_object(fs, "/s/core/lib/libcore.so",
                        elf::make_library("libcore.so"));
    elf::install_object(
        fs, "/s/tool/bin/tool",
        elf::make_executable({"libcore.so"}, {}, {"/s/core/lib"}));
    loader::Loader loader(fs);
    const auto view = shrinkwrap::make_dependency_view(
        fs, loader, "/s/tool/bin/tool", "/views/tool");
    ASSERT_TRUE(view.ok);
    const auto report = loader.load("/s/tool/bin/tool");
    ASSERT_TRUE(report.success);
    EXPECT_TRUE(report.load_order[1].path.starts_with("/views/tool/lib"));
  }
}

TEST(Integration, InterposedProfilerSurvivesWrapping) {
  // LD_PRELOAD-based PMPI-style tooling keeps working on wrapped binaries
  // (§IV: "traditional preloaded tools continue to work as normal").
  vfs::FileSystem fs;
  elf::Object mpi = elf::make_library("libmpi.so");
  mpi.symbols.push_back(
      elf::Symbol{"MPI_Send", elf::SymbolBinding::Global, true});
  elf::install_object(fs, "/l/libmpi.so", mpi);
  elf::Object wrapper = elf::make_library("libmpiP.so");
  wrapper.symbols.push_back(
      elf::Symbol{"MPI_Send", elf::SymbolBinding::Global, true});
  elf::install_object(fs, "/usr/lib/libmpiP.so", wrapper);

  elf::Object exe = elf::make_executable({"libmpi.so"}, {}, {"/l"});
  exe.symbols.push_back(
      elf::Symbol{"MPI_Send", elf::SymbolBinding::Global, false});
  elf::install_object(fs, "/bin/mpiapp", exe);

  loader::Loader loader(fs);
  ASSERT_TRUE(shrinkwrap::shrinkwrap(fs, loader, "/bin/mpiapp").ok());
  loader::Environment env;
  env.ld_preload = {"libmpiP.so"};
  const auto bind = loader::bind_symbols(loader.load("/bin/mpiapp", env));
  ASSERT_NE(bind.provider_of("MPI_Send"), nullptr);
  EXPECT_EQ(*bind.provider_of("MPI_Send"), "/usr/lib/libmpiP.so");
}

}  // namespace
}  // namespace depchaos
