// §II guided tour: one application delivered through every distribution
// model in the paper's taxonomy, on one simulated machine — the layered
// reality of §II-E ("any given HPC system is usually comprised of layered
// instances of the FHS model and some form of the store model").
//
//   $ ./examples/hpc_stack_tour

#include <cstdio>

#include "depchaos/core/world.hpp"
#include "depchaos/pkg/bundle.hpp"
#include "depchaos/pkg/fhs.hpp"
#include "depchaos/pkg/hermetic.hpp"
#include "depchaos/pkg/modules.hpp"
#include "depchaos/pkg/store.hpp"

using namespace depchaos;

namespace {
void report_line(const char* model, const loader::LoadReport& report) {
  std::printf("  %-22s %s, %llu metadata syscalls, dep found via [%s]\n",
              model, report.success ? "loads" : "FAILS",
              static_cast<unsigned long long>(report.stats.metadata_calls()),
              report.load_order.size() > 1
                  ? std::string(loader::how_found_name(report.load_order[1].how))
                        .c_str()
                  : "-");
}
}  // namespace

int main() {
  std::printf("one app (needs libphysics.so), five delivery models:\n\n");

  // ---- 1. Traditional FHS (§II-A): well-known directories.
  {
    core::WorldBuilder builder;
    pkg::fhs::Installer installer(builder.fs());
    pkg::fhs::Package pkg;
    pkg.name = "physics";
    pkg.version = "1.0";
    pkg.files.push_back({"usr/lib/libphysics.so", "",
                         elf::make_library("libphysics.so")});
    pkg.files.push_back(
        {"usr/bin/sim", "", elf::make_executable({"libphysics.so"})});
    installer.install(pkg);
    auto session = builder.target("/usr/bin/sim").build();
    report_line("FHS", session.load());
  }

  // ---- 2. Bundled AppDir (§II-B): $ORIGIN-relative vendoring.
  {
    core::WorldBuilder builder;
    pkg::bundle::BundleSpec spec;
    spec.name = "sim";
    spec.exe = elf::make_executable({"libphysics.so"});
    spec.libs = {{"libphysics.so", elf::make_library("libphysics.so")}};
    const auto bundle =
        pkg::bundle::create_bundle(builder.fs(), spec, "/home/user");
    auto session = builder.target(bundle.exe_path).build();
    report_line("Bundled (AppDir)", session.load());
  }

  // ---- 3. Hermetic root (§II-C): committed layers, FHS interior.
  {
    pkg::hermetic::Image image;
    image.write_file("/usr/lib/libphysics.so",
                     elf::serialize(elf::make_library("libphysics.so")));
    image.write_file("/usr/bin/sim",
                     elf::serialize(elf::make_executable({"libphysics.so"})));
    image.commit("deploy sim");
    core::Session session(image.materialize(), {}, "/usr/bin/sim");
    report_line("Hermetic root", session.load());
  }

  // ---- 4. Store model (§II-D): hashed prefixes + RPATH wiring.
  {
    core::WorldBuilder builder;
    pkg::store::Store store(builder.fs());
    pkg::store::PackageSpec lib;
    lib.name = "physics";
    lib.version = "1.0";
    lib.files.push_back(
        {"lib/libphysics.so", elf::make_library("libphysics.so"), ""});
    const auto& lib_installed = store.add(lib);
    pkg::store::PackageSpec app;
    app.name = "sim";
    app.version = "1.0";
    app.deps = {lib_installed.prefix};
    app.files.push_back(
        {"bin/sim", elf::make_executable({"libphysics.so"}), ""});
    const auto& app_installed = store.add(app);
    auto session = builder.target(app_installed.prefix + "/bin/sim").build();
    report_line("Store (Spack/Nix)", session.load());
  }

  // ---- 5. Module model (§II-E): env-mutated search, the fragile glue.
  {
    auto session =
        core::WorldBuilder()
            .install("/usr/tce/physics-1.0/lib/libphysics.so",
                     elf::make_library("libphysics.so"))
            .install("/usr/workspace/bin/sim",
                     elf::make_executable({"libphysics.so"}))
            .target("/usr/workspace/bin/sim")
            .build();
    pkg::modules::ModuleSystem modules;
    pkg::modules::Module mod;
    mod.name = "physics/1.0";
    mod.ld_library_path_prepend = {"/usr/tce/physics-1.0/lib"};
    modules.add(mod);
    modules.load("physics/1.0");
    report_line("Modules (loaded)", session.load("", modules.environment()));
    modules.unload("physics/1.0");
    report_line("Modules (unloaded)",
                session.load("", modules.environment()));
  }

  std::printf(
      "\nthe module row is the §II-E fragility: same binary, same machine,\n"
      "different environment -> broken. Shrinkwrap exists to delete that\n"
      "row from the failure matrix.\n");
  return 0;
}
