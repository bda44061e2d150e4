#include "depchaos/shrinkwrap/ldcache.hpp"

namespace depchaos::shrinkwrap {

LdCacheReport make_loader_cache(vfs::FileSystem& fs, loader::Loader& loader,
                                const std::string& exe_path,
                                const loader::Environment& env) {
  LdCacheReport report;
  report.cache_path = exe_path + loader::kAppCacheSuffix;

  const loader::LoadReport load = loader.load(exe_path, env);
  std::string contents;
  for (std::size_t i = 1; i < load.load_order.size(); ++i) {
    const auto& obj = load.load_order[i];
    if (obj.how == loader::HowFound::Preload) continue;
    // Key by both the requested string and the soname so transitive
    // bare-soname requests hit too.
    contents += obj.name + " " + obj.path + "\n";
    ++report.entries;
    if (obj.object && !obj.object->dyn.soname.empty() &&
        obj.object->dyn.soname != obj.name) {
      contents += obj.object->dyn.soname + " " + obj.path + "\n";
      ++report.entries;
    }
  }
  for (const auto& missing : load.missing) {
    if (missing.requested_by != "LD_PRELOAD") {
      report.unresolved.push_back(missing.name);
    }
  }
  fs.write_file(report.cache_path, contents);
  return report;
}

}  // namespace depchaos::shrinkwrap
