#include "depchaos/shrinkwrap/views.hpp"

#include "depchaos/elf/patcher.hpp"

namespace depchaos::shrinkwrap {

ViewReport make_dependency_view(vfs::FileSystem& fs, loader::Loader& loader,
                                const std::string& exe_path,
                                const std::string& view_root,
                                const loader::Environment& env) {
  ViewReport report;
  report.view_dir = vfs::normalize_path(view_root + "/lib");
  const std::size_t inodes_before = fs.inode_count();

  const loader::LoadReport load = loader.load(exe_path, env);
  if (!load.success) return report;

  fs.mkdir_p(report.view_dir);
  elf::Patcher patcher(fs);

  for (std::size_t i = 1; i < load.load_order.size(); ++i) {
    const auto& obj = load.load_order[i];
    if (obj.how == loader::HowFound::Preload) continue;
    // View entry name: the soname (what lookups will ask for).
    const std::string entry_name =
        obj.object && !obj.object->dyn.soname.empty()
            ? obj.object->dyn.soname
            : vfs::basename(obj.path);
    const std::string link = report.view_dir + "/" + entry_name;
    if (fs.exists(link)) {
      const auto existing = fs.realpath(link);
      if (existing && *existing != obj.real_path) {
        // Two different files want the same name: the single-version
        // restriction of views (§III-D1).
        report.conflicts.push_back(entry_name);
      }
      continue;
    }
    fs.symlink(obj.real_path, link);
    ++report.symlink_count;
    // The library resolves through the view from now on.
    patcher.clear_search_paths(obj.path);
  }

  patcher.set_rpath(exe_path, {report.view_dir});
  patcher.set_runpath(exe_path, {});

  report.inode_cost = fs.inode_count() - inodes_before;
  report.ok = report.conflicts.empty();
  return report;
}

}  // namespace depchaos::shrinkwrap
