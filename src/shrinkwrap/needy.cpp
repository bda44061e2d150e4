#include "depchaos/shrinkwrap/needy.hpp"

#include <algorithm>
#include <unordered_set>

#include "depchaos/elf/patcher.hpp"
#include "depchaos/support/path_table.hpp"

namespace depchaos::shrinkwrap {

NeedyReport make_needy(vfs::FileSystem& fs, loader::Loader& loader,
                       const std::string& exe_path,
                       const loader::Environment& env) {
  NeedyReport report;
  const loader::LoadReport load = loader.load(exe_path, env);
  if (!load.success) return report;

  // Closure dirs are deduped by interned PathId; the RUNPATH list is
  // emitted in sorted-string order.
  std::vector<std::string> closure_paths;
  std::vector<std::string> sonames;
  support::PathTable& paths = fs.paths();
  std::unordered_set<support::PathId> dirs_seen;
  for (std::size_t i = 1; i < load.load_order.size(); ++i) {
    const auto& obj = load.load_order[i];
    if (obj.how == loader::HowFound::Preload) continue;
    closure_paths.push_back(obj.path);
    sonames.push_back(obj.object && !obj.object->dyn.soname.empty()
                          ? obj.object->dyn.soname
                          : vfs::basename(obj.path));
    dirs_seen.insert(paths.parent(paths.intern(obj.path)));
  }

  // The link line: the executable plus every closure library. Duplicate
  // strong symbols are a hard error here — ld(1) behaviour.
  report.link = loader::link_check(fs, exe_path, closure_paths);
  if (!report.link.ok) {
    return report;  // executable untouched
  }

  elf::Patcher patcher(fs);
  patcher.set_needed(exe_path, sonames);
  report.search_dirs.reserve(dirs_seen.size());
  for (const support::PathId dir : dirs_seen) {
    report.search_dirs.push_back(paths.str(dir));
  }
  std::sort(report.search_dirs.begin(), report.search_dirs.end());
  patcher.set_runpath(exe_path, report.search_dirs);
  patcher.set_rpath(exe_path, {});

  report.lifted = std::move(sonames);
  report.ok = true;
  return report;
}

}  // namespace depchaos::shrinkwrap
