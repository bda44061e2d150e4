#include "depchaos/loader/loader.hpp"

#include <algorithm>
#include <deque>

#include "depchaos/support/strings.hpp"

namespace depchaos::loader {

namespace {

// Runs `restore` when the scope ends, exceptions included.
template <typename F>
class OnExit {
 public:
  explicit OnExit(F restore) : restore_(std::move(restore)) {}
  ~OnExit() { restore_(); }
  OnExit(const OnExit&) = delete;
  OnExit& operator=(const OnExit&) = delete;

 private:
  F restore_;
};

constexpr SearchPhase kGlibcPhases[] = {
    SearchPhase::RpathChain,
    SearchPhase::LdLibraryPath,
    SearchPhase::Runpath,
    SearchPhase::SystemPaths,
};

constexpr SearchPhase kMuslPhases[] = {
    SearchPhase::LdLibraryPath,
    SearchPhase::RpathChain,  // melded rpath+runpath, inherited
    SearchPhase::SystemPaths,
};

// One row per Dialect, in enum order.
constexpr DialectRules kRules[] = {
    {.phases = kGlibcPhases,
     .dedups_by_soname = true,
     .melds_rpath_runpath = false,
     .probes_hwcaps = true,
     .uses_ld_cache = true},
    {.phases = kMuslPhases,
     .dedups_by_soname = false,
     .melds_rpath_runpath = true,
     .probes_hwcaps = false,
     .uses_ld_cache = false},
};

}  // namespace

const DialectRules& rules(Dialect dialect) {
  return kRules[static_cast<std::size_t>(dialect)];
}

std::string_view how_found_name(HowFound how) {
  switch (how) {
    case HowFound::Root:
      return "root";
    case HowFound::AbsolutePath:
      return "absolute path";
    case HowFound::Cache:
      return "already loaded";
    case HowFound::Preload:
      return "LD_PRELOAD";
    case HowFound::AppCache:
      return "app loader cache";
    case HowFound::Rpath:
      return "rpath";
    case HowFound::RpathAncestor:
      return "rpath (inherited)";
    case HowFound::LdLibraryPath:
      return "LD_LIBRARY_PATH";
    case HowFound::Runpath:
      return "runpath";
    case HowFound::LdSoConf:
      return "ld.so.conf";
    case HowFound::DefaultPath:
      return "default path";
    case HowFound::NotFound:
      return "not found";
  }
  return "?";
}

const LoadedObject* LoadReport::find_loaded(
    std::string_view path_or_soname) const {
  for (const auto& obj : load_order) {
    if (obj.path == path_or_soname || obj.name == path_or_soname ||
        obj.real_path == path_or_soname) {
      return &obj;
    }
    if (obj.object && obj.object->dyn.soname == path_or_soname) return &obj;
  }
  return nullptr;
}

Loader::Loader(vfs::FileSystem& fs, SearchConfig config, Dialect dialect)
    : fs_(fs),
      paths_(fs.path_table()),
      config_(std::move(config)),
      dialect_(dialect),
      rules_(rules(dialect)) {}

void Loader::invalidate() {
  cache_.clear();
  ld_cache_.clear();
  ld_cache_built_ = false;
}

void Loader::adopt_caches(const Loader& other) {
  cache_ = other.cache_;
  ld_cache_ = other.ld_cache_;
  ld_cache_built_ = other.ld_cache_built_;
}

std::string_view Loader::expand_origin(std::string_view entry,
                                       std::string_view object_path,
                                       std::string& storage) {
  // Single pass over the entry: both spellings are recognized at each '$'
  // (they cannot overlap), the origin is computed only when a token
  // actually matches, and an entry without one is returned as-is — no
  // allocation on the overwhelmingly common no-DST path.
  std::string origin;
  bool expanding = false;
  std::size_t copied = 0;  // start of the not-yet-copied tail
  for (std::size_t pos = entry.find('$'); pos != std::string_view::npos;
       pos = entry.find('$', pos + 1)) {
    const std::string_view rest = entry.substr(pos);
    std::size_t token = 0;
    if (rest.starts_with("${ORIGIN}")) {
      token = 9;
    } else if (rest.starts_with("$ORIGIN")) {
      token = 7;
    } else {
      continue;
    }
    if (!expanding) {
      expanding = true;
      storage.clear();
      origin = vfs::dirname(object_path);
    }
    storage += entry.substr(copied, pos - copied);
    storage += origin;
    copied = pos + token;
  }
  if (!expanding) return entry;
  storage += entry.substr(copied);
  return storage;
}

std::shared_ptr<const elf::Object> Loader::cached_object(
    support::PathId key, const vfs::FileData& data) {
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    it = cache_
             .emplace(key, std::make_shared<const elf::Object>(
                               elf::parse(data.bytes)))
             .first;
  }
  return it->second;
}

support::PathId Loader::canonicalize(LoadedObject& loaded, support::PathId id,
                                     support::PathId canonical) const {
  if (canonical == support::PathTable::kNone) {
    loaded.real_path = loaded.path;
    return id;
  }
  loaded.real_path = paths_->str(canonical);
  return canonical;
}

Loader::Accepted Loader::probe_file(support::PathId id, elf::Machine machine,
                                    const std::string* log_as) {
  const vfs::FileData* data = fs_.open(id);  // one counted open(2)
  const auto log = [&](std::string_view outcome) {
    if (probe_log_) {
      std::string line = "trying ";
      line += log_as != nullptr ? *log_as : paths_->str(id);
      line += " ... ";
      line += outcome;
      probe_log_->push_back(std::move(line));
    }
  };
  if (data == nullptr) {
    log("ENOENT");
    return {};
  }
  if (!elf::looks_like_self(data->bytes)) {
    log("not an object, skipped");
    return {};
  }
  // The System V rule the paper leans on (§IV): a candidate whose
  // architecture does not match is silently ignored and the search goes on.
  Accepted accepted;
  accepted.canonical = fs_.resolve_canonical(id);
  accepted.object = cached_object(
      accepted.canonical != support::PathTable::kNone ? accepted.canonical
                                                      : id,
      *data);
  if (accepted.object->machine != machine) {
    log("wrong architecture, skipped");
    return {};
  }
  log("found");
  return accepted;
}

support::PathId Loader::absolute_needed_id(std::string_view path) {
  if (const auto it = absolute_ids_.find(path); it != absolute_ids_.end()) {
    return it->second;
  }
  const support::PathId id = fs_.intern(path);  // throws on a relative path
  absolute_ids_.emplace(path, id);
  return id;
}

support::PathId Loader::intern_dir(std::string_view dir) const {
  if (dir.empty() || dir.front() != '/') {
    return paths_->intern_under(support::PathTable::kRoot, dir);
  }
  return paths_->intern(dir);
}

Loader::DirProbe Loader::probe_dirs(std::span<const support::PathId> dirs,
                                    const std::string& name,
                                    elf::Machine machine) {
  const bool hwcaps = rules_.probes_hwcaps;
  for (std::size_t d = 0; d < dirs.size(); ++d) {
    if (hwcaps) {
      for (const auto& hwcap : config_.hwcaps) {
        const support::PathId candidate =
            paths_->child(paths_->intern_under(dirs[d], hwcap), name);
        if (Accepted hit = probe_file(candidate, machine)) {
          return DirProbe{d, candidate, std::move(hit)};
        }
      }
    }
    const support::PathId candidate = paths_->child(dirs[d], name);
    if (Accepted hit = probe_file(candidate, machine)) {
      return DirProbe{d, candidate, std::move(hit)};
    }
  }
  return DirProbe{};
}

void Loader::ensure_ld_cache() {
  if (ld_cache_built_) return;
  ld_cache_built_ = true;
  ld_cache_.clear();
  auto scan = [&](const std::vector<std::string>& dirs, HowFound how) {
    for (const auto& dir : dirs) {
      if (!fs_.exists(dir)) continue;
      const support::PathId dir_id = intern_dir(dir);
      for (const auto& name : fs_.list_dir(dir)) {
        if (ld_cache_.contains(name)) continue;
        // Spelled by the interned id, like the directory sweep, so a conf
        // dir given as "/usr/lib/" or "/usr//lib" reports "/usr/lib/x".
        const support::PathId cand = paths_->child(dir_id, name);
        ld_cache_.emplace(name, Resolution{paths_->str(cand), how, cand, {}});
      }
    }
  };
  scan(config_.ld_so_conf, HowFound::LdSoConf);
  scan(config_.default_paths, HowFound::DefaultPath);
}

const std::vector<support::PathId>& Loader::object_dirs(Session& session,
                                                        std::size_t index,
                                                        bool runpath) const {
  const auto& order = session.report.load_order;
  if (session.dirs.size() < order.size()) session.dirs.resize(order.size());
  auto& slot =
      runpath ? session.dirs[index].runpath : session.dirs[index].rpath;
  if (!slot) {
    const LoadedObject& node = order[index];
    const auto& entries =
        runpath ? node.object->dyn.runpath : node.object->dyn.rpath;
    slot.emplace();
    slot->reserve(entries.size());
    std::string storage;
    for (const auto& dir : entries) {
      slot->push_back(intern_dir(expand_origin(dir, node.path, storage)));
    }
  }
  return *slot;
}

std::vector<support::PathId> Loader::effective_rpath_chain(
    Session& session, std::size_t requester_index,
    std::size_t& own_count) const {
  // Non-melding (glibc, Table I): DT_RPATH of the requester, then of each
  // ancestor up to the executable. Any object carrying DT_RUNPATH
  // contributes nothing from its DT_RPATH, and a requester with DT_RUNPATH
  // disables the whole chain. Melding (musl, §IV): RPATH and RUNPATH of
  // every link in the ancestry, both propagated.
  const bool meld = rules_.melds_rpath_runpath;
  std::vector<support::PathId> dirs;
  own_count = 0;
  const auto& order = session.report.load_order;
  const LoadedObject& requester = order[requester_index];
  if (!requester.object) return dirs;
  if (!meld && !requester.object->dyn.runpath.empty()) {
    return dirs;  // DT_RUNPATH present: RPATH protocol disabled
  }
  const auto append = [&](std::size_t index, bool runpath) {
    const auto& list = object_dirs(session, index, runpath);
    dirs.insert(dirs.end(), list.begin(), list.end());
  };
  std::int64_t index = static_cast<std::int64_t>(requester_index);
  while (index >= 0) {
    const auto at = static_cast<std::size_t>(index);
    const LoadedObject& node = order[at];
    if (node.object) {
      if (meld || node.object->dyn.runpath.empty()) append(at, false);
      if (meld) append(at, true);
    }
    if (at == requester_index) own_count = dirs.size();
    index = node.parent_index;
  }
  return dirs;
}

std::optional<std::size_t> Loader::dedup_lookup(Session& session,
                                                const std::string& name) const {
  if (const auto it = session.by_name.find(name); it != session.by_name.end()) {
    return it->second;
  }
  if (rules_.dedups_by_soname) {
    // glibc also satisfies requests from the DT_SONAME of anything already
    // loaded — the dedup Shrinkwrap exploits (Fig 5). Musl does not (§IV).
    if (const auto it = session.by_soname.find(name);
        it != session.by_soname.end()) {
      return it->second;
    }
  }
  return std::nullopt;
}

Loader::Resolution Loader::search(Session& session, const std::string& name,
                                  std::size_t requester_index) {
  const auto& order = session.report.load_order;
  const LoadedObject& requester = order[requester_index];
  const elf::Machine machine =
      order[0].object ? order[0].object->machine : elf::Machine::X86_64;

  // Needed entries containing '/' are used as-is (after DST expansion); a
  // relative one throws FsError, as open() on it always has.
  if (name.find('/') != std::string::npos) {
    std::string storage;
    const support::PathId id =
        absolute_needed_id(expand_origin(name, requester.path, storage));
    if (Accepted hit = probe_file(id, machine)) {
      return Resolution{paths_->str(id), HowFound::AbsolutePath, id,
                        std::move(hit)};
    }
    return Resolution{};
  }

  // Per-application loader cache: consulted before any directory search.
  if (const auto it = session.app_cache.find(name);
      it != session.app_cache.end()) {
    const support::PathId id = fs_.intern(it->second);
    if (Accepted hit = probe_file(id, machine, &it->second)) {
      return Resolution{it->second, HowFound::AppCache, id, std::move(hit)};
    }
    // Stale cache entry: fall through to the normal search.
  }

  // Run the dialect's phases in order, e.g. glibc (Table I): RPATH chain,
  // LD_LIBRARY_PATH, RUNPATH, ld.so.cache, defaults; musl (§IV):
  // LD_LIBRARY_PATH, melded inherited chain, system dirs.
  for (const SearchPhase phase : rules_.phases) {
    Resolution res = search_phase(phase, session, name, requester_index,
                                  machine);
    if (res.how != HowFound::NotFound) return res;
  }
  return Resolution{};
}

Loader::Resolution Loader::search_phase(SearchPhase phase, Session& session,
                                        const std::string& name,
                                        std::size_t requester_index,
                                        elf::Machine machine) {
  // The accepting dir index of a sweep maps back to the phase-specific
  // HowFound label.
  switch (phase) {
    case SearchPhase::RpathChain: {
      std::size_t own = 0;
      const auto chain = effective_rpath_chain(session, requester_index, own);
      DirProbe hit = probe_dirs(chain, name, machine);
      if (!hit.found()) return Resolution{};
      // Melding dialects historically label only the first own entry as
      // the requester's rpath (musl has no RPATH/RUNPATH distinction to
      // report); non-melding labels every own DT_RPATH entry.
      const bool own_hit = rules_.melds_rpath_runpath
                               ? (hit.dir == 0 && own > 0)
                               : (hit.dir < own);
      return Resolution{paths_->str(hit.id),
                        own_hit ? HowFound::Rpath : HowFound::RpathAncestor,
                        hit.id, std::move(hit.accepted)};
    }
    case SearchPhase::LdLibraryPath: {
      std::vector<support::PathId> dirs;
      dirs.reserve(session.env->ld_library_path.size());
      for (const auto& dir : session.env->ld_library_path) {
        dirs.push_back(intern_dir(dir));
      }
      DirProbe hit = probe_dirs(dirs, name, machine);
      if (!hit.found()) return Resolution{};
      return Resolution{paths_->str(hit.id), HowFound::LdLibraryPath, hit.id,
                        std::move(hit.accepted)};
    }
    case SearchPhase::Runpath: {
      if (!session.report.load_order[requester_index].object) {
        return Resolution{};
      }
      DirProbe hit = probe_dirs(
          object_dirs(session, requester_index, /*runpath=*/true), name,
          machine);
      if (!hit.found()) return Resolution{};
      return Resolution{paths_->str(hit.id), HowFound::Runpath, hit.id,
                        std::move(hit.accepted)};
    }
    case SearchPhase::SystemPaths: {
      if (rules_.uses_ld_cache && config_.use_ld_cache) {
        ensure_ld_cache();
        if (const auto it = ld_cache_.find(name); it != ld_cache_.end()) {
          // The cache told us where to look; the loader still open()s it.
          if (Accepted hit = probe_file(it->second.id, machine)) {
            Resolution res = it->second;
            res.accepted = std::move(hit);
            return res;
          }
        }
        return Resolution{};
      }
      // No cache: sweep ld.so.conf dirs then the trusted defaults in one
      // pass; the boundary index decides the label.
      std::vector<support::PathId> dirs;
      dirs.reserve(config_.ld_so_conf.size() + config_.default_paths.size());
      for (const auto& dir : config_.ld_so_conf) {
        dirs.push_back(intern_dir(dir));
      }
      for (const auto& dir : config_.default_paths) {
        dirs.push_back(intern_dir(dir));
      }
      DirProbe hit = probe_dirs(dirs, name, machine);
      if (!hit.found()) return Resolution{};
      return Resolution{paths_->str(hit.id),
                        hit.dir < config_.ld_so_conf.size()
                            ? HowFound::LdSoConf
                            : HowFound::DefaultPath,
                        hit.id, std::move(hit.accepted)};
    }
  }
  return Resolution{};
}

std::size_t Loader::register_object(Session& session, LoadedObject loaded,
                                    support::PathId key) {
  auto& order = session.report.load_order;
  const std::size_t index = order.size();
  // Dedup keys. Musl never dedups by soname (§IV); both dedup by the
  // requested string and by canonical path (the inode proxy).
  session.by_name.emplace(loaded.name, index);
  session.by_realpath.emplace(key, index);
  if (loaded.object && !loaded.object->dyn.soname.empty() &&
      rules_.dedups_by_soname) {
    session.by_soname.emplace(loaded.object->dyn.soname, index);
  }
  order.push_back(std::move(loaded));
  return index;
}

LoadReport Loader::load(const std::string& exe_path, const Environment& env) {
  Session session;
  session.env = &env;
  session.report.success = true;
  probe_log_ = config_.record_probes ? &session.report.probe_log : nullptr;
  const OnExit detach_log([this] { probe_log_ = nullptr; });
  const vfs::SyscallStats before = fs_.stats();

  // Open + read the executable itself (execve's work).
  const support::PathId exe_id = fs_.intern(exe_path);
  const vfs::FileData* exe_data = fs_.open(exe_id);
  if (exe_data == nullptr) {
    throw FsError("cannot execute: " + exe_path);
  }
  LoadedObject root;
  root.name = exe_path;
  root.path = exe_path;
  const support::PathId exe_key =
      canonicalize(root, exe_id, fs_.resolve_canonical(exe_id));
  if (!elf::looks_like_self(exe_data->bytes)) {
    throw ElfError("not a SELF executable: " + exe_path);
  }
  const auto exe_object = cached_object(exe_key, *exe_data);
  fs_.count_read(exe_id);
  // Read the per-application loader cache, if enabled and present. The
  // loader pays one open() for the cache file itself.
  if (config_.use_app_cache) {
    const std::string cache_path = exe_path + kAppCacheSuffix;
    if (const vfs::FileData* cache = fs_.open(cache_path)) {
      for (const auto& line : support::split(cache->bytes, '\n')) {
        const auto space = line.find(' ');
        if (space == std::string::npos) continue;
        session.app_cache.emplace(line.substr(0, space),
                                  line.substr(space + 1));
      }
    }
  }

  root.how = HowFound::Root;
  root.depth = 0;
  root.parent_index = -1;
  root.object = exe_object;
  register_object(session, std::move(root), exe_key);

  std::deque<WorkItem> queue;

  // LD_PRELOAD objects load before anything from the needed lists and are
  // searched with the executable as the requester.
  for (const auto& preload : env.ld_preload) {
    Resolution res;
    if (preload.find('/') != std::string::npos) {
      const support::PathId id = fs_.intern(preload);
      if (Accepted hit = probe_file(id, exe_object->machine, &preload)) {
        res = Resolution{preload, HowFound::Preload, id, std::move(hit)};
      }
    } else {
      res = search(session, preload, 0);
      if (res.how != HowFound::NotFound) res.how = HowFound::Preload;
    }
    LoadedObject loaded;
    loaded.name = preload;
    loaded.requested_by = "LD_PRELOAD";
    loaded.depth = 1;
    loaded.parent_index = 0;
    loaded.how = res.how;
    if (res.how == HowFound::NotFound) {
      session.report.requests.push_back(loaded);
      session.report.missing.push_back(loaded);
      // glibc warns but continues on missing preloads.
      continue;
    }
    loaded.path = std::move(res.path);
    const support::PathId key =
        canonicalize(loaded, res.id, res.accepted.canonical);
    loaded.object = std::move(res.accepted.object);
    fs_.count_read(res.id);
    session.report.requests.push_back(loaded);
    register_object(session, std::move(loaded), key);
  }

  // Initial BFS scope: the executable's needed entries, then each
  // preload's, exactly the order ld.so seeds its link-map search list.
  for (std::size_t i = 0; i < session.report.load_order.size(); ++i) {
    enqueue_needed_deque(session, i, queue);
  }

  while (!queue.empty()) {
    const WorkItem item = queue.front();
    queue.pop_front();
    process_request(session, item, queue);
  }

  session.report.stats = fs_.stats() - before;
  return std::move(session.report);
}

HowFound Loader::shadow_search(Session& session, const WorkItem& item) {
  const OnExit restore(
      [this, counting = fs_.counting(), log = probe_log_] {
        fs_.set_counting(counting);
        probe_log_ = log;
      });
  fs_.set_counting(false);
  probe_log_ = nullptr;
  try {
    return search(session, *item.name, item.requester_index).how;
  } catch (const Error&) {
    return HowFound::NotFound;
  }
}

void Loader::process_request(Session& session, const WorkItem& item,
                             std::deque<WorkItem>& queue) {
  const LoadedObject& requester = session.report.load_order[item.requester_index];

  const std::string& name = *item.name;
  LoadedObject request;
  request.name = name;
  request.requested_by = requester.path;
  request.depth = requester.depth + 1;
  request.parent_index = static_cast<std::int64_t>(item.requester_index);

  // Dedup by name/soname before touching the filesystem.
  if (const auto hit = dedup_lookup(session, name)) {
    const LoadedObject& original = session.report.load_order[*hit];
    request.path = original.path;
    request.real_path = original.real_path;
    request.how = HowFound::Cache;
    request.object = original.object;
    if (config_.classify_cache_hits) {
      request.cache_search_how = shadow_search(session, item);
    }
    session.report.requests.push_back(std::move(request));
    return;
  }

  Resolution res = search(session, name, item.requester_index);
  if (res.how == HowFound::NotFound) {
    request.how = HowFound::NotFound;
    session.report.requests.push_back(request);
    session.report.missing.push_back(std::move(request));
    session.report.success = false;
    return;
  }

  request.path = std::move(res.path);
  const support::PathId key =
      canonicalize(request, res.id, res.accepted.canonical);

  // Post-resolution inode dedup (both dialects; this is how musl avoids
  // double-loading a file reached via two different strings).
  if (const auto real_hit = session.by_realpath.find(key);
      real_hit != session.by_realpath.end()) {
    const LoadedObject& original =
        session.report.load_order[real_hit->second];
    request.how = HowFound::Cache;
    request.object = original.object;
    // Record the requested name as now-known (glibc adds it to l_libname).
    session.by_name.emplace(name, real_hit->second);
    session.report.requests.push_back(std::move(request));
    return;
  }

  request.how = res.how;
  request.object = std::move(res.accepted.object);
  fs_.count_read(res.id);
  session.report.requests.push_back(request);
  const std::size_t index =
      register_object(session, std::move(request), key);
  enqueue_needed_deque(session, index, queue);
}

void Loader::enqueue_needed_deque(Session& session, std::size_t index,
                                  std::deque<WorkItem>& queue) {
  const auto& obj = session.report.load_order[index];
  if (!obj.object) return;
  for (const auto& entry : obj.object->dyn.needed) {
    queue.push_back(WorkItem{&entry, index});
  }
}

LoadedObject Loader::dlopen(LoadReport& report, const std::string& caller_path,
                            const std::string& name, const Environment& env) {
  // Rebuild session state from the existing report, which goes back to the
  // caller on every exit, a throwing search included. Probes are logged
  // as in load().
  Session session;
  session.env = &env;
  session.report = std::move(report);
  probe_log_ = config_.record_probes ? &session.report.probe_log : nullptr;
  const OnExit give_back([this, &report, &session] {
    probe_log_ = nullptr;
    report = std::move(session.report);
  });
  for (std::size_t i = 0; i < session.report.load_order.size(); ++i) {
    const auto& obj = session.report.load_order[i];
    session.by_name.emplace(obj.name, i);
    if (!obj.real_path.empty()) {
      session.by_realpath.emplace(fs_.intern(obj.real_path), i);
    }
    if (rules_.dedups_by_soname && obj.object &&
        !obj.object->dyn.soname.empty()) {
      session.by_soname.emplace(obj.object->dyn.soname, i);
    }
  }
  std::size_t caller_index = 0;
  bool caller_found = false;
  for (std::size_t i = 0; i < session.report.load_order.size(); ++i) {
    const auto& obj = session.report.load_order[i];
    if (obj.path == caller_path || obj.real_path == caller_path) {
      caller_index = i;
      caller_found = true;
      break;
    }
  }
  if (!caller_found) {
    throw Error("dlopen caller not loaded: " + caller_path);
  }

  const vfs::SyscallStats before = fs_.stats();
  std::deque<WorkItem> queue;
  queue.push_back(WorkItem{&name, caller_index});
  const std::size_t first_request = session.report.requests.size();
  while (!queue.empty()) {
    const WorkItem item = queue.front();
    queue.pop_front();
    process_request(session, item, queue);
  }
  session.report.stats += fs_.stats() - before;
  return session.report.requests[first_request];
}

}  // namespace depchaos::loader
