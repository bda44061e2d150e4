// Dynamic loader simulator.
//
// Reproduces the search and deduplication semantics the paper analyzes
// (§III). The dialect-specific choices (search-phase order, dedup keys,
// RPATH/RUNPATH melding, hwcaps, ld.so.cache use) are one constexpr
// DialectRules row per Dialect, returned by loader::rules():
//
//  Glibc:
//   * For a needed name without '/', search in order: DT_RPATH of the
//     requesting object and then of its ancestors up to the executable
//     (an object's RPATH is ignored entirely if that object has a
//     DT_RUNPATH — Table I "propagates"), LD_LIBRARY_PATH, DT_RUNPATH of
//     the requesting object only, the ld.so.cache (built from ld.so.conf
//     directories), and finally the default paths.
//   * Loaded objects are deduplicated by requested name, by DT_SONAME, and
//     by canonical path (dev/inode) — the behaviour Shrinkwrap exploits
//     (Fig 5): an object loaded by absolute path satisfies later bare-soname
//     requests from its cached DT_SONAME.
//   * Candidates with a mismatched machine are silently skipped (§IV).
//   * glibc-hwcaps subdirectories are probed before each plain directory.
//  Musl:
//   * RPATH and RUNPATH are melded: both propagate to dependencies but are
//     searched *after* LD_LIBRARY_PATH (§IV).
//   * Deduplication is by exact needed string and by inode only — never by
//     soname, which is what breaks Shrinkwrap'd binaries on musl (§IV).
//   * No hwcaps subdirectories and no ld.so.cache: the ld.so.conf and
//     default directories are probed like any other.
//
// Loading is breadth-first from the executable's DT_NEEDED list, matching
// ld.so; each object is charged the open(2) probes its search emits against
// the VFS, which is where Table II's syscall counts come from.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "depchaos/elf/object.hpp"
#include "depchaos/vfs/vfs.hpp"

namespace depchaos::loader {

enum class Dialect : std::uint8_t { Glibc, Musl };

/// One step of the bare-soname directory search.
enum class SearchPhase : std::uint8_t {
  RpathChain,     // requester's DT_RPATH + inherited ancestor chain
                  // (includes melded DT_RUNPATH under musl)
  LdLibraryPath,  // environment override dirs
  Runpath,        // requester's own DT_RUNPATH (separate phase: glibc only)
  SystemPaths,    // ld.so.cache / ld.so.conf dirs / built-in defaults
};

/// The bundle of independent choices that makes a dialect (§IV).
struct DialectRules {
  /// The bare-name search phases, in the order this dialect runs them.
  std::span<const SearchPhase> phases;
  /// Fig 5 dedup: may a bare-soname request be satisfied from the
  /// DT_SONAME of an already-loaded object? Both dialects always dedup by
  /// requested string and by canonical path (inode).
  bool dedups_by_soname;
  /// When true, DT_RPATH and DT_RUNPATH both propagate and are searched as
  /// one inherited chain. When false, only DT_RPATH propagates, and a
  /// requester carrying DT_RUNPATH disables its whole RPATH protocol.
  bool melds_rpath_runpath;
  /// Probe SearchConfig::hwcaps subdirectories before each plain directory.
  bool probes_hwcaps;
  /// Consult the ld.so.cache during SystemPaths (subject to
  /// SearchConfig::use_ld_cache); otherwise probe the directories.
  bool uses_ld_cache;
};

/// The constexpr rule row of `dialect` (the two rows are described at the
/// top of this file).
const DialectRules& rules(Dialect dialect);

/// Process environment relevant to the loader.
struct Environment {
  std::vector<std::string> ld_library_path;
  std::vector<std::string> ld_preload;

  static Environment with_library_path(std::vector<std::string> dirs) {
    Environment env;
    env.ld_library_path = std::move(dirs);
    return env;
  }
};

/// The per-application loader cache's side file is "<exe>" + this suffix:
/// the loader reads it (SearchConfig::use_app_cache) and
/// shrinkwrap::make_loader_cache writes it.
inline constexpr char kAppCacheSuffix[] = ".ldcache";

/// System-level loader configuration (a distribution's ld.so.conf).
struct SearchConfig {
  /// Directories listed in ld.so.conf(.d), indexed into ld.so.cache.
  std::vector<std::string> ld_so_conf;
  /// Built-in trusted directories.
  std::vector<std::string> default_paths = {"/lib64", "/usr/lib64", "/lib",
                                            "/usr/lib"};
  /// glibc-hwcaps style subdirectories probed inside each search dir,
  /// best first (e.g. {"glibc-hwcaps/x86-64-v3", "glibc-hwcaps/x86-64-v2"}).
  std::vector<std::string> hwcaps;
  /// Model ld.so.cache: lookups in ld_so_conf/default dirs cost no probes.
  /// When false every directory is probed with open() like any other.
  bool use_ld_cache = true;
  /// For dedup (cache) hits, additionally classify how the requester's OWN
  /// search would have fared — uncounted — so libtree can render Listing 1:
  /// a library satisfied only because an earlier subtree loaded it shows up
  /// as "not found" in a pure search analysis. A what-if search that throws
  /// (say, on a malformed candidate) also classifies as "not found"; it
  /// never fails the load.
  bool classify_cache_hits = false;
  /// Guix-style per-application loader cache (Courtès, "Taming the stat
  /// storm with a loader cache", referenced in §V-A): when enabled and
  /// "<exe>" + kAppCacheSuffix exists, its name->path map is consulted
  /// BEFORE any directory search. Reading the cache costs one open; each
  /// hit costs one direct open of the target — comparable to Shrinkwrap's
  /// savings without rewriting the binary, but tied to a side file the
  /// environment must preserve.
  bool use_app_cache = false;
  /// LD_DEBUG=libs-style probe trace: record every candidate path the
  /// search touches, with its outcome, into LoadReport::probe_log.
  bool record_probes = false;
};

/// How a dependency was ultimately located (libtree's annotations).
enum class HowFound : std::uint8_t {
  Root,           // the executable itself
  AbsolutePath,   // DT_NEEDED contained '/'
  Cache,          // already loaded (dedup hit)
  Preload,        // LD_PRELOAD
  AppCache,       // per-application loader cache file (§V-A reference)
  Rpath,          // requester's DT_RPATH
  RpathAncestor,  // an ancestor's DT_RPATH (propagation, Table I)
  LdLibraryPath,  // LD_LIBRARY_PATH
  Runpath,        // requester's DT_RUNPATH
  LdSoConf,       // ld.so.cache hit from ld.so.conf dirs
  DefaultPath,    // trusted default dirs
  NotFound,
};

std::string_view how_found_name(HowFound how);

struct LoadedObject {
  std::string name;          // requested needed string
  std::string path;          // where it was found ("" when NotFound)
  std::string real_path;     // canonical path (symlinks resolved)
  std::string requested_by;  // path of the requesting object ("" for root)
  HowFound how = HowFound::NotFound;
  int depth = 0;  // BFS depth; 0 = executable
  /// Index into LoadReport::load_order of the object whose needed list
  /// caused this load (-1 for the executable). Drives RPATH ancestor
  /// propagation.
  std::int64_t parent_index = -1;
  /// Only meaningful when how == Cache and SearchConfig::classify_cache_hits
  /// is set: how the requester's own search would have resolved this name
  /// (NotFound means "works only because something else loaded it first").
  /// Cache = unclassified (the option was off).
  HowFound cache_search_how = HowFound::Cache;
  std::shared_ptr<const elf::Object> object;  // null when NotFound
};

struct LoadReport {
  bool success = false;
  /// Objects in load (BFS) order; index 0 is the executable. Dedup hits are
  /// NOT repeated here; `requests` below records every edge.
  std::vector<LoadedObject> load_order;
  /// Every needed-edge request, including cache hits and misses, in the
  /// order the loader processed them (libtree renders this).
  std::vector<LoadedObject> requests;
  /// Unresolved needed entries.
  std::vector<LoadedObject> missing;
  /// Syscall traffic attributable to this load (delta on the VFS counters).
  vfs::SyscallStats stats;
  /// When SearchConfig::record_probes is set: one line per candidate probe,
  /// `LD_DEBUG=libs` style ("trying /path ... ENOENT").
  std::vector<std::string> probe_log;

  const LoadedObject* find_loaded(std::string_view path_or_soname) const;
};

class Loader {
 public:
  /// A loader over `fs` that follows `dialect`'s rules(), e.g. its search
  /// order and dedup keys.
  explicit Loader(vfs::FileSystem& fs, SearchConfig config = {},
                  Dialect dialect = Dialect::Glibc);

  /// Simulate process startup: load `exe_path` and its full closure.
  LoadReport load(const std::string& exe_path, const Environment& env = {});

  /// Simulate dlopen(name) issued from code in `caller_path`, continuing an
  /// existing load. glibc semantics: the caller's RPATH chain and RUNPATH
  /// apply, the executable's RUNPATH does not (§III-A, the Qt plugin trap).
  LoadedObject dlopen(LoadReport& report, const std::string& caller_path,
                      const std::string& name, const Environment& env = {});

  const SearchConfig& config() const { return config_; }
  /// The dialect whose rules() this loader runs.
  Dialect dialect() const { return dialect_; }

 private:
  /// What the probe of an accepted candidate established: its realpath id
  /// (kNone when it has none) and its parsed object from the cache. A
  /// rejected candidate leaves `object` null.
  struct Accepted {
    support::PathId canonical = support::PathTable::kNone;
    std::shared_ptr<const elf::Object> object;
    explicit operator bool() const { return object != nullptr; }
  };

  struct Resolution {
    std::string path;
    HowFound how = HowFound::NotFound;
    /// Interned id of the probed candidate (kNone when NotFound). App-cache
    /// entries and preloads keep their verbatim spelling in `path`, so
    /// str(id) may differ from it there.
    support::PathId id = support::PathTable::kNone;
    /// The probe's verdict on `id`, handed on to registration.
    Accepted accepted;
  };

  /// Outcome of a directory sweep: which search dir accepted the candidate
  /// (index into the swept dir list), the candidate's id and the probe's
  /// verdict on it.
  struct DirProbe {
    std::size_t dir = 0;
    support::PathId id = support::PathTable::kNone;
    Accepted accepted;
    bool found() const { return id != support::PathTable::kNone; }
  };

  // Pending BFS work item: the needed entry `*name` requested by
  // load_order[requester_index]. `name` points into the requester's parsed
  // object (or at dlopen's argument), which outlives the queue.
  struct WorkItem {
    const std::string* name;
    std::size_t requester_index;
  };

  // Interned DT_RPATH / DT_RUNPATH dirs of one load_order entry, $ORIGIN
  // expanded against that entry's path. Each list is built the first time
  // a search phase reads it, so a load interns no dir a search would not.
  struct ObjectDirs {
    std::optional<std::vector<support::PathId>> rpath;
    std::optional<std::vector<support::PathId>> runpath;
  };

  // Per-load mutable state.
  struct Session {
    LoadReport report;
    // Dedup indices into report.load_order. Names and sonames are request
    // strings; the inode-proxy map is keyed by the canonical PathId that
    // resolution already produced (the probed id when it has no realpath).
    std::unordered_map<std::string, std::size_t> by_name;      // request str
    std::unordered_map<std::string, std::size_t> by_soname;    // DT_SONAME
    std::unordered_map<support::PathId, std::size_t> by_realpath;
    // Search dirs per load_order index, grown on demand (dlopen sessions
    // start from a report built elsewhere).
    std::vector<ObjectDirs> dirs;
    // Parsed per-application loader cache ("" when absent/disabled).
    std::unordered_map<std::string, std::string> app_cache;
    const Environment* env = nullptr;
  };

  /// The parsed object of the opened SELF image `data`, from the cache
  /// under its inode-proxy key `key`, parsed and cached on first sight. A
  /// parse that throws ElfError caches nothing, so it throws again on the
  /// next sight.
  std::shared_ptr<const elf::Object> cached_object(support::PathId key,
                                                   const vfs::FileData& data);
  /// Set `loaded.real_path` from `canonical`, the realpath id of `id` (its
  /// verbatim path when kNone), and return the inode-proxy dedup key: the
  /// canonical id, else `id`.
  support::PathId canonicalize(LoadedObject& loaded, support::PathId id,
                               support::PathId canonical) const;
  /// The id of an absolute DT_NEEDED spelling (after $ORIGIN expansion),
  /// interned on first sight; a relative one throws FsError every time.
  support::PathId absolute_needed_id(std::string_view path);
  std::optional<std::size_t> dedup_lookup(Session& session,
                                          const std::string& name) const;
  Resolution search(Session& session, const std::string& name,
                    std::size_t requester_index);
  /// Intern a search directory: absolute dirs directly, relative dirs (a
  /// historic security hole) resolved against / — functional but
  /// unremarkable, as before.
  support::PathId intern_dir(std::string_view dir) const;
  /// Sweep `dirs` for `name`, hwcaps subdirectories before each plain dir,
  /// stopping at the first accepted candidate. Each candidate is a
  /// (dir id, name) step in the interner, taken just before its open(2),
  /// so candidates past the hit are never interned.
  DirProbe probe_dirs(std::span<const support::PathId> dirs,
                      const std::string& name, elf::Machine machine);
  /// Single ELF-validity probe of one candidate: one counted open(2), the
  /// magic check on the opened bytes, then the architecture check on the
  /// cached parse, with LD_DEBUG style logging. `log_as` overrides the
  /// probe-log spelling (paths carried verbatim from caches/preloads keep
  /// their original bytes); by default the interned string is logged.
  Accepted probe_file(support::PathId id, elf::Machine machine,
                      const std::string* log_as = nullptr);
  void ensure_ld_cache();
  /// Append `loaded` to load_order under its dedup keys; `key` is the
  /// inode-proxy id canonicalize() returned.
  std::size_t register_object(Session& session, LoadedObject loaded,
                              support::PathId key);
  /// libtree's what-if for a dedup hit: how the requester's own search
  /// would have resolved `item`, probed uncounted and unlogged. A search
  /// that throws would not have succeeded, so it classifies as NotFound.
  HowFound shadow_search(Session& session, const WorkItem& item);
  void process_request(Session& session, const WorkItem& item,
                       std::deque<WorkItem>& queue);
  void enqueue_needed_deque(Session& session, std::size_t index,
                            std::deque<WorkItem>& queue);
  Resolution search_phase(SearchPhase phase, Session& session,
                          const std::string& name, std::size_t requester_index,
                          elf::Machine machine);
  /// The inherited rpath chain for `requester`, as interned dir ids.
  /// `own_count` receives how many leading entries came from the
  /// requester's own dynamic section (they are reported HowFound::Rpath;
  /// the rest RpathAncestor).
  std::vector<support::PathId> effective_rpath_chain(
      Session& session, std::size_t requester_index,
      std::size_t& own_count) const;
  /// The interned DT_RUNPATH (or DT_RPATH) dirs of load_order[index],
  /// built on first use. The reference is valid until the next call.
  const std::vector<support::PathId>& object_dirs(Session& session,
                                                  std::size_t index,
                                                  bool runpath) const;

  /// Expand $ORIGIN/${ORIGIN} in one pass. Returns `entry` itself when
  /// there is nothing to expand (no allocation — the common case), else a
  /// view of `storage` holding the expansion.
  static std::string_view expand_origin(std::string_view entry,
                                        std::string_view object_path,
                                        std::string& storage);

  vfs::FileSystem& fs_;
  // The world's interner (shared across the whole fork family); candidate
  // construction, closure keys, and the parsed-object cache all speak ids.
  std::shared_ptr<support::PathTable> paths_;
  SearchConfig config_;
  Dialect dialect_;
  const DialectRules& rules_;
  // Parsed-object cache keyed by canonical PathId, filled the first time a
  // probe passes a file's magic check (whatever its architecture) or a
  // load opens its executable; probes read their architecture verdicts
  // from it. Loads never write binaries and Patcher edits go through the
  // VFS, so code that rewrites a binary and loads again calls invalidate()
  // or constructs a fresh Loader; until then probes and loads see the old
  // parse.
  std::unordered_map<support::PathId, std::shared_ptr<const elf::Object>>
      cache_;
  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  // Absolute DT_NEEDED spellings (after $ORIGIN expansion) -> interned id,
  // so a wrapped binary's entries are interned once per loader rather than
  // once per load. Interning is lexical and the PathTable is append-only,
  // so an entry never goes stale: invalidate() and adopt_caches() leave it
  // alone. Bounded by the distinct absolute entries this loader has seen.
  std::unordered_map<std::string, support::PathId, StringHash, std::equal_to<>>
      absolute_ids_;
  // ld.so.cache: name -> (path, from ld_so_conf or default).
  std::unordered_map<std::string, Resolution> ld_cache_;
  bool ld_cache_built_ = false;
  // Active probe log during a load() (null when record_probes is off).
  std::vector<std::string>* probe_log_ = nullptr;

 public:
  /// Drop parsed-object and ld.so caches (after patching binaries), and
  /// with them the probes' cached architecture verdicts.
  void invalidate();

  /// Seed this loader's parsed-object and ld.so caches from another loader
  /// whose filesystem is identical to ours — the fork boundary in
  /// core::Session::fork(). Safe because parsed objects are immutable
  /// shared_ptr<const> values and a freshly forked world is byte-identical
  /// to its parent; after either side patches binaries, the usual
  /// invalidate() convention applies to that side's loader only.
  void adopt_caches(const Loader& other);
};

}  // namespace depchaos::loader
