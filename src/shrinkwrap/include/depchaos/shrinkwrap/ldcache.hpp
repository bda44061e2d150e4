// Per-application loader cache writer — the Guix mitigation the paper cites
// in §V-A (Courtès, "Taming the 'stat' storm with a loader cache").
//
// Instead of rewriting the binary (Shrinkwrap), resolve the closure once
// and record the name->path map in a side file "<exe>.ldcache"
// (loader::kAppCacheSuffix) that a cooperating loader
// (SearchConfig::use_app_cache) consults before any directory search.
// Same stat-storm savings; different trade-off: the binary is untouched,
// but correctness now depends on the side file shipping with the binary
// and staying in sync.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "depchaos/loader/loader.hpp"
#include "depchaos/vfs/vfs.hpp"

namespace depchaos::shrinkwrap {

struct LdCacheReport {
  std::string cache_path;
  std::size_t entries = 0;
  std::vector<std::string> unresolved;
  bool ok() const { return unresolved.empty(); }
};

/// Resolve `exe_path`'s closure under `env` and write the cache file.
LdCacheReport make_loader_cache(vfs::FileSystem& fs, loader::Loader& loader,
                                const std::string& exe_path,
                                const loader::Environment& env = {});

}  // namespace depchaos::shrinkwrap
