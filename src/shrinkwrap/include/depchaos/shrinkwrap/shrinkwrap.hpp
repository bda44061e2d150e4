// Shrinkwrap (§IV): freeze a binary's dependency resolution.
//
// Caches the loader's answer by rewriting the executable's DT_NEEDED section
// to the *absolute paths* of every library in the full transitive closure,
// lifted to the top-level binary. After wrapping:
//   * the initial load is environment-independent (LD_LIBRARY_PATH cannot
//     redirect it; LD_PRELOAD still works — the supported backdoor);
//   * the loader issues one open() per library instead of searching
//     directory lists (Table II's 36× syscall reduction);
//   * transitive libraries are found via glibc's soname dedup (Fig 5) when
//     unwrapped objects deeper in the graph still request bare sonames.
//
// Two resolution strategies mirror the paper's implementation:
//   Interp — ask the loader itself (ld.so --list): authoritative when the
//            binary is executable on the current system.
//   Native — traverse the filesystem replicating the search semantics
//            (needed when the binary or loader cannot run here); handles
//            the corner cases §IV lists: wrong-architecture candidates are
//            silently skipped, hwcaps subdirectories are honored.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "depchaos/loader/loader.hpp"
#include "depchaos/vfs/vfs.hpp"

namespace depchaos::shrinkwrap {

enum class Strategy : std::uint8_t { Interp, Native };

struct Options {
  Strategy strategy = Strategy::Interp;
  /// Lift the full transitive closure onto the top-level binary (§IV).
  bool lift_transitive = true;
  /// Drop RPATH/RUNPATH after rewriting (they are dead weight once every
  /// needed entry is absolute).
  bool clear_search_paths = true;
  /// Extra sonames to append to the needed list before resolving — the
  /// documented recipe for known dlopen()ed libraries (python modules).
  std::vector<std::string> extra_needed;
  /// §IV future work, implemented: audit the dlopen() call sites recorded
  /// in every closure object, resolve each from its caller's search context
  /// (including nested dlopens), and lift the results to DT_NEEDED too.
  /// Unresolvable dlopen names are reported but are not fatal (plugins may
  /// legitimately be absent).
  bool audit_dlopens = false;
  /// Environment to resolve under (the "consistent build environment").
  loader::Environment env;
};

struct WrapReport {
  std::vector<std::string> old_needed;
  std::vector<std::string> new_needed;  // absolute paths, final order
  /// needed string -> resolved absolute path, for everything in the closure.
  std::map<std::string, std::string> resolved;
  std::vector<std::string> unresolved;  // names the strategy could not find
  /// dlopen audit results (when Options::audit_dlopens is set).
  std::vector<std::string> dlopen_lifted;      // absolute paths added
  std::vector<std::string> dlopen_unresolved;  // call sites we could not pin
  /// Syscall cost of performing the wrap itself (§V: ~4s warm / >1min cold
  /// NFS for a 900-dep binary).
  vfs::SyscallStats wrap_cost;
  bool changed = false;

  bool ok() const { return unresolved.empty(); }
};

/// A load already run elsewhere: its report and the op trace it charged.
struct RecordedLoad {
  const loader::LoadReport& report;
  const vfs::OpTrace& trace;
};

/// Shrinkwrap the executable in place; the next load reads the rewritten
/// binary.
///
/// `recorded`, when given, stands in for the resolving load: it must be
/// that very load (`exe_path` under `options.env` on a view with this
/// one's content, so no `extra_needed`), and it is charged to `fs` with
/// vfs::FileSystem::replay where the loader would have run. The report,
/// wrap_cost included, and the view's counters, model warmth and files
/// come out as if the loader had run.
WrapReport shrinkwrap(vfs::FileSystem& fs, loader::Loader& loader,
                      const std::string& exe_path, const Options& options = {},
                      const RecordedLoad* recorded = nullptr);

struct VerifyReport {
  bool ok = false;
  /// Needed entries that are not absolute paths.
  std::vector<std::string> non_absolute;
  /// Libraries that had to be found by search rather than direct open.
  std::vector<std::string> searched;
  std::vector<std::string> missing;
};

/// Audit a wrapped binary: loads it and checks that every first-level
/// dependency was found by direct absolute-path open or dedup cache.
VerifyReport verify(vfs::FileSystem& fs, loader::Loader& loader,
                    const std::string& exe_path,
                    const loader::Environment& env = {});

}  // namespace depchaos::shrinkwrap
