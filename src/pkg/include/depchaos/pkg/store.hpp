// The Store Model (§II-D): per-package hashed prefixes, explicit dependency
// edges, pessimistic content hashing, atomic profile swap/rollback.
//
// Each package lands in <root>/<hash>-<name>-<version>/ with its own
// FHS-shaped interior. The hash covers the package's identity, its payload,
// and the hashes of its full dependency closure — "any minor change ...
// will cause a domino effect of rebuilds". Binaries are wired to their
// dependencies with RPATH or RUNPATH entries pointing at store prefixes
// (configurable, because the paper's failure modes hinge on which is used).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "depchaos/elf/object.hpp"
#include "depchaos/vfs/vfs.hpp"

namespace depchaos::pkg::store {

enum class LinkStyle : std::uint8_t { Rpath, Runpath };

struct StoreFile {
  std::string rel_path;  // e.g. "lib/libfoo.so.1"
  std::optional<elf::Object> object;
  std::string content;  // used when object is not set
};

struct PackageSpec {
  std::string name;
  std::string version;
  std::vector<StoreFile> files;
  /// Store prefixes of direct dependencies (their lib dirs get added to the
  /// search path of every object in this package).
  std::vector<std::string> deps;
};

struct InstalledPackage {
  std::string name;
  std::string version;
  std::string hash;
  std::string prefix;                // <root>/<hash>-<name>-<version>
  std::vector<std::string> deps;     // dependency prefixes
  std::vector<std::string> objects;  // absolute paths of installed SELFs
};

class Store {
 public:
  explicit Store(vfs::FileSystem& fs, std::string root = "/store",
                 LinkStyle link_style = LinkStyle::Rpath);

  /// Install a package; computes the pessimistic hash, writes files, wires
  /// each SELF object's search path to `deps` lib dirs plus its own.
  const InstalledPackage& add(const PackageSpec& spec);

  /// Lookup by name (latest added wins) or by full hash.
  const InstalledPackage* find(const std::string& name_or_hash) const;

  /// All installed packages, in installation order. (Deque: `add` hands out
  /// stable references that must survive later installs.)
  const std::deque<InstalledPackage>& packages() const { return installed_; }

  /// Full dependency closure (prefixes) of a package, root first.
  std::vector<std::string> closure(const InstalledPackage& package) const;

  /// The §II-D "domino effect": every installed package whose pessimistic
  /// hash changes when `prefix` changes — the reverse-dependency closure,
  /// i.e. what a security update to that package forces you to rebuild.
  std::vector<std::string> dependents_closure(const std::string& prefix) const;

  /// On-disk bytes that a rebuild of `prefix`'s dependents would rewrite
  /// (the update-cost number debated in §III-B).
  std::uint64_t rebuild_bytes(const std::string& prefix) const;

  struct GcResult {
    std::vector<std::string> removed_prefixes;
    std::uint64_t bytes_freed = 0;
  };

  /// Garbage collection: every package reachable from any profile
  /// generation (through its dependency closure) is live; everything else
  /// is deleted from disk and forgotten. With no profiles, everything is
  /// garbage — exactly Nix's semantics.
  GcResult garbage_collect();

  // --- profiles: atomic upgrade / rollback (§II-D) ------------------------

  /// Commit a new generation whose bin/lib view symlinks the given package
  /// prefixes; /profiles/current atomically flips to it.
  void set_profile(const std::vector<std::string>& prefixes);

  /// Flip /profiles/current back one generation. Throws if none.
  void rollback();

  std::string profile_path() const { return profiles_root_ + "/current"; }

  const std::string& root() const { return root_; }
  LinkStyle link_style() const { return link_style_; }

 private:
  std::string compute_hash(const PackageSpec& spec) const;

  vfs::FileSystem& fs_;
  std::string root_;
  std::string profiles_root_;
  LinkStyle link_style_;
  std::deque<InstalledPackage> installed_;
  std::map<std::string, std::size_t> by_hash_;
  std::map<std::string, std::size_t> by_name_;  // latest
  int current_generation_ = 0;
};

}  // namespace depchaos::pkg::store
