// support::PathTable — an append-only interner for absolute, normalized
// filesystem paths.
//
// Every path the simulator touches is reduced to a stable 32-bit PathId
// whose entry records the parent directory's PathId, the component depth,
// and the full normalized string (the final component is a span of that
// string, so name() costs nothing). Interning normalizes lexically the way
// vfs::normalize_path does — "//" collapse, "." dropped, ".." clamped at
// the root — so two spellings of one path always map to one id, and the
// resolution pipeline (vfs walk, loader candidate probing, shrinkwrap
// closure keys) can compare, hash, and traverse paths without re-splitting
// or re-normalizing strings on every probe.
//
// Sharing model: one table is created per root vfs::FileSystem and
// inherited by every fork of that world (and by deep copies), so a forked
// fleet interns each path once, fleet-wide. The table only ever grows:
// ids are never invalidated, entry storage is chunked so append never
// moves published entries, and id-indexed reads (str/name/parent/depth)
// are lock-free. The child index is sharded by (parent, name) hash:
// string-keyed lookups take that shard's shared lock, a first-ever
// interning takes the shard's exclusive lock, and only id allocation +
// entry publication serialize on a separate (short) allocation mutex —
// so concurrent cold-path interns of unrelated paths no longer queue on
// one table-wide write lock.
//
// Growth bound: every path gets an id; the table holds at most 4M paths
// (the fixed chunk directory below) and interning past that throws
// std::length_error.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace depchaos::support {

/// Stable identifier of an interned absolute path. 0 is "no path";
/// PathTable::kRoot names "/".
using PathId = std::uint32_t;

class PathTable {
 public:
  static constexpr PathId kNone = 0;
  static constexpr PathId kRoot = 1;

  PathTable();
  ~PathTable();
  PathTable(const PathTable&) = delete;
  PathTable& operator=(const PathTable&) = delete;

  /// Intern an absolute path, normalizing lexically ('.'/'..'/'//', with
  /// '..' clamped at the root like vfs::normalize_path). Throws
  /// std::invalid_argument when `path` is empty or not absolute, and
  /// std::length_error when the table is full.
  PathId intern(std::string_view path);

  /// Intern `relative` resolved lexically against the interned directory
  /// `base` — the allocation-free equivalent of
  /// intern(str(base) + "/" + relative). `relative` may contain '/', '.'
  /// and '..' components (".." climbs parent links, clamped at the root)
  /// and may also be absolute, in which case `base` is ignored. An empty
  /// `relative` returns `base`.
  PathId intern_under(PathId base, std::string_view relative);

  /// Single-component step: the id of `name` inside directory `dir`.
  /// "." returns `dir`, ".." its parent (root clamps to root), "" returns
  /// `dir`. `name` must not contain '/'.
  PathId child(PathId dir, std::string_view name);

  /// Full normalized path. Reference stays valid forever (append-only).
  const std::string& str(PathId id) const { return entry(id).full; }

  /// Final component, a span of str(id). name(kRoot) is "/".
  std::string_view name(PathId id) const {
    const Entry& e = entry(id);
    return std::string_view(e.full).substr(e.full.size() - e.name_len);
  }

  /// Parent directory id; parent(kRoot) == kRoot.
  PathId parent(PathId id) const { return entry(id).parent; }

  /// Component count: 0 for "/", 1 for "/usr", 2 for "/usr/lib", ...
  std::uint32_t depth(PathId id) const { return entry(id).depth; }

  /// Number of interned paths (including the root).
  std::size_t size() const { return count_.load(std::memory_order_acquire); }

 private:
  struct Entry {
    PathId parent = kNone;
    std::uint32_t depth = 0;
    std::uint32_t name_len = 0;  // final-component span at the tail of full
    std::string full;
  };

  // Chunked entry storage: published entries never move, so id-indexed
  // reads need no lock. 2^kChunkBits entries per chunk; the chunk
  // directory is fixed (a growable one would race lock-free readers), so
  // its size bounds the table at kMaxChunks * kChunkSize = 4M paths —
  // an order of magnitude above the largest simulated world's probe
  // universe — while keeping the per-table directory at 32 KiB.
  static constexpr std::size_t kChunkBits = 10;
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkBits;
  static constexpr std::size_t kMaxChunks = std::size_t{1} << 12;

  struct ChildKey {
    PathId parent;
    std::string name;
    bool operator==(const ChildKey&) const = default;
  };
  struct ChildKeyView {
    PathId parent;
    std::string_view name;
  };
  struct ChildHash {
    using is_transparent = void;
    static std::size_t mix(PathId parent, std::string_view name) {
      return std::hash<std::string_view>{}(name) ^
             (std::size_t{parent} * 0x9e3779b97f4a7c15ull);
    }
    std::size_t operator()(const ChildKey& k) const {
      return mix(k.parent, k.name);
    }
    std::size_t operator()(const ChildKeyView& k) const {
      return mix(k.parent, k.name);
    }
  };
  struct ChildEq {
    using is_transparent = void;
    static bool eq(PathId pa, std::string_view na, PathId pb,
                   std::string_view nb) {
      return pa == pb && na == nb;
    }
    bool operator()(const ChildKey& a, const ChildKey& b) const {
      return eq(a.parent, a.name, b.parent, b.name);
    }
    bool operator()(const ChildKeyView& a, const ChildKey& b) const {
      return eq(a.parent, a.name, b.parent, b.name);
    }
    bool operator()(const ChildKey& a, const ChildKeyView& b) const {
      return eq(a.parent, a.name, b.parent, b.name);
    }
  };

  const Entry& entry(PathId id) const {
    return chunks_[id >> kChunkBits].load(
        std::memory_order_acquire)[id & (kChunkSize - 1)];
  }

  // Find (dir, name) in its index shard, or kNone. Shared lock only.
  PathId find_child(PathId dir, std::string_view name) const;
  // Find-or-append: shard exclusive lock, then alloc_mutex_ for the id.
  PathId intern_child(PathId dir, std::string_view name);

  std::unique_ptr<std::atomic<Entry*>[]> chunks_;
  std::atomic<std::uint32_t> count_{0};

  // Child index, sharded by ChildHash::mix(parent, name). Lock order is
  // always shard -> alloc_mutex_; no path holds two shard locks at once,
  // so the sharding cannot deadlock.
  static constexpr std::size_t kIndexShards = 16;
  struct IndexShard {
    mutable std::shared_mutex mutex;
    std::unordered_map<ChildKey, PathId, ChildHash, ChildEq> index;
  };
  static std::size_t shard_index(PathId dir, std::string_view name) {
    // Use the upper bits: the map consumes the lower bits of the same
    // hash for its buckets, so this keeps shard choice decorrelated.
    return (ChildHash::mix(dir, name) >> 24) % kIndexShards;
  }
  mutable std::array<IndexShard, kIndexShards> index_shards_;

  // Guards id allocation, chunk creation, and entry publication. Held
  // briefly (the full-path string is built before acquiring it).
  std::mutex alloc_mutex_;
};

}  // namespace depchaos::support
