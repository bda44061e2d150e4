#include "depchaos/support/path_table.hpp"

#include <mutex>
#include <stdexcept>

namespace depchaos::support {

PathTable::PathTable()
    : chunks_(new std::atomic<Entry*>[kMaxChunks]()) {
  // Slot 0 is the kNone sentinel; slot 1 the root. Both live in chunk 0.
  auto* chunk = new Entry[kChunkSize];
  chunk[kRoot].parent = kRoot;
  chunk[kRoot].name_len = 1;
  chunk[kRoot].full.push_back('/');  // not = "/": GCC 12 -O3 -Wrestrict
  chunks_[0].store(chunk, std::memory_order_release);
  count_.store(2, std::memory_order_release);
}

PathTable::~PathTable() {
  for (std::size_t i = 0; i < kMaxChunks; ++i) {
    delete[] chunks_[i].load(std::memory_order_relaxed);
  }
}

PathId PathTable::find_child(PathId dir, std::string_view name) const {
  const IndexShard& shard = index_shards_[shard_index(dir, name)];
  std::shared_lock lock(shard.mutex);
  const auto it = shard.index.find(ChildKeyView{dir, name});
  return it == shard.index.end() ? kNone : it->second;
}

PathId PathTable::intern_child(PathId dir, std::string_view name) {
  IndexShard& shard = index_shards_[shard_index(dir, name)];
  std::unique_lock lock(shard.mutex);
  const auto it = shard.index.find(ChildKeyView{dir, name});
  if (it != shard.index.end()) return it->second;

  // The shard's exclusive lock makes this thread the sole possible
  // inserter of (dir, name); build the full-path string before touching
  // alloc_mutex_ so the table-wide critical section stays tiny.
  const Entry& parent_entry = entry(dir);
  std::string full;
  full.reserve(parent_entry.full.size() + 1 + name.size());
  if (dir != kRoot) full = parent_entry.full;
  full += '/';
  full += name;

  std::uint32_t id;
  {
    std::lock_guard alloc(alloc_mutex_);
    id = count_.load(std::memory_order_relaxed);
    if (id >= kMaxChunks * kChunkSize) {
      throw std::length_error("PathTable full");
    }
    const std::size_t chunk_index = id >> kChunkBits;
    Entry* chunk = chunks_[chunk_index].load(std::memory_order_relaxed);
    if (chunk == nullptr) {
      chunk = new Entry[kChunkSize];
      chunks_[chunk_index].store(chunk, std::memory_order_release);
    }
    Entry& e = chunk[id & (kChunkSize - 1)];
    e.parent = dir;
    e.depth = parent_entry.depth + 1;
    e.name_len = static_cast<std::uint32_t>(name.size());
    e.full = std::move(full);
    // Publish the entry before the id becomes reachable via size() or
    // the shard index.
    count_.store(id + 1, std::memory_order_release);
  }
  shard.index.emplace(ChildKey{dir, std::string(name)}, id);
  return id;
}

PathId PathTable::child(PathId dir, std::string_view name) {
  if (name.empty() || name == ".") return dir;
  if (name == "..") return parent(dir);
  if (const PathId hit = find_child(dir, name); hit != kNone) return hit;
  return intern_child(dir, name);
}

PathId PathTable::intern_under(PathId base, std::string_view relative) {
  PathId cur = base;
  std::size_t pos = 0;
  if (!relative.empty() && relative.front() == '/') cur = kRoot;
  while (pos < relative.size()) {
    while (pos < relative.size() && relative[pos] == '/') ++pos;
    std::size_t end = pos;
    while (end < relative.size() && relative[end] != '/') ++end;
    if (end > pos) cur = child(cur, relative.substr(pos, end - pos));
    pos = end;
  }
  return cur;
}

PathId PathTable::intern(std::string_view path) {
  if (path.empty() || path.front() != '/') {
    throw std::invalid_argument("PathTable::intern: path must be absolute: '" +
                                std::string(path) + "'");
  }
  return intern_under(kRoot, path);
}

}  // namespace depchaos::support
