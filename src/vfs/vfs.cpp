#include "depchaos/vfs/vfs.hpp"

#include <algorithm>
#include <cassert>

#include "depchaos/support/strings.hpp"

namespace depchaos::vfs {

namespace {
constexpr int kMaxSymlinkHops = 40;  // Linux ELOOP limit
// fork() collapses a child whose layer chain would be deeper than this:
// past it the chain walk under every dentry miss starts to dominate.
constexpr std::size_t kAutoCollapseDepth = 64;
constexpr support::PathId kNoPath = support::PathTable::kNone;
}  // namespace

std::string_view mount_kind_name(MountKind kind) {
  switch (kind) {
    case MountKind::Image:
      return "image";
    case MountKind::Overlay:
      return "overlay";
    case MountKind::Tmpfs:
      return "tmpfs";
    case MountKind::Bind:
      return "bind";
  }
  return "?";
}

SyscallStats& SyscallStats::operator+=(const SyscallStats& other) {
  stat_calls += other.stat_calls;
  open_calls += other.open_calls;
  read_calls += other.read_calls;
  failed_probes += other.failed_probes;
  sim_time_s += other.sim_time_s;
  return *this;
}

SyscallStats SyscallStats::operator-(const SyscallStats& before) const {
  SyscallStats delta;
  delta.stat_calls = stat_calls - before.stat_calls;
  delta.open_calls = open_calls - before.open_calls;
  delta.read_calls = read_calls - before.read_calls;
  delta.failed_probes = failed_probes - before.failed_probes;
  delta.sim_time_s = sim_time_s - before.sim_time_s;
  return delta;
}

std::string normalize_path(std::string_view path) {
  if (path.empty() || path.front() != '/') {
    throw FsError("path must be absolute: '" + std::string(path) + "'");
  }
  std::vector<std::string> out;
  for (const auto& comp : support::split_nonempty(path, '/')) {
    if (comp == ".") continue;
    if (comp == "..") {
      if (!out.empty()) out.pop_back();
      continue;
    }
    out.push_back(comp);
  }
  if (out.empty()) return "/";
  std::string result;
  for (const auto& comp : out) {
    result += '/';
    result += comp;
  }
  return result;
}

std::string dirname(std::string_view path) {
  const std::string norm = normalize_path(path);
  const auto pos = norm.rfind('/');
  if (pos == 0) return "/";
  return norm.substr(0, pos);
}

std::string basename(std::string_view path) {
  const std::string norm = normalize_path(path);
  if (norm == "/") return "/";
  return norm.substr(norm.rfind('/') + 1);
}

InodeNum FileSystem::Node::find_child(std::string_view name) const {
  for (const auto& [child_name, ino] : children) {
    if (child_name == name) return ino;
  }
  return 0;
}

FileSystem::FileSystem()
    : paths_(std::make_shared<support::PathTable>()) {
  top_nodes_.resize(2);  // [0] unused; [1] = root
  top_nodes_[1].type = NodeType::Directory;
  live_inodes_ = 1;
}

FileSystem::FileSystem(const FileSystem& other) {
  // Flatten the chain: the copy is a fresh single-layer world with the same
  // inode numbering (dead nodes included, so post-copy allocations match).
  const InodeNum end = other.end_ino();
  top_nodes_.reserve(end);
  for (InodeNum i = 0; i < end; ++i) top_nodes_.push_back(other.node_local(i));
  live_inodes_ = other.live_inodes_;
  stats_ = other.stats_;
  latency_ = other.latency_;
  counting_ = other.counting_;
  // The interner is world-independent, so the copy joins the family table;
  // the dentry cache is a per-view memo and starts cold.
  paths_ = other.paths_;
  dentry_enabled_ = other.dentry_enabled_;
  // Mount table: immutable backings are shared (never copied); writable
  // backings get the same deep-copy treatment as the host storage.
  mounts_.reserve(other.mounts_.size());
  for (const Mount& m : other.mounts_) {
    Mount copy = m;
    if (m.active && !m.read_only && m.backing) {
      copy.backing = std::make_shared<FileSystem>(*m.backing);
    }
    mounts_.push_back(std::move(copy));
  }
  mount_at_ = other.mount_at_;
}

FileSystem& FileSystem::operator=(const FileSystem& other) {
  if (this != &other) {
    FileSystem copy(other);
    *this = std::move(copy);
  }
  return *this;
}

void FileSystem::freeze_top() {
  if (base_ && top_nodes_.empty() && top_shadow_.empty()) return;
  auto layer = std::make_shared<Layer>();
  layer->parent = std::move(base_);
  layer->start = top_start_;
  layer->nodes = std::move(top_nodes_);
  layer->shadowed = std::move(top_shadow_);
  top_start_ = layer->start + layer->nodes.size();
  top_nodes_.clear();
  top_shadow_.clear();
  base_ = std::move(layer);
}

FileSystem FileSystem::fork() {
  // fork() IS seal-then-stamp: the parent-side mutations (freeze, dentry
  // rotation, backing seals) happen in seal(), the child is a pure const
  // stamp over the frozen state. Splitting it this way makes the sealed
  // fast path byte-identical to a legacy fork by construction — they are
  // the same code.
  seal();
  return fork_sealed();
}

void FileSystem::seal() {
  freeze_top();
  // Dentry warm start: merge the private memo into a new immutable
  // snapshot every future child keeps consulting (content is identical at
  // the seal point, so every entry — positive or negative — stays valid
  // until a side mutates, which drops only that side's snapshot
  // reference). The private map restarts empty so concurrent forked
  // workers never write a shared structure.
  if (dentry_enabled_ && !dentry_.empty()) {
    if (dentry_shared_) {
      dentry_.insert(dentry_shared_->begin(), dentry_shared_->end());
    }
    dentry_shared_ = std::make_shared<const DentryMap>(std::move(dentry_));
    dentry_ = DentryMap{};
  }
  // Writable mount backings are part of the forkable state: seal them too
  // so fork_sealed() can stamp their children without mutating them.
  for (Mount& m : mounts_) {
    if (m.active && !m.read_only && m.backing) m.backing->seal();
  }
  sealed_ = true;
}

FileSystem FileSystem::fork_sealed() const {
  if (!sealed_) {
    throw FsError("fork_sealed: view is not sealed (call seal() first)");
  }
  FileSystem child{ForkTag{}};
  child.base_ = base_;
  child.top_start_ = top_start_;
  child.live_inodes_ = live_inodes_;
  child.counting_ = counting_;
  child.paths_ = paths_;  // one interner per fork family
  child.dentry_enabled_ = dentry_enabled_;
  child.latency_ = latency_;
  child.dentry_shared_ = dentry_shared_;  // null while the cache is off
  // Mount table: share read-only backings, stamp sealed children of
  // writable ones so per-view divergence stays in the view. Mount indices
  // — baked into tagged inode numbers, including the warm dentries — are
  // preserved.
  child.mounts_.reserve(mounts_.size());
  for (const Mount& m : mounts_) {
    Mount copy = m;
    if (m.active && !m.read_only && m.backing) {
      copy.backing = std::make_shared<FileSystem>(m.backing->fork_sealed());
    }
    child.mounts_.push_back(std::move(copy));
  }
  child.mount_at_ = mount_at_;
  // Layer compaction: flatten the CHILD (the view that carries the chain
  // forward); the parent stays O(1) as fork() promises.
  if (child.layer_depth() > kAutoCollapseDepth) child.collapse();
  return child;
}

void FileSystem::collapse() {
  if (!base_) return;  // already flat
  const InodeNum end = end_ino();
  std::vector<Node> flat;
  flat.reserve(end);
  for (InodeNum i = 0; i < end; ++i) flat.push_back(node_local(i));
  top_nodes_ = std::move(flat);
  top_shadow_.clear();
  top_start_ = 0;
  base_.reset();
  // Cached dentries survive: inode numbers and content are unchanged.
  sealed_ = false;  // the overlay is the whole (unfrozen) world again
}

const FileSystem::Node& FileSystem::node(InodeNum ino) const {
  if (const std::uint16_t m = mount_index(ino)) {
    return mounts_[m - 1].backing->node_local(local_ino(ino));
  }
  return node_local(ino);
}

const FileSystem::Node& FileSystem::node_local(InodeNum ino) const {
  if (ino >= top_start_) return top_nodes_[ino - top_start_];
  if (const auto it = top_shadow_.find(ino); it != top_shadow_.end()) {
    return it->second;
  }
  for (const Layer* layer = base_.get(); layer != nullptr;
       layer = layer->parent.get()) {
    if (ino >= layer->start) return layer->nodes[ino - layer->start];
    if (const auto it = layer->shadowed.find(ino);
        it != layer->shadowed.end()) {
      return it->second;
    }
  }
  throw FsError("invalid inode");  // unreachable for allocated inode numbers
}

FileSystem::Node& FileSystem::mutable_node(InodeNum ino) {
  // Every structural change flows through here, so this is the dentry
  // cache's single invalidation point: drop the memo — the private map AND
  // this view's reference to the fork-shared snapshot (siblings keep
  // theirs: copy-on-invalidate) — BEFORE handing out the write reference.
  invalidate_dentries();
  if (const std::uint16_t m = mount_index(ino)) {
    Mount& mnt = mounts_[m - 1];
    if (mnt.read_only) {
      throw FsError("read-only file system: mount at " +
                    paths_->str(mnt.point));
    }
    return mnt.backing->mutable_node_local(local_ino(ino));
  }
  return mutable_node_local(ino);
}

FileSystem::Node& FileSystem::mutable_node_local(InodeNum ino) {
  invalidate_dentries();  // the store's own memo, when used standalone
  if (ino >= top_start_) return top_nodes_[ino - top_start_];
  const auto it = top_shadow_.find(ino);
  if (it != top_shadow_.end()) return it->second;
  // First write to a base-layer inode: make the CoW shadow copy.
  return top_shadow_.emplace(ino, node_local(ino)).first->second;
}

void FileSystem::ensure_writable(InodeNum ino) const {
  if (const std::uint16_t m = mount_index(ino)) {
    const Mount& mnt = mounts_[m - 1];
    if (mnt.read_only) {
      throw FsError("read-only file system: mount at " +
                    paths_->str(mnt.point));
    }
  }
}

void FileSystem::ensure_no_mount_under(const std::string& canon,
                                       const std::string& display) const {
  if (!has_mounts()) return;
  // Detaching a mountpoint — or any ancestor of one — would leave the
  // mount attached to a path that no longer resolves: EBUSY.
  const std::string prefix = canon + '/';
  for (const Mount& m : mounts_) {
    if (!m.active) continue;
    const std::string& point = paths_->str(m.point);
    if (point == canon || point.starts_with(prefix)) {
      throw FsError("mount point busy: " + display);
    }
  }
}

InodeNum FileSystem::child_of(InodeNum dir, std::string_view name) const {
  const InodeNum local = node(dir).find_child(name);
  return local == 0 ? 0 : tag_like(dir, local);
}

InodeNum FileSystem::mount_root_at(PathId canon) const {
  if (mount_at_.empty()) return 0;
  const auto it = mount_at_.find(canon);
  if (it == mount_at_.end() || it->second.empty()) return 0;
  const std::uint16_t index = it->second.back();
  return tag(static_cast<std::uint16_t>(index + 1),
             mounts_[index].source_root);
}

InodeNum FileSystem::root_ino() const {
  if (const InodeNum mroot = mount_root_at(support::PathTable::kRoot)) {
    return mroot;
  }
  return 1;
}

std::size_t FileSystem::inode_count() const {
  std::size_t total = live_inodes_;
  for (const Mount& m : mounts_) {
    if (m.active && m.backing) total += m.backing->live_inodes_;
  }
  return total;
}

std::size_t FileSystem::layer_depth() const {
  std::size_t depth = 1;  // the private overlay
  for (const Layer* layer = base_.get(); layer != nullptr;
       layer = layer->parent.get()) {
    ++depth;
  }
  return depth;
}

std::uint64_t FileSystem::owned_bytes() const {
  const auto bytes_of = [](const Node& n) {
    std::uint64_t total = sizeof(Node);
    total += n.data.bytes.size();
    total += n.link_target.size();
    for (const auto& [name, ino] : n.children) {
      (void)ino;
      total += sizeof(std::pair<std::string, InodeNum>) + name.size();
    }
    return total;
  };
  std::uint64_t total = 0;
  for (const Node& n : top_nodes_) total += bytes_of(n);
  for (const auto& [ino, n] : top_shadow_) {
    (void)ino;
    total += bytes_of(n) + sizeof(InodeNum);
  }
  // Writable mount backings are this view's private divergence too;
  // shared read-only images cost a view nothing.
  for (const Mount& m : mounts_) {
    if (m.active && !m.read_only && m.backing) total += m.backing->owned_bytes();
  }
  return total;
}

InodeNum FileSystem::new_node_local(NodeType type) {
  sealed_ = false;  // the overlay is no longer empty, so no longer frozen
  top_nodes_.emplace_back();
  top_nodes_.back().type = type;
  ++live_inodes_;
  return end_ino() - 1;
}

InodeNum FileSystem::new_node_at(std::uint16_t mount, NodeType type) {
  if (mount == 0) return new_node_local(type);
  Mount& mnt = mounts_[mount - 1];
  if (mnt.read_only) {
    throw FsError("read-only file system: mount at " +
                  paths_->str(mnt.point));
  }
  return tag(mount, mnt.backing->new_node_local(type));
}

InodeNum FileSystem::create_child(InodeNum dir, std::string_view name,
                                  NodeType type) {
  ensure_writable(dir);
  const InodeNum child = new_node_at(mount_index(dir), type);
  mutable_node(dir).children.emplace_back(std::string(name), local_ino(child));
  return child;
}

bool FileSystem::op_is_shared(InodeNum ino) const {
  const std::uint16_t m = mount_index(ino);
  if (m == 0) return !node_is_private_local(ino);
  const Mount& mnt = mounts_[m - 1];
  // Read-only mounts (images, masks, RO binds) are fleet-wide by
  // construction; inside a writable mount the fork boundary of its backing
  // separates the shared lower image from per-view divergence.
  if (mnt.read_only) return true;
  return !mnt.backing->node_is_private_local(local_ino(ino));
}

std::optional<bool> FileSystem::served_shared(std::string_view path) const {
  InodeNum ino = 0;
  try {
    ino = resolve(path, /*follow_final=*/true);
  } catch (const FsError&) {
    return std::nullopt;
  }
  if (ino == 0) return std::nullopt;
  return op_is_shared(ino);
}

std::string FileSystem::overlay_key() const {
  // Fixed-width integers and length-prefixed strings: injective and
  // self-delimiting, so a key can be concatenated with another.
  std::string key;
  auto u64 = [&key](std::uint64_t v) {
    key.append(reinterpret_cast<const char*>(&v), sizeof v);
  };
  auto str = [&](std::string_view s) {
    u64(s.size());
    key += s;
  };
  auto add_node = [&](const Node& n) {
    u64(static_cast<std::uint64_t>(n.type));
    u64(n.children.size());
    for (const auto& [name, child] : n.children) {
      str(name);
      u64(child);
    }
    str(n.data.bytes);
    u64(n.data.declared_size);
    str(n.link_target);
  };
  // Shared substrate by identity: sibling forks share the frozen chain.
  u64(reinterpret_cast<std::uintptr_t>(base_.get()));
  u64(top_start_);
  // Appended nodes in inode order, then the CoW-shadow set sorted (the map
  // iterates nondeterministically).
  u64(top_nodes_.size());
  for (const Node& n : top_nodes_) add_node(n);
  std::vector<InodeNum> shadowed;
  shadowed.reserve(top_shadow_.size());
  for (const auto& [ino, node] : top_shadow_) shadowed.push_back(ino);
  std::sort(shadowed.begin(), shadowed.end());
  u64(shadowed.size());
  for (const InodeNum ino : shadowed) {
    u64(ino);
    add_node(top_shadow_.at(ino));
  }
  // Images, binds and overlay lowers are shared substrate (identity);
  // writable backings and tmpfs mounts are per-view (their own key).
  u64(mounts_.size());
  for (const Mount& m : mounts_) {
    str(paths_->str(m.point));
    u64(static_cast<std::uint64_t>(m.kind));
    u64(m.read_only);
    u64(m.active);
    u64(static_cast<std::uint64_t>(m.latency));
    u64(m.source_root);
    u64(reinterpret_cast<std::uintptr_t>(m.lower.get()));
    if (!m.read_only || m.kind == MountKind::Tmpfs) {
      str(m.backing->overlay_key());
    } else {
      u64(reinterpret_cast<std::uintptr_t>(m.backing.get()));
    }
  }
  return key;
}

void FileSystem::charge(OpKind op, bool hit, PathId path, InodeNum ino) {
  if (!counting_) return;
  // Latency-class routing: ops served by a pre-staged (NodeLocal) mount
  // charge the node-local cost model and are flagged in the op trace, so
  // a measured load INSIDE a pre-staged sandbox already carries node-local
  // costs — pre-staging is no longer post-hoc extrapolation arithmetic.
  const bool node_local =
      has_node_local_mount() && op_is_node_local(ino, hit, path);
  // Failed probes are shared — a negative answer (missing path OR open of
  // a non-regular node) is the same for every rank. Reads are data traffic
  // and take no side of the metadata split. Only a trace reads the flag.
  const bool shared = trace_ != nullptr && op != OpKind::Read &&
                      (!hit || op_is_shared(ino));
  account(op, hit, shared, node_local, path);
}

void FileSystem::replay(const OpTrace& trace) {
  if (!counting_) return;
  for (const OpRecord& op : trace.ops()) {
    account(op.kind, op.hit, op.shared, op.node_local, trace.id(op.path));
  }
}

void FileSystem::account(OpKind op, bool hit, bool shared, bool node_local,
                         PathId path) {
  if (trace_ != nullptr) trace_->record(op, hit, shared, node_local, path);
  switch (op) {
    case OpKind::Stat:
      ++stats_.stat_calls;
      break;
    case OpKind::Open:
      ++stats_.open_calls;
      break;
    case OpKind::Read:
      ++stats_.read_calls;
      break;
  }
  if (!hit && (op == OpKind::Stat || op == OpKind::Open)) {
    ++stats_.failed_probes;
  }
  if (!latency_) return;
  stats_.sim_time_s += node_local ? LatencyModel::local_disk_cost(op)
                                  : latency_->cost(op, hit, path);
}

InodeNum FileSystem::resolve_id(PathId id, bool follow_final, int& hops,
                                PathId* canonical) const {
  using support::PathTable;
  if (id == PathTable::kNone) {
    // "No path" passed to a public PathId overload: a clean miss, not UB.
    if (canonical) *canonical = PathTable::kNone;
    return 0;
  }
  if (id == PathTable::kRoot) {
    if (canonical) *canonical = PathTable::kRoot;
    return root_ino();
  }
  const std::uint64_t key = dentry_key(id, follow_final);
  if (dentry_enabled_) {
    // The private memo first, then the fork-shared snapshot: a key lives
    // in at most one of them, and either answers positive and negative
    // walks alike.
    const Dentry* hit = nullptr;
    if (const auto it = dentry_.find(key); it != dentry_.end()) {
      hit = &it->second;
    } else if (dentry_shared_) {
      if (const auto sit = dentry_shared_->find(key);
          sit != dentry_shared_->end()) {
        hit = &sit->second;
      }
    }
    if (hit != nullptr) {
      // Replay the hop budget the memoized walk consumed so a resolution
      // that would have tripped ELOOP still trips it through the cache.
      hops += hit->hops;
      if (hops > kMaxSymlinkHops) {
        throw FsError("too many levels of symbolic links");
      }
      if (canonical) *canonical = hit->canonical;
      return hit->ino;
    }
  }
  const int hops_before = hops;
  InodeNum result = 0;
  PathId result_canon = PathTable::kNone;

  // Resolve the parent directory first (intermediate symlinks are always
  // followed), then take one component step. The recursion memoizes every
  // prefix, so a directory probed once is never chain-walked again until
  // the next mutation.
  PathId dir_canon = PathTable::kNone;
  const InodeNum dir_ino =
      resolve_id(paths_->parent(id), /*follow_final=*/true, hops, &dir_canon);
  if (dir_ino != 0 && node(dir_ino).type == NodeType::Directory) {
    const InodeNum child = child_of(dir_ino, paths_->name(id));
    if (child != 0) {
      if (node(child).type == NodeType::Symlink && follow_final) {
        if (++hops > kMaxSymlinkHops) {
          throw FsError("too many levels of symbolic links");
        }
        // Absolute targets restart from the root; relative targets resolve
        // lexically against the link's (canonical) directory — exactly
        // normalize_path(dir + "/" + target), without building the string.
        const std::string& target = node(child).link_target;
        const PathId target_id =
            (!target.empty() && target.front() == '/')
                ? paths_->intern(target)
                : paths_->intern_under(dir_canon, target);
        result = resolve_id(target_id, /*follow_final=*/true, hops,
                            &result_canon);
      } else {
        result = child;
        result_canon = paths_->child(dir_canon, paths_->name(id));
        // Crossing a mount boundary: the topmost mounted root replaces
        // the underlying directory its mount now shadows.
        if (const InodeNum mroot = mount_root_at(result_canon)) {
          result = mroot;
        }
      }
    }
  }
  if (dentry_enabled_) {
    dentry_.emplace(key, Dentry{result, result_canon, hops - hops_before});
  }
  if (canonical) *canonical = result_canon;
  return result;
}

PathId FileSystem::intern(std::string_view path) const {
  if (path.empty() || path.front() != '/') {
    throw FsError("path must be absolute: '" + std::string(path) + "'");
  }
  return paths_->intern(path);
}

InodeNum FileSystem::resolve(std::string_view path, bool follow_final,
                             std::string* canonical) const {
  int hops = 0;
  PathId canon_id = kNoPath;
  const InodeNum ino = resolve_id(intern(path), follow_final, hops,
                                  canonical ? &canon_id : nullptr);
  if (canonical && ino != 0) *canonical = paths_->str(canon_id);
  return ino;
}

PathId FileSystem::resolve_canonical(PathId id) const {
  int hops = 0;
  PathId canon = kNoPath;
  try {
    if (resolve_id(id, /*follow_final=*/true, hops, &canon) == 0) {
      return kNoPath;
    }
  } catch (const FsError&) {
    return kNoPath;
  }
  return canon;
}

PathId FileSystem::mountpoint(std::string_view point,
                              std::string_view op) const {
  const std::string norm = normalize_path(point);
  const PathId canon = resolve_canonical(intern(norm));
  if (canon == kNoPath) {
    throw FsError(std::string(op) + ": no such path: " + norm);
  }
  return canon;
}

void FileSystem::set_dentry_cache(bool enabled) {
  dentry_enabled_ = enabled;
  invalidate_dentries();
}

// ----- mount table ---------------------------------------------------------

void FileSystem::mount(std::string_view point,
                       std::shared_ptr<FileSystem> backing, MountKind kind,
                       bool read_only, std::shared_ptr<FileSystem> lower,
                       std::string_view source) {
  if (!backing) throw FsError("mount: null backing filesystem");
  if (backing.get() == this) {
    throw FsError("mount: cannot mount a view into itself");
  }
  if (backing->has_mounts()) {
    throw FsError("mount: nested mount tables are not supported");
  }
  if (mounts_.size() >= 0xfffe) throw FsError("mount: table full");
  mkdir_p(point);  // the mountpoint directory must exist
  const PathId canon = mountpoint(point, "mount");
  Mount m;
  m.point = canon;
  m.kind = kind;
  m.read_only = read_only;
  m.lower = std::move(lower);
  if (kind == MountKind::Bind) {
    const std::string src = normalize_path(source);
    const InodeNum src_ino = backing->resolve(src, /*follow_final=*/true);
    if (src_ino == 0 ||
        backing->node(src_ino).type != NodeType::Directory) {
      throw FsError("mount: bind source is not a directory: " + src);
    }
    m.source_root = src_ino;
  }
  m.backing = std::move(backing);
  mounts_.push_back(std::move(m));
  mount_at_[canon].push_back(static_cast<std::uint16_t>(mounts_.size() - 1));
  invalidate_dentries();  // the namespace changed
}

void FileSystem::mount_image(std::string_view point,
                             std::shared_ptr<FileSystem> image) {
  mount(point, std::move(image), MountKind::Image, /*read_only=*/true);
}

void FileSystem::mount_overlay(std::string_view point,
                               const std::shared_ptr<FileSystem>& lower) {
  // The writable upper layer is a CoW fork of the shared image; `lower`
  // rides along so vfs::save_fleet can persist the per-view delta.
  auto upper = std::make_shared<FileSystem>(lower->fork());
  mount(point, std::move(upper), MountKind::Overlay, /*read_only=*/false,
        lower);
}

void FileSystem::mount_tmpfs(std::string_view point, bool read_only) {
  mount(point, std::make_shared<FileSystem>(), MountKind::Tmpfs, read_only);
}

void FileSystem::mount_bind(std::string_view point,
                            std::shared_ptr<FileSystem> source_fs,
                            std::string_view source_path, bool read_only) {
  mount(point, std::move(source_fs), MountKind::Bind, read_only, nullptr,
        source_path);
}

void FileSystem::umount(std::string_view point) {
  const auto it = mount_at_.find(mountpoint(point, "umount"));
  if (it == mount_at_.end() || it->second.empty()) {
    throw FsError("umount: not a mountpoint: " + std::string(point));
  }
  mounts_[it->second.back()].active = false;
  it->second.pop_back();
  if (it->second.empty()) mount_at_.erase(it);
  invalidate_dentries();
}

std::vector<MountInfo> FileSystem::mounts() const {
  std::vector<MountInfo> out;
  for (const Mount& m : mounts_) {
    if (!m.active) continue;
    out.push_back(
        MountInfo{paths_->str(m.point), m.kind, m.read_only, m.latency});
  }
  return out;
}

void FileSystem::set_mount_latency(std::string_view point,
                                   MountLatency latency) {
  const auto it = mount_at_.find(mountpoint(point, "set_mount_latency"));
  if (it == mount_at_.end() || it->second.empty()) {
    throw FsError("set_mount_latency: not a mountpoint: " + std::string(point));
  }
  mounts_[it->second.back()].latency = latency;
}

bool FileSystem::has_node_local_mount() const {
  for (const Mount& m : mounts_) {
    if (m.active && m.latency == MountLatency::NodeLocal) return true;
  }
  return false;
}

bool FileSystem::under_node_local_mount(const std::string& path) const {
  for (const Mount& m : mounts_) {
    if (!m.active || m.latency != MountLatency::NodeLocal) continue;
    const std::string& point = paths_->str(m.point);
    if (point == "/") return true;
    if (path.size() > point.size() && path[point.size()] == '/' &&
        path.compare(0, point.size(), point) == 0) {
      return true;
    }
    if (path == point) return true;
  }
  return false;
}

bool FileSystem::op_is_node_local(InodeNum ino, bool hit,
                                  PathId path) const {
  if (hit && ino != 0) {
    const std::uint16_t m = mount_index(ino);
    if (m == 0) return false;
    const Mount& mnt = mounts_[m - 1];
    // Only the SHARED substrate of the mount is pre-staged: a node the
    // view created or CoW-shadowed (overlay upper writes) diverges
    // per-rank and always pays the shared-FS price.
    return mnt.latency == MountLatency::NodeLocal && op_is_shared(ino);
  }
  // Miss (or unresolved read): a probe that dies inside a pre-staged
  // image's namespace is answered locally — the local negative the PR-5
  // follow-up asked for.
  return under_node_local_mount(paths_->str(path));
}

// ----- setup ---------------------------------------------------------------

InodeNum FileSystem::parent_of(const std::string& norm, bool create) {
  const std::string dir = dirname(norm);
  InodeNum ino = resolve(dir, /*follow_final=*/true);
  if (ino != 0) {
    if (node(ino).type != NodeType::Directory) {
      throw FsError("not a directory: " + dir);
    }
    return ino;
  }
  if (!create) throw FsError("no such directory: " + dir);
  mkdir_p(dir);
  ino = resolve(dir, true);
  assert(ino != 0);
  return ino;
}

void FileSystem::mkdir_p(std::string_view path) {
  const std::string norm = normalize_path(path);
  if (norm == "/") return;
  InodeNum cur = root_ino();
  std::string prefix;
  for (const auto& comp : support::split_nonempty(norm, '/')) {
    prefix += '/';
    prefix += comp;
    // resolve() handles symlinked intermediates and mount crossings
    // uniformly; setup traffic is uncounted anyway.
    const InodeNum next = resolve(prefix, /*follow_final=*/true);
    if (next == 0) {
      if (node(cur).type != NodeType::Directory) {
        throw FsError("not a directory: " + prefix);
      }
      if (child_of(cur, comp) != 0) {
        // Exists but does not resolve: a dangling symlink in the way.
        throw FsError("not a directory (through symlink): " + prefix);
      }
      cur = create_child(cur, comp, NodeType::Directory);
    } else if (node(next).type != NodeType::Directory) {
      if (node(cur).type == NodeType::Directory) {
        if (const InodeNum direct = child_of(cur, comp);
            direct != 0 && node(direct).type == NodeType::Symlink) {
          throw FsError("not a directory (through symlink): " + prefix);
        }
      }
      throw FsError("not a directory: " + prefix);
    } else {
      cur = next;
    }
  }
}

void FileSystem::write_file(std::string_view path, FileData data) {
  const std::string norm = normalize_path(path);
  if (norm == "/") throw FsError("cannot write to /");
  const InodeNum parent = parent_of(norm, /*create=*/true);
  const std::string name = basename(norm);
  InodeNum child = child_of(parent, name);
  if (child != 0 && node(child).type == NodeType::Symlink) {
    // Writing through a symlink targets the link's destination.
    std::string canonical;
    const InodeNum target = resolve(norm, true, &canonical);
    if (target != 0) {
      child = target;
    } else {
      throw FsError("dangling symlink: " + norm);
    }
  }
  if (child == 0) {
    child = create_child(parent, name, NodeType::Regular);
  } else if (node(child).type == NodeType::Directory) {
    throw FsError("is a directory: " + norm);
  }
  mutable_node(child).data = std::move(data);
}

void FileSystem::symlink(std::string_view target, std::string_view linkpath) {
  const std::string norm = normalize_path(linkpath);
  const InodeNum parent = parent_of(norm, /*create=*/true);
  const std::string name = basename(norm);
  if (child_of(parent, name) != 0) {
    throw FsError("already exists: " + norm);
  }
  const InodeNum child = create_child(parent, name, NodeType::Symlink);
  mutable_node(child).link_target = std::string(target);
}

void FileSystem::remove_subtree(InodeNum ino) {
  // Bookkeeping only: once detached from its parent the subtree is
  // unreachable, so the nodes themselves are left untouched — on a forked
  // view, writing them would force pointless CoW copies of every node in
  // the doomed subtree.
  for (const auto& [name, child] : node(ino).children) {
    (void)name;
    remove_subtree(tag_like(ino, child));
  }
  if (const std::uint16_t m = mount_index(ino)) {
    --mounts_[m - 1].backing->live_inodes_;
  } else {
    --live_inodes_;
  }
}

void FileSystem::remove(std::string_view path, bool recursive) {
  const std::string norm = normalize_path(path);
  if (norm == "/") throw FsError("cannot remove /");
  std::string canon_dir;
  const InodeNum parent = resolve(dirname(norm), true, &canon_dir);
  if (parent == 0) throw FsError("no such path: " + norm);
  const std::string name = basename(norm);
  if (has_mounts()) {
    ensure_no_mount_under(
        canon_dir == "/" ? '/' + name : canon_dir + '/' + name, norm);
  }
  const InodeNum ino = child_of(parent, name);
  if (ino == 0) throw FsError("no such path: " + norm);
  if (node(ino).type == NodeType::Directory && !node(ino).children.empty() &&
      !recursive) {
    throw FsError("directory not empty: " + norm);
  }
  ensure_writable(parent);
  remove_subtree(ino);
  auto& children = mutable_node(parent).children;
  children.erase(std::find_if(children.begin(), children.end(),
                              [&](const auto& p) { return p.first == name; }));
}

void FileSystem::rename(std::string_view from, std::string_view to) {
  const std::string norm_from = normalize_path(from);
  const std::string norm_to = normalize_path(to);
  std::string canon_from_dir;
  const InodeNum from_parent =
      resolve(dirname(norm_from), true, &canon_from_dir);
  if (from_parent == 0) throw FsError("no such path: " + norm_from);
  const std::string from_name = basename(norm_from);
  const InodeNum moving = child_of(from_parent, from_name);
  if (moving == 0) throw FsError("no such path: " + norm_from);
  if (has_mounts()) {
    ensure_no_mount_under(canon_from_dir == "/"
                              ? '/' + from_name
                              : canon_from_dir + '/' + from_name,
                          norm_from);
  }
  const InodeNum to_parent = parent_of(norm_to, /*create=*/true);
  if (mount_index(from_parent) != mount_index(to_parent)) {
    // rename(2) across filesystems fails EXDEV; mounts are separate stores.
    throw FsError("cross-mount rename: " + norm_from + " -> " + norm_to);
  }
  if (node(moving).type == NodeType::Directory) {
    // Moving a directory underneath itself would orphan the whole subtree
    // (POSIX EINVAL). Checked by inode, so symlink aliases can't evade it.
    std::vector<InodeNum> stack{moving};
    while (!stack.empty()) {
      const InodeNum cur = stack.back();
      stack.pop_back();
      if (cur == to_parent) {
        throw FsError("cannot move a directory into itself: " + norm_from +
                      " -> " + norm_to);
      }
      for (const auto& [name, child] : node(cur).children) {
        (void)name;
        stack.push_back(tag_like(cur, child));
      }
    }
  }
  {
    auto& from_children = mutable_node(from_parent).children;
    const auto it =
        std::find_if(from_children.begin(), from_children.end(),
                     [&](const auto& p) { return p.first == from_name; });
    from_children.erase(it);
  }  // reference dropped: mutable_node below may shadow-copy other nodes

  const std::string to_name = basename(norm_to);
  auto& to_children = mutable_node(to_parent).children;
  const auto existing =
      std::find_if(to_children.begin(), to_children.end(),
                   [&](const auto& p) { return p.first == to_name; });
  if (existing != to_children.end()) {
    if (node(tag_like(to_parent, existing->second)).type ==
        NodeType::Directory) {
      throw FsError("rename over directory: " + norm_to);
    }
    remove_subtree(tag_like(to_parent, existing->second));
    to_children.erase(existing);
  }
  to_children.emplace_back(to_name, local_ino(moving));
}

bool FileSystem::exists(std::string_view path) const {
  try {
    return resolve(path, true) != 0;
  } catch (const FsError&) {
    return false;  // symlink loop counts as nonexistent for probing purposes
  }
}

std::vector<std::string> FileSystem::list_dir(std::string_view path) const {
  const InodeNum ino = resolve(path, true);
  if (ino == 0) throw FsError("no such directory: " + std::string(path));
  const Node& dir = node(ino);
  if (dir.type != NodeType::Directory) {
    throw FsError("not a directory: " + std::string(path));
  }
  std::vector<std::string> out;
  out.reserve(dir.children.size());
  for (const auto& [name, child] : dir.children) {
    (void)child;
    out.push_back(name);
  }
  return out;
}

std::optional<std::string> FileSystem::realpath(std::string_view path) const {
  std::string canonical;
  try {
    if (resolve(path, true, &canonical) == 0) return std::nullopt;
  } catch (const FsError&) {
    return std::nullopt;
  }
  return canonical;
}

const FileData* FileSystem::peek(std::string_view path) const {
  try {
    return peek(intern(path));
  } catch (const FsError&) {
    return nullptr;
  }
}

const FileData* FileSystem::peek(PathId id) const {
  InodeNum ino = 0;
  try {
    int hops = 0;
    ino = resolve_id(id, /*follow_final=*/true, hops, nullptr);
  } catch (const FsError&) {
    return nullptr;
  }
  if (ino == 0 || node(ino).type != NodeType::Regular) return nullptr;
  return &node(ino).data;
}

std::optional<NodeType> FileSystem::peek_type(std::string_view path,
                                              bool follow) const {
  InodeNum ino = 0;
  try {
    ino = resolve(path, follow);
  } catch (const FsError&) {
    return std::nullopt;
  }
  if (ino == 0) return std::nullopt;
  return node(ino).type;
}

std::optional<std::string> FileSystem::peek_link_target(
    std::string_view path) const {
  InodeNum ino = 0;
  try {
    ino = resolve(path, /*follow_final=*/false);
  } catch (const FsError&) {
    return std::nullopt;
  }
  if (ino == 0 || node(ino).type != NodeType::Symlink) return std::nullopt;
  return node(ino).link_target;
}

std::uint64_t FileSystem::disk_usage(std::string_view path) const {
  InodeNum ino = 0;
  try {
    ino = resolve(path, true);
  } catch (const FsError&) {
    return 0;
  }
  if (ino == 0) return 0;
  // Iterative DFS over the subtree.
  std::uint64_t total = 0;
  std::vector<InodeNum> stack{ino};
  while (!stack.empty()) {
    const InodeNum cur_ino = stack.back();
    stack.pop_back();
    const Node& cur = node(cur_ino);
    switch (cur.type) {
      case NodeType::Regular:
        total += cur.data.size();
        break;
      case NodeType::Directory:
        for (const auto& [name, child] : cur.children) {
          (void)name;
          stack.push_back(tag_like(cur_ino, child));
        }
        break;
      case NodeType::Symlink:
        break;  // links are weightless here
    }
  }
  return total;
}

std::optional<Stat> FileSystem::stat(PathId id) {
  InodeNum ino = 0;
  try {
    int hops = 0;
    ino = resolve_id(id, /*follow_final=*/true, hops, nullptr);
  } catch (const FsError&) {
    ino = 0;
  }
  charge(OpKind::Stat, ino != 0, id, ino);
  if (ino == 0) return std::nullopt;
  const Node& n = node(ino);
  return Stat{ino, n.type, n.type == NodeType::Regular ? n.data.size() : 0};
}

std::optional<Stat> FileSystem::lstat(PathId id) {
  InodeNum ino = 0;
  try {
    int hops = 0;
    ino = resolve_id(id, /*follow_final=*/false, hops, nullptr);
  } catch (const FsError&) {
    ino = 0;
  }
  charge(OpKind::Stat, ino != 0, id, ino);
  if (ino == 0) return std::nullopt;
  const Node& n = node(ino);
  return Stat{ino, n.type, n.type == NodeType::Regular ? n.data.size() : 0};
}

const FileData* FileSystem::open(PathId id) {
  InodeNum ino = 0;
  try {
    int hops = 0;
    ino = resolve_id(id, /*follow_final=*/true, hops, nullptr);
  } catch (const FsError&) {
    ino = 0;
  }
  const bool hit = ino != 0 && node(ino).type == NodeType::Regular;
  charge(OpKind::Open, hit, id, ino);
  if (!hit) return nullptr;
  return &node(ino).data;
}

void FileSystem::count_read(PathId id) {
  charge(OpKind::Read, true, id);
}

}  // namespace depchaos::vfs
